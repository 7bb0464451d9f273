"""Violates knob-discipline: raw reads, an undeclared and a retired knob."""

import os


def raw_read():
    return os.environ.get("REPRO_BATCH_NDARRAY_MIN", "")


def raw_getenv():
    return os.getenv("REPRO_BATCH_NDARRAY")


def raw_subscript():
    return os.environ["REPRO_CHECK_DISTINCT"]


def undeclared():
    return os.environ.get("REPRO_NO_SUCH_KNOB")


RETIRED_NAME = "REPRO_ADMIT_EXACT_MAX"

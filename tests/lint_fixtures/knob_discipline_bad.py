"""Violates knob-discipline: raw reads, an undeclared and a retired knob."""

import os


def raw_read():
    return os.environ.get("REPRO_PLAN_CACHE_MAX", "")


def raw_getenv():
    return os.getenv("REPRO_CHECK_DISTINCT")


def raw_subscript():
    return os.environ["REPRO_LP_BACKEND"]


def undeclared():
    return os.environ.get("REPRO_NO_SUCH_KNOB")


RETIRED_NAME = "REPRO_ADMIT_EXACT_MAX"

"""Conforms to knob-discipline: reads through the registry, writes allowed."""

import os

from repro import config


def registry_read():
    return config.get("REPRO_PLAN_CACHE_MAX")


def registry_probe():
    return config.is_set("REPRO_CHECK_DISTINCT")


def env_write(value):
    # Writes (tests setting knobs) are fine; only reads are disciplined.
    os.environ["REPRO_CHECK_DISTINCT"] = value
    os.environ.pop("REPRO_CHECK_DISTINCT", None)

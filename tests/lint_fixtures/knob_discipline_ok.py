"""Conforms to knob-discipline: reads through the registry, writes allowed."""

import os

from repro import config


def registry_read():
    return config.get("REPRO_SHARD")


def registry_probe():
    return config.is_set("REPRO_SHARD")


def env_write(value):
    # Writes (tests setting knobs) are fine; only reads are disciplined.
    os.environ["REPRO_ENCODE"] = value
    os.environ.pop("REPRO_ENCODE", None)

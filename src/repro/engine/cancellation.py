"""Cooperative per-query deadlines and checkpoint hooks.

The engines are pure Python loops: a runaway query cannot be preempted,
but it *can* be asked to check in at frontier-block granularity.  This
module is that check-in point.  A context (one per worker thread running
a query) carries a tuple of zero-argument hooks; :func:`checkpoint` runs
them and is called from the batch entry points of
``expansion_plan.py``, the key-join seams of ``frontier.py``, the
per-depth loop of ``generic_join.py``, the per-node descent of
``leapfrog.py`` and the pivot loop of the exact LP (``lp/exact.py``,
so a deadline also stops a cold admission bound).  A hook signals by
*raising* — typically
:class:`~repro.errors.QueryTimeout` from a :class:`Deadline`, or an
injected fault from ``repro.serve.faults`` — so a timed-out query
unwinds and releases its worker instead of orphaning it.

With no hooks installed (every direct engine call outside the service)
:func:`checkpoint` is one ``ContextVar.get`` returning an empty tuple —
cheap enough for the per-node call sites, and it never touches the work
counters: cancellation changes *when* a run stops, never what it counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable

from repro.errors import QueryTimeout

_HOOKS: ContextVar[tuple[Callable[[], None], ...]] = ContextVar(
    "repro_checkpoint_hooks", default=()
)


class Deadline:
    """A wall-clock budget for one query.

    ``check()`` raises :class:`QueryTimeout` once ``seconds`` have
    elapsed since construction; install it with :func:`checkpoint_scope`
    so every engine checkpoint enforces it.
    """

    __slots__ = ("seconds", "expires_at")

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self.expires_at = time.monotonic() + self.seconds

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        if time.monotonic() >= self.expires_at:
            raise QueryTimeout(
                f"query exceeded its {self.seconds:g}s deadline",
                deadline_s=self.seconds,
            )


@contextmanager
def checkpoint_scope(*hooks: Callable[[], None]):
    """Install ``hooks`` (appended to any already active) for the dynamic
    extent of the block.  Hooks run in installation order at every
    :func:`checkpoint`."""
    token = _HOOKS.set(_HOOKS.get() + tuple(h for h in hooks if h is not None))
    try:
        yield
    finally:
        _HOOKS.reset(token)


def checkpoint() -> None:
    """Run the active hooks (no-op without any).  Called by the engines
    at frontier-block/per-node granularity."""
    for hook in _HOOKS.get():
        hook()


def active() -> bool:
    """Are any hooks installed?  (Lets very hot loops skip even the
    per-iteration function call when nothing can fire.)"""
    return bool(_HOOKS.get())

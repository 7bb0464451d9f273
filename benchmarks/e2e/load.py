"""The benchmark's own load generators (``repro.serve.traffic`` is not used).

* :func:`closed_loop` — ``clients`` threads, each sending its next read
  only after the previous answer arrived, for a fixed duration.  Latency
  runs from the send.
* :func:`open_loop` — one thread submits on a fixed schedule of absolute
  due times, whatever the service does.  Latency runs from the *due*
  time, so a stall also charges the reads queued behind it; the
  generator's own lateness and the in-flight backlog are recorded so a
  run whose generator fell behind can be rejected.

Both add to a :class:`Tally`, so one tally can span several traffic
segments.  Every thread starts through ``copy_context().run``: the
request id and phase ContextVars (and anything else the caller set)
travel with it.  Neither loop retries: a typed error or a wrong answer
is a failed operation.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import copy_context
from time import perf_counter, sleep

from repro.errors import ReproError

import tracing

#: How long the open loop waits for any one answer after its window.
RESULT_TIMEOUT_S = 60.0


class Tally:
    """Outcome accounting shared by the load threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        #: request id -> submit time (the traced run's queue-wait origin).
        self.submitted: dict[int, float] = {}
        #: Total length of the traffic segments.
        self.duration = 0.0
        #: Open loop: submit lateness per read, and the most reads still
        #: in flight at the end of a segment.
        self.lateness: list[float] = []
        self.backlog_max = 0
        self.final_backlog = 0
        self.rids = itertools.count(1)

    def record(self, rid: int, sent: float, latency: float | None,
               correct: bool, degraded: bool = False) -> None:
        """One read: ``latency`` is ``None`` when it raised a typed error;
        a wrong answer keeps its latency but counts as failed."""
        with self.lock:
            self.attempted += 1
            self.submitted[rid] = sent
            self.failed += latency is None or not correct
            if latency is not None:
                self.latencies.append(latency)
                self.degraded += degraded


def closed_loop(service, requests: list[dict], check, clients: int,
                seconds: float, tally: Tally) -> None:
    """``clients`` back-to-back readers over ``requests`` (client ``c``
    takes every ``clients``-th request from offset ``c``) for ``seconds``.
    ``check(request, result)`` says whether an answer is correct."""
    deadline = perf_counter() + seconds

    def client(offset: int) -> None:
        for i in itertools.count(offset, clients):
            if perf_counter() >= deadline:
                return
            request = requests[i % len(requests)]
            rid = next(tally.rids)
            tracing.REQUEST.set(rid)
            sent = perf_counter()
            try:
                result = service.submit(**request).result()
            except ReproError:
                tally.record(rid, sent, None, False)
                continue
            latency = perf_counter() - sent
            tally.record(rid, sent, latency, check(request, result),
                         result.degraded)

    threads = [
        threading.Thread(target=copy_context().run, args=(client, c))
        for c in range(clients)
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.duration += perf_counter() - start


def open_loop(service, requests: list[dict], check, rate: float,
              seconds: float, tally: Tally) -> None:
    """Submit ``requests`` in order at ``rate`` per second for ``seconds``
    from the calling thread, then collect every answer."""
    interval = 1.0 / rate
    done: dict[int, float] = {}

    def stamp(index: int):
        def on_done(_future) -> None:
            done[index] = perf_counter()
        return on_done

    pending = []
    start = perf_counter()
    for i in range(int(seconds * rate)):
        due = start + i * interval
        now = perf_counter()
        if now < due:
            sleep(due - now)
            now = perf_counter()
        tally.lateness.append(now - due)
        tally.backlog_max = max(tally.backlog_max, len(pending) - len(done))
        request = requests[i % len(requests)]
        rid = next(tally.rids)
        tracing.REQUEST.set(rid)
        try:
            future = service.submit(**request)
        except ReproError:
            tally.record(rid, now, None, False)
            continue
        future.add_done_callback(stamp(len(pending)))
        pending.append((rid, due, now, request, future))
    tally.duration += perf_counter() - start
    tally.final_backlog = max(tally.final_backlog, len(pending) - len(done))
    for index, (rid, due, sent, request, future) in enumerate(pending):
        try:
            result = future.result(timeout=RESULT_TIMEOUT_S)
        except ReproError:
            tally.record(rid, sent, None, False)
            continue
        # The done callback may run just after result() returns.
        while index not in done:
            sleep(0.0001)
        tally.record(rid, sent, done[index] - due, check(request, result),
                     result.degraded)

"""Fault injection for the serving layer's chaos/robustness testing.

A :class:`FaultInjector` owns a set of *sites* — named points in the
query path where a fault may fire — armed with a probability and an
optional firing budget.  The service consults the injector at two kinds
of points:

* the **worker** site fires once per query, before admission, simulating
  a crash in service code outside the engines (a raw ``RuntimeError``,
  exercising the outer :func:`repro.errors.classify` choke point);
* the **engine** / **alloc** / **timeout** sites fire from the engines'
  cooperative checkpoints (:func:`hook` plugs into
  :func:`repro.engine.cancellation.checkpoint_scope`), simulating an
  engine-internal bug, an allocation failure mid-join, and a forced
  deadline expiry respectively.

Everything is deterministic given the seed, and ``times=`` budgets give
tests byte-exact control ("fail the first stage once, then succeed") —
the degradation-chain tests arm ``engine`` with ``times=1`` to force
exactly one fallback.

:func:`poison_codec` is the fourth fault class: it corrupts a shared
dictionary entry in place (the decode table suddenly holds an object
whose ``__eq__``/``__hash__``/``__repr__`` raise), simulating a
poisoned cache entry.  Every degradation stage decodes through the
codec, so a query whose answer holds the poisoned value dies at the
decode boundary in both stages and ends in a typed
:class:`~repro.errors.EngineFault` (``stage="exhausted"``) — never a
wrong answer, which is the property the chaos suite asserts.  The
tenant's next compaction heals the entry: it rebuilds the codec from
the stored value rows, not from the poisoned decode table.

``REPRO_FAULTS`` arms sites from the environment (the CI chaos smoke
does this): a comma-separated ``site:probability`` list, e.g.
``worker:0.05,engine:0.1,alloc:0.05,timeout:0.05``, with
``REPRO_FAULTS_SEED`` fixing the stream.  A malformed spec (unknown
site, unparseable or out-of-range probability) is a
:class:`~repro.config.ConfigError`.
"""

from __future__ import annotations

import random
import threading

from repro import config
from repro.errors import QueryTimeout

SITES = ("worker", "engine", "alloc", "timeout")


class PoisonedValue:
    """A codec-cache entry gone bad: every observation raises.

    ``__reduce__``-style repr access, hashing (set/dict membership at the
    decode boundary) and equality all blow up, so any terminal result
    that tries to surface this value dies loudly instead of silently
    emitting garbage.
    """

    __slots__ = ("attr", "code")

    def __init__(self, attr: str, code: int):
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "code", code)

    def _boom(self):
        raise RuntimeError(
            "poisoned codec entry observed "
            f"(attr={object.__getattribute__(self, 'attr')!r}, "
            f"code={object.__getattribute__(self, 'code')})"
        )

    def __eq__(self, other):
        self._boom()

    def __hash__(self):
        self._boom()

    def __repr__(self):
        self._boom()

    def __str__(self):
        self._boom()


def poison_codec(codec, attr: str, code: int | None = None):
    """Replace one interned value of ``attr``'s dictionary with a
    :class:`PoisonedValue` (default: the last interned code).  Returns
    ``(code, original_value)`` so a test can restore it."""
    dictionary = codec.dictionaries[attr]
    if code is None:
        code = len(dictionary.values) - 1
    original = dictionary.values[code]
    dictionary.values[code] = PoisonedValue(attr, code)
    return code, original


class _Arm:
    __slots__ = ("probability", "times")

    def __init__(self, probability: float, times: int | None):
        self.probability = float(probability)
        self.times = times


class FaultInjector:
    """Seeded, thread-safe fault source for the query service.

    ``arm(site, probability=..., times=...)`` schedules faults;
    :meth:`fire` is called at the site and raises when a fault lands.
    ``times=None`` means unbounded; an integer is a firing budget
    decremented on each *hit* (probability misses don't consume it).
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._arms: dict[str, _Arm] = {}
        self._lock = threading.Lock()
        self.fired: dict[str, int] = {site: 0 for site in SITES}

    # -- configuration -------------------------------------------------
    def arm(
        self, site: str, probability: float = 1.0, times: int | None = None
    ) -> "FaultInjector":
        if site == "shard":
            raise ValueError(
                "fault site 'shard' was removed with the thread shard backend"
            )
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (sites: {SITES})")
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:  # also rejects NaN
            raise ValueError(
                f"fault probability for site {site!r} must be in [0, 1], "
                f"got {probability!r}"
            )
        with self._lock:
            self._arms[site] = _Arm(probability, times)
        return self

    def disarm(self, site: str | None = None) -> None:
        with self._lock:
            if site is None:
                self._arms.clear()
            else:
                self._arms.pop(site, None)

    @property
    def armed(self) -> bool:
        return bool(self._arms)

    @classmethod
    def from_env(cls, environ=None) -> "FaultInjector":
        """Build from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` (an
        unarmed injector when the knob is absent).  ``environ`` may be
        any mapping (the CLI passes its parsed flags through one)."""
        seed = config.get("REPRO_FAULTS_SEED", environ=environ)
        injector = cls(seed=seed)
        spec = config.get("REPRO_FAULTS", environ=environ)
        if not spec:
            return injector
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            site, _, prob = part.partition(":")
            try:
                injector.arm(site.strip(), float(prob) if prob else 1.0)
            except ValueError as exc:
                raise config.ConfigError(
                    f"REPRO_FAULTS: bad entry {part!r}: {exc}"
                ) from None
        return injector

    # -- firing --------------------------------------------------------
    def _should_fire(self, site: str) -> bool:
        with self._lock:
            arm = self._arms.get(site)
            if arm is None:
                return False
            if arm.probability < 1.0 and self._rng.random() >= arm.probability:
                return False
            if arm.times is not None:
                if arm.times <= 0:
                    return False
                arm.times -= 1
                if arm.times == 0:
                    del self._arms[site]
            self.fired[site] += 1
            return True

    def fire(self, site: str) -> None:
        """Raise the site's fault if one lands (no-op otherwise)."""
        if not self._should_fire(site):
            return
        if site == "worker":
            raise RuntimeError("injected fault: worker crash before admission")
        if site == "engine":
            raise RuntimeError("injected fault: engine-internal failure")
        if site == "alloc":
            raise MemoryError("injected fault: allocation failure mid-join")
        if site == "timeout":
            raise QueryTimeout(
                "injected fault: forced deadline expiry", deadline_s=0.0
            )
        raise AssertionError(f"unreachable site {site!r}")

    def hook(self):
        """A checkpoint hook firing the engine-side sites — install with
        :func:`repro.engine.cancellation.checkpoint_scope`."""
        def _checkpoint_hook() -> None:
            self.fire("timeout")
            self.fire("alloc")
            self.fire("engine")
        return _checkpoint_hook

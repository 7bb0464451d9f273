"""Backend-dispatching LP front door: exact canonical kernel + scipy cross-check.

All programs in this package are minimizations of ``c @ x`` subject to
``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and ``x >= 0``.  Every solve is
**authoritatively exact**: :mod:`repro.lp.exact`'s Fraction simplex with
canonical lex-min vertex selection returns the one well-defined rational
vertex of each program (primal and dual), together with an
:class:`~repro.lp.exact.ExactCertificate` verified in exact arithmetic.
Because the vertex is a function of the program — not of pivoting history
or of which solver ran — solutions are backend-independent and the
CSMA/SMA/chain trajectories no longer depend on the LP policy.

``REPRO_LP_BACKEND`` selects the *policy*:

* ``auto`` / ``exact`` (default) — solve exactly; scipy is never touched.
  There is no size cutoff any more: the sparse Fraction simplex handles
  the big lattice LLP/CLLP programs, and the old
  ``REPRO_LP_EXACT_MAX_VARS`` / ``REPRO_LP_EXACT_MAX_ROWS`` knobs are
  gone.
* ``scipy`` / ``both`` — **cross-check mode**: the exact canonical
  solution is still what callers get, but every solve additionally runs
  scipy (HiGHS) and raises :class:`LPBackendMismatchError` unless (a)
  the float objective agrees with the certified exact optimum within
  ``BOTH_OBJECTIVE_TOL`` and (b) scipy's full primal vector lies on the
  certified optimal face within ``BOTH_VERTEX_TOL`` (feasible and
  optimal, every residual checked against the certified program) —
  per-solve vertex-level agreement, not just objectives.  CI runs the
  E16 smoke in this mode; it requires scipy (an optional extra —
  without it the two cross-check policies raise ``LPError`` while
  ``auto``/``exact`` keep working).

Whatever the policy, the wrapper adds deterministic handling of empty
constraint blocks, dual values with consistent signs (a binding ``<=`` row
has a non-negative ``duals_ub`` weight — pinned by
``tests/test_lp_exact.py``), a rational solution vector, and a bounded
memo of solved programs keyed on the exact problem bytes *and* the
backend the policy resolved to (``exact`` vs cross-check) — LP solving is
a pure function, and the same LLP/CLLP instances recur across benchmark
sweeps, planner calls and CSMA restarts.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro import config
from repro.lp.exact import (
    ExactCertificate,
    LPError,
    solve_exact_lp,
)
from repro.util.lru import lru_get, lru_put
from repro.util.rational import rationalize

try:  # scipy is an optional extra (setup.py [scipy]); the exact backend
    from scipy.optimize import linprog as _linprog  # covers its absence.

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised by the no-scipy CI job
    _linprog = None
    HAVE_SCIPY = False


class LPBackendMismatchError(LPError):
    """The scipy cross-check disagreed with the certified exact solve."""


#: Absolute/relative tolerance for the cross-check objective assertion.
BOTH_OBJECTIVE_TOL = 1e-7

#: Per-constraint residual tolerance for the cross-check *vertex*
#: assertion: scipy's primal vector must be feasible and optimal for the
#: certified program within this (relative) slack.
BOTH_VERTEX_TOL = 1e-6

_BACKENDS = ("auto", "exact", "scipy", "both")

#: Per-context policy override.  The serving layer's admission control
#: forces the exact backend for its certified bound without mutating the
#: process environment other worker threads read concurrently.
_BACKEND_OVERRIDE: ContextVar[str | None] = ContextVar(
    "repro_lp_backend_override", default=None
)


def lp_backend() -> str:
    """The backend policy in force: the contextual override when one is
    installed, the env knob ``REPRO_LP_BACKEND`` otherwise.  Unknown
    policies raise :class:`~repro.config.ConfigError` (a ``ValueError``)
    whether they arrive via the env or the override."""
    value = _BACKEND_OVERRIDE.get()
    if value is None:
        return config.get("REPRO_LP_BACKEND")
    if value not in _BACKENDS:
        raise config.ConfigError(
            f"REPRO_LP_BACKEND must be one of {_BACKENDS}, got {value!r}"
        )
    return value


@contextmanager
def forced_lp_backend(policy: str):
    """Force ``policy`` (``auto``/``exact``/``scipy``/``both``) for the
    dynamic extent of the block, in this thread/context only."""
    if policy not in _BACKENDS:
        raise ValueError(
            f"backend policy must be one of {_BACKENDS}, got {policy!r}"
        )
    token = _BACKEND_OVERRIDE.set(policy)
    try:
        yield
    finally:
        _BACKEND_OVERRIDE.reset(token)


def resolved_lp_backend() -> str:
    """Collapse the policy to what a solve actually does: ``"exact"``
    (``auto``/``exact`` — canonical exact solve only) or ``"cross"``
    (``scipy``/``both`` — canonical exact solve plus a per-solve scipy
    agreement assertion).  Memo keys use this, so policies that behave
    identically share cached solutions."""
    policy = lp_backend()
    if policy in ("auto", "exact"):
        return "exact"
    if not HAVE_SCIPY:
        raise LPError(
            f"REPRO_LP_BACKEND={policy} requires scipy, which is not "
            "installed (install the [scipy] extra)"
        )
    return "cross"


#: Solved-program memo (problem bytes + resolved backend → LPSolution).
#: LP solving is pure, so returning the cached (immutable-by-convention)
#: solution is safe; the size cap bounds memory on long sweeps with many
#: distinct instances.
_SOLVE_CACHE: "OrderedDict[tuple, LPSolution]" = OrderedDict()
_SOLVE_CACHE_MAX = 512


@dataclass
class LPSolution:
    """Solution of a minimization LP.

    ``x``/``x_rational`` is always the canonical exact vertex and
    ``certificate`` always carries the verified optimality proof.
    ``backend`` records the policy family that produced the solution:
    ``"exact"`` for a pure exact solve, ``"both"`` when the scipy
    cross-check also ran (the ``scipy`` and ``both`` policies are
    aliases for cross-check mode).
    """

    objective: float
    x: np.ndarray
    duals_ub: np.ndarray
    duals_eq: np.ndarray
    x_rational: list[Fraction]
    certificate: ExactCertificate | None = None
    backend: str = "exact"

    @property
    def objective_rational(self) -> Fraction:
        if self.certificate is not None:
            return self.certificate.objective
        return rationalize(self.objective)


def _solve_scipy(costs: np.ndarray, kwargs: dict, max_denominator: int):
    result = _linprog(
        costs, bounds=[(0, None)] * costs.shape[0], method="highs", **kwargs
    )
    if not result.success:
        raise LPError(f"LP failed: {result.message}")
    duals_ub = np.zeros(0)
    duals_eq = np.zeros(0)
    if "A_ub" in kwargs and result.ineqlin is not None:
        # scipy returns non-positive marginals for <= rows of a minimization;
        # negate so a binding constraint has a non-negative dual weight.
        duals_ub = -np.asarray(result.ineqlin.marginals, dtype=float)
    if "A_eq" in kwargs and result.eqlin is not None:
        duals_eq = -np.asarray(result.eqlin.marginals, dtype=float)
    x_rational = [rationalize(v, max_denominator) for v in result.x]
    return LPSolution(
        objective=float(result.fun),
        x=np.asarray(result.x, dtype=float),
        duals_ub=duals_ub,
        duals_eq=duals_eq,
        x_rational=x_rational,
        backend="scipy",
    )


def _solve_exact(costs: np.ndarray, kwargs: dict) -> LPSolution:
    certificate = solve_exact_lp(
        costs.tolist(),
        a_ub=kwargs["A_ub"].tolist() if "A_ub" in kwargs else None,
        b_ub=kwargs["b_ub"].tolist() if "b_ub" in kwargs else None,
        a_eq=kwargs["A_eq"].tolist() if "A_eq" in kwargs else None,
        b_eq=kwargs["b_eq"].tolist() if "b_eq" in kwargs else None,
    )
    return LPSolution(
        objective=float(certificate.objective),
        x=np.array([float(v) for v in certificate.x], dtype=float),
        duals_ub=np.array([float(v) for v in certificate.y_ub], dtype=float),
        duals_eq=np.array([float(v) for v in certificate.y_eq], dtype=float),
        x_rational=list(certificate.x),
        certificate=certificate,
        backend="exact",
    )


def _assert_scipy_agrees(
    exact: LPSolution,
    scipy_solution: LPSolution,
    costs: np.ndarray,
    kwargs: dict,
) -> None:
    """The cross-check contract: scipy must confirm the certified solve,
    per-solve and vertex-level, not just by objective.

    * The float objective agrees with the certified exact optimum within
      ``BOTH_OBJECTIVE_TOL``.
    * scipy's full primal *vector* lies on the certified optimal face
      within ``BOTH_VERTEX_TOL``: non-negative, every ``<=`` and ``==``
      row satisfied, and its cost equal to the certified optimum — all
      residuals measured against the certified program.  (Coordinate
      equality with the canonical vertex would be unsound: on a
      degenerate face HiGHS may legitimately return a *different*
      optimal vertex; what it may not do is return an infeasible or
      sub-optimal point.)
    """
    certificate = exact.certificate
    gap = abs(float(certificate.objective) - scipy_solution.objective)
    scale = max(1.0, abs(scipy_solution.objective))
    if gap > BOTH_OBJECTIVE_TOL * scale:
        raise LPBackendMismatchError(
            f"exact/scipy objectives disagree: "
            f"{float(certificate.objective)!r} (exact, verified) "
            f"vs {scipy_solution.objective!r} (scipy), gap {gap:g}"
        )
    x = scipy_solution.x
    residual = -float(x.min(initial=0.0))
    if "A_ub" in kwargs:
        slack = kwargs["A_ub"] @ x - kwargs["b_ub"]
        residual = max(residual, float(slack.max(initial=0.0)))
    if "A_eq" in kwargs:
        residual = max(
            residual, float(np.abs(kwargs["A_eq"] @ x - kwargs["b_eq"]).max())
        )
    residual = max(
        residual, abs(float(costs @ x) - float(certificate.objective)) / scale
    )
    row_scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    if residual > BOTH_VERTEX_TOL * row_scale:
        raise LPBackendMismatchError(
            "scipy's vertex is not on the certified optimal face: residual "
            f"{residual:g} at {x!r}, certified optimum "
            f"{certificate.objective!r} at {list(certificate.x)!r}"
        )


def solve_lp(
    costs: Sequence[float],
    a_ub: Sequence[Sequence[float]] | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: Sequence[Sequence[float]] | None = None,
    b_eq: Sequence[float] | None = None,
    max_denominator: int = 10_000,
) -> LPSolution:
    """Minimize ``costs @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``, ``x >= 0``."""
    costs = np.ascontiguousarray(costs, dtype=float)
    kwargs = {}
    if a_ub is not None and len(a_ub) > 0:
        kwargs["A_ub"] = np.ascontiguousarray(a_ub, dtype=float)
        kwargs["b_ub"] = np.ascontiguousarray(b_ub, dtype=float)
    if a_eq is not None and len(a_eq) > 0:
        kwargs["A_eq"] = np.ascontiguousarray(a_eq, dtype=float)
        kwargs["b_eq"] = np.ascontiguousarray(b_eq, dtype=float)
    backend = resolved_lp_backend()
    cache_key = (
        costs.tobytes(),
        kwargs["A_ub"].tobytes() if "A_ub" in kwargs else None,
        kwargs["b_ub"].tobytes() if "b_ub" in kwargs else None,
        kwargs["A_eq"].tobytes() if "A_eq" in kwargs else None,
        kwargs["b_eq"].tobytes() if "b_eq" in kwargs else None,
        kwargs["A_ub"].shape if "A_ub" in kwargs else None,
        max_denominator,
        backend,
    )
    cached = lru_get(_SOLVE_CACHE, cache_key)
    if cached is not None:
        return cached

    solution = _solve_exact(costs, kwargs)
    if backend == "cross":
        _assert_scipy_agrees(
            solution, _solve_scipy(costs, kwargs, max_denominator), costs, kwargs
        )
        solution.backend = "both"

    lru_put(_SOLVE_CACHE, cache_key, solution, _SOLVE_CACHE_MAX)
    return solution

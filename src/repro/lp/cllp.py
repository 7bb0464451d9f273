"""The Conditional LLP (CLLP, Sec. 5.3.1) and its dual (Eq. (26)).

CLLP replaces LLP's cardinality constraints by *log-degree constraints*
``h(Y) - h(X) <= n_{Y|X}`` for pairs X ≺ Y in a pair set P.  Cardinality
constraints are the special case X = 0̂; FDs are degree bounds of 0; and
arbitrary known maximum degrees (Sec. 1.2) are first-class citizens
(Prop. 5.32).  The dual's (c, s, m) drives CSMA's proof-sequence
construction (Lemma 5.33 / Thm. 5.34).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from repro.lattice.lattice import Lattice
from repro.lattice.polymatroid import LatticeFunction
from repro.lp.exact import ExactCertificate
from repro.lp.solver import solve_lp
from repro.util.lru import lru_get, lru_put


#: LRU cap on each lattice's LP memo.  The memo gains an entry per
#: distinct cardinality vector, so without a cap it would grow with every
#: differently-sized database a long-running service sees for one query
#: shape; an evicted solution is merely re-solved.
LP_MEMO_MAX = 512


def lattice_lp_cache(lattice: Lattice) -> OrderedDict:
    """Per-lattice memo for LP solutions and constraint-matrix skeletons.

    Attached to the lattice instance (lattices are immutable after
    construction), so CSMA restarts, per-branch re-solves and the planner's
    repeated bound queries all share one cache with the lattice's lifetime.
    Read it with :func:`repro.util.lru.lru_get` and fill it with
    :func:`lp_memo_put`, which keeps it at :data:`LP_MEMO_MAX` entries.
    """
    cache = lattice.__dict__.get("_lp_memo")
    if cache is None:
        cache = lattice.__dict__.setdefault("_lp_memo", OrderedDict())
    return cache


def lp_memo_put(cache: OrderedDict, key, value) -> None:
    """Store ``value`` in a lattice LP memo, evicting down to the cap."""
    lru_put(cache, key, value, LP_MEMO_MAX)


def _solution_cache_key(*parts) -> tuple:
    """Memo key for a cached LP *solution* (not a matrix skeleton).

    Canonical-vertex selection made LP solutions a function of the
    program alone: every backend policy returns the same canonical exact
    rational vertex with a verified certificate (the ``scipy``/``both``
    policies only add a per-solve cross-check), so the key carries no
    backend component — an in-process ``REPRO_LP_BACKEND`` switch, as
    the differential tests perform, hits the same memo entry instead of
    solving the program once per policy.
    """
    return parts


@dataclass(frozen=True)
class DegreeConstraint:
    """h(Y) - h(X) <= bound, for lattice elements X < Y (indices).

    ``guard`` optionally names the relation guarding the constraint in the
    sense of invariant (Inv1) of Sec. 5.3.3.
    """

    x: int
    y: int
    bound: float
    guard: str | None = None

    @property
    def pair(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass
class DualCLLP:
    """A feasible dual solution (c, s, m) of Eq. (26)."""

    lattice: Lattice
    c: dict[tuple[int, int], Fraction]  # (X, Y) in P -> c_{Y|X}
    s: dict[tuple[int, int], Fraction]  # incomparable (A, B) -> s_{A,B}
    m: dict[tuple[int, int], Fraction]  # cover pair (X, Y), X ≺ Y -> m_{X,Y}

    def netflow(self, z: int) -> Fraction:
        """netflow(Z) as defined above Eq. (26)."""
        lat = self.lattice
        total = Fraction(0)
        for (x, y), value in self.c.items():
            if y == z:
                total += value
            if x == z:
                total -= value
        for (a, b), value in self.s.items():
            if lat.meet(a, b) == z:
                total += value
            if lat.join(a, b) == z:
                total += value
            if a == z or b == z:
                total -= value
        for (x, y), value in self.m.items():
            if y == z:
                total -= value
            if x == z:
                total += value
        return total

    def is_feasible(self) -> bool:
        lat = self.lattice
        if any(v < 0 for v in self.c.values()):
            return False
        if any(v < 0 for v in self.s.values()):
            return False
        if any(v < 0 for v in self.m.values()):
            return False
        for z in range(lat.n):
            if z == lat.bottom:
                continue
            required = Fraction(1) if z == lat.top else Fraction(0)
            if self.netflow(z) < required:
                return False
        return True

    def objective(self, bounds: Mapping[tuple[int, int], float]) -> Fraction:
        return sum(
            (value * Fraction(bounds[pair]).limit_denominator(10**9)
             for pair, value in self.c.items()),
            start=Fraction(0),
        )


@dataclass
class CLLPSolution:
    objective: float
    h: LatticeFunction
    dual: DualCLLP
    #: Exact optimality certificate of the primal solve, present whenever
    #: the exact backend participated (REPRO_LP_BACKEND=exact/both, or a
    #: program under the auto cutoff).
    certificate: ExactCertificate | None = None


class ConditionalLLP:
    """CLLP over a lattice with a set of degree constraints."""

    def __init__(self, lattice: Lattice, constraints: Iterable[DegreeConstraint]):
        self.lattice = lattice
        self.constraints: list[DegreeConstraint] = list(constraints)
        for dc in self.constraints:
            if not lattice.lt(dc.x, dc.y):
                raise ValueError(
                    f"degree constraint requires X < Y, got "
                    f"{lattice.label(dc.x)!r}, {lattice.label(dc.y)!r}"
                )

    @classmethod
    def from_cardinalities(
        cls,
        lattice: Lattice,
        inputs: Mapping[str, int],
        log_sizes: Mapping[str, float],
    ) -> "ConditionalLLP":
        """LLP as a CLLP: P = {(0̂, R_j)} (Prop. 5.32)."""
        constraints = [
            DegreeConstraint(lattice.bottom, r, float(log_sizes[name]), guard=name)
            for name, r in inputs.items()
        ]
        return cls(lattice, constraints)

    def with_constraint(self, constraint: DegreeConstraint) -> "ConditionalLLP":
        return ConditionalLLP(self.lattice, self.constraints + [constraint])

    # ------------------------------------------------------------------
    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [dc.pair for dc in self.constraints]

    def bounds_by_pair(self) -> dict[tuple[int, int], float]:
        """Tightest bound per pair (several constraints may share a pair)."""
        out: dict[tuple[int, int], float] = {}
        for dc in self.constraints:
            if dc.pair not in out or dc.bound < out[dc.pair]:
                out[dc.pair] = dc.bound
        return out

    def _cover_pairs(self) -> list[tuple[int, int]]:
        lat = self.lattice
        return [
            (x, y) for x in range(lat.n) for y in lat.upper_covers[x]
        ]

    def _primal_skeleton(self, degree_pairs: tuple[tuple[int, int], ...]):
        """Constraint matrix for the primal, cached per (lattice, pairs).

        Only the first ``len(degree_pairs)`` entries of ``b_ub`` depend on
        the constraint bounds; re-solves that merely tighten bounds (CSMA
        restarts) reuse the matrix and swap the ``b`` vector.
        """
        lat = self.lattice
        cache = lattice_lp_cache(lat)
        key = ("cllp-primal-skel", degree_pairs)
        skeleton = lru_get(cache, key)
        if skeleton is None:
            a_ub: list[list[float]] = []
            for x, y in degree_pairs:
                row = [0.0] * lat.n
                row[y] += 1.0
                row[x] -= 1.0
                a_ub.append(row)
            for i, j in lat.incomparable_pairs:
                row = [0.0] * lat.n
                row[lat.meet(i, j)] += 1.0
                row[lat.join(i, j)] += 1.0
                row[i] -= 1.0
                row[j] -= 1.0
                a_ub.append(row)
            for x, y in self._cover_pairs():
                row = [0.0] * lat.n
                row[x] += 1.0
                row[y] -= 1.0
                a_ub.append(row)
            costs = [0.0] * lat.n
            costs[lat.top] = -1.0
            eq_row = [0.0] * lat.n
            eq_row[lat.bottom] = 1.0
            skeleton = (
                np.ascontiguousarray(a_ub, dtype=float),
                np.zeros(len(a_ub)),
                np.ascontiguousarray(costs, dtype=float),
                np.ascontiguousarray([eq_row], dtype=float),
            )
            lp_memo_put(cache, key, skeleton)
        return skeleton

    def _solve_primal_lp(self):
        """The raw primal LPSolution (carries the exact certificate when
        the exact backend participated)."""
        bounds = self.bounds_by_pair()
        degree_pairs = tuple(bounds)
        a_ub, b_template, costs, a_eq = self._primal_skeleton(degree_pairs)
        b_ub = b_template.copy()
        b_ub[: len(degree_pairs)] = [bounds[p] for p in degree_pairs]
        return solve_lp(costs, a_ub, b_ub, a_eq=a_eq, b_eq=[0.0])

    def solve_primal(self) -> tuple[float, LatticeFunction]:
        solution = self._solve_primal_lp()
        return -solution.objective, LatticeFunction(
            self.lattice, solution.x_rational
        )

    def _dual_skeleton(self, degree_pairs: tuple[tuple[int, int], ...]):
        """Dual constraint matrix, cached per (lattice, pairs) — only the
        cost vector depends on the bounds."""
        lat = self.lattice
        cache = lattice_lp_cache(lat)
        key = ("cllp-dual-skel", degree_pairs)
        skeleton = lru_get(cache, key)
        if skeleton is None:
            incomparable = lat.incomparable_pairs
            cover_pairs = self._cover_pairs()
            n_c, n_s, n_m = (
                len(degree_pairs), len(incomparable), len(cover_pairs)
            )
            a_ub: list[list[float]] = []
            b_ub: list[float] = []
            for z in range(lat.n):
                if z == lat.bottom:
                    continue
                row = [0.0] * (n_c + n_s + n_m)
                for k, (x, y) in enumerate(degree_pairs):
                    if y == z:
                        row[k] += 1.0
                    if x == z:
                        row[k] -= 1.0
                for k, (a, b) in enumerate(incomparable):
                    if lat.meet(a, b) == z:
                        row[n_c + k] += 1.0
                    if lat.join(a, b) == z:
                        row[n_c + k] += 1.0
                    if a == z or b == z:
                        row[n_c + k] -= 1.0
                for k, (x, y) in enumerate(cover_pairs):
                    if y == z:
                        row[n_c + n_s + k] -= 1.0
                    if x == z:
                        row[n_c + n_s + k] += 1.0
                target = 1.0 if z == lat.top else 0.0
                a_ub.append([-v for v in row])
                b_ub.append(-target)
            skeleton = (
                np.ascontiguousarray(a_ub, dtype=float),
                np.ascontiguousarray(b_ub, dtype=float),
                incomparable,
                cover_pairs,
            )
            lp_memo_put(cache, key, skeleton)
        return skeleton

    def solve_dual(self) -> DualCLLP:
        """Explicit dual (Eq. (26)): min Σ n_{Y|X} c_{Y|X} s.t. netflows."""
        lat = self.lattice
        bounds = self.bounds_by_pair()
        degree_pairs = list(bounds)
        a_ub, b_ub, incomparable, cover_pairs = self._dual_skeleton(
            tuple(degree_pairs)
        )
        n_c, n_s, n_m = len(degree_pairs), len(incomparable), len(cover_pairs)
        costs = (
            [bounds[p] for p in degree_pairs] + [0.0] * n_s + [0.0] * n_m
        )
        solution = solve_lp(costs, a_ub, b_ub)
        c = {
            degree_pairs[k]: solution.x_rational[k]
            for k in range(n_c)
            if solution.x_rational[k] != 0
        }
        s = {
            incomparable[k]: solution.x_rational[n_c + k]
            for k in range(n_s)
            if solution.x_rational[n_c + k] != 0
        }
        m = {
            cover_pairs[k]: solution.x_rational[n_c + n_s + k]
            for k in range(n_m)
            if solution.x_rational[n_c + n_s + k] != 0
        }
        dual = DualCLLP(lat, c, s, m)
        if not dual.is_feasible():
            raise RuntimeError("CLLP dual certificate failed exact verification")
        return dual

    def solve(self) -> CLLPSolution:
        """Solve primal + dual, memoized on the canonical constraint
        multiset.

        CSMA restarts, per-branch re-solves and the planner's repeated
        bound queries frequently rebuild :class:`ConditionalLLP` objects
        with identical effective constraints; keying on the canonicalized
        (pair → tightest bound) map makes those hit the cache instead of
        rebuilding and re-solving the scipy LP.  Solutions are treated as
        immutable by all consumers.
        """
        cache = lattice_lp_cache(self.lattice)
        key = _solution_cache_key(
            "cllp-solve", tuple(sorted(self.bounds_by_pair().items()))
        )
        cached = lru_get(cache, key)
        if cached is None:
            primal = self._solve_primal_lp()
            dual = self.solve_dual()
            cached = CLLPSolution(
                objective=-primal.objective,
                h=LatticeFunction(self.lattice, primal.x_rational),
                dual=dual,
                certificate=primal.certificate,
            )
            lp_memo_put(cache, key, cached)
        return cached

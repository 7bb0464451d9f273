"""The Lattice Linear Program (LLP, Eq. (5)) and its dual (Eq. (8)).

``max h(1̂)`` over non-negative L-submodular h with cardinality constraints
``h(R_j) <= n_j``.  Proposition 3.4: the optimum equals the GLVV bound
``log2 GLVV(Q, FD, (N_j))``.  The dual's (w, s) is a *certificate*: an
output inequality Σ w_j h(R_j) >= h(1̂) together with the submodularity
steps proving it (Lemma 3.9); certificates are rationalized and re-verified
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from repro.lattice.lattice import Lattice
from repro.lattice.polymatroid import LatticeFunction
from repro.lp.cllp import _solution_cache_key, lattice_lp_cache, lp_memo_put
from repro.lp.exact import ExactCertificate
from repro.lp.solver import solve_lp
from repro.util.lru import lru_get
from repro.util.rational import rationalize


@dataclass
class OutputInequality:
    """Σ_j w_j h(R_j) >= h(1̂), with the submodularity multipliers s proving it.

    ``weights`` maps input name -> w_j; ``steps`` maps incomparable index
    pairs (i, j) -> s_{i,j} (Lemma 3.9 item iii).
    """

    lattice: Lattice
    inputs: dict[str, int]
    weights: dict[str, Fraction]
    steps: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def bound(self, log_sizes: Mapping[str, float]) -> float:
        """The induced output-size bound Σ w_j n_j (in log2)."""
        return sum(float(w) * float(log_sizes[name]) for name, w in self.weights.items())

    def verify_on(self, h: LatticeFunction) -> bool:
        """Check the inequality on one concrete (sub)modular function."""
        lhs = sum(
            (w * h.values[self.inputs[name]] for name, w in self.weights.items()),
            start=Fraction(0),
        )
        return lhs >= h.values[self.lattice.top]

    def verify_certificate(self) -> bool:
        """Exactly check c^T <= s^T M (Lemma 3.9 iii): for every element Z,
        the multipliers' net contribution at Z dominates c_Z
        (c_1̂ = 1, c_{R_j} = -w_j, else 0)."""
        lat = self.lattice
        net = [Fraction(0)] * lat.n
        for (i, j), s in self.steps.items():
            if s < 0:
                return False
            net[lat.meet(i, j)] += s
            net[lat.join(i, j)] += s
            net[i] -= s
            net[j] -= s
        target = [Fraction(0)] * lat.n
        target[lat.top] += Fraction(1)
        for name, w in self.weights.items():
            if w < 0:
                return False
            target[self.inputs[name]] -= w
        # Need target <= net on every coordinate except 0̂ (h(0̂) = 0).
        return all(
            target[z] <= net[z] for z in range(lat.n) if z != lat.bottom
        )


@dataclass
class LLPSolution:
    """Primal/dual optimal pair for one LLP instance."""

    objective: float
    h: LatticeFunction            # optimal polymatroid (Lovász-monotonized)
    h_raw: LatticeFunction        # raw optimal submodular function
    inequality: OutputInequality  # dual certificate (w*, s*)
    #: Exact optimality certificate of the primal solve, when the exact
    #: backend participated.
    certificate: ExactCertificate | None = None

    @property
    def glvv_log2(self) -> float:
        """log2 of the GLVV bound (Prop. 3.4)."""
        return self.objective


class LatticeLinearProgram:
    """LLP for a query in lattice presentation (L, R) with log-cardinalities."""

    def __init__(
        self,
        lattice: Lattice,
        inputs: Mapping[str, int],
        log_sizes: Mapping[str, float],
    ):
        self.lattice = lattice
        self.inputs = dict(inputs)
        self.log_sizes = {name: float(v) for name, v in log_sizes.items()}
        missing = set(self.inputs) - set(self.log_sizes)
        if missing:
            raise ValueError(f"no cardinality for inputs: {missing}")
        if lattice.join_all(self.inputs.values()) != lattice.top:
            raise ValueError("inputs must join to 1̂ (Sec. 3.1)")
        # Canonical instance key for the per-lattice LP memo: the planner
        # and the benchmark sweeps re-solve identical LLPs many times.
        self._memo_key = tuple(
            sorted(
                (name, element, self.log_sizes[name])
                for name, element in self.inputs.items()
            )
        )

    # ------------------------------------------------------------------
    def _submodularity_rows(self) -> tuple[list[list[float]], list[float]]:
        lat = self.lattice
        a_ub: list[list[float]] = []
        for i, j in lat.incomparable_pairs:
            row = [0.0] * lat.n
            row[lat.meet(i, j)] += 1.0
            row[lat.join(i, j)] += 1.0
            row[i] -= 1.0
            row[j] -= 1.0
            a_ub.append(row)
        return a_ub, [0.0] * len(a_ub)

    def solve_primal(self) -> tuple[float, LatticeFunction]:
        """max h(1̂): returns (optimum, raw optimal submodular function).

        Memoized per lattice on the canonical (name, element, log-size)
        multiset — the planner's repeated bound queries hit the cache.
        """
        objective, h_raw, _ = self._solve_primal_full()
        return objective, h_raw

    def _solve_primal_full(self) -> tuple[float, LatticeFunction, "ExactCertificate | None"]:
        cache = lattice_lp_cache(self.lattice)
        key = _solution_cache_key("llp-primal", self._memo_key)
        cached = lru_get(cache, key)
        if cached is not None:
            return cached
        lat = self.lattice
        costs = [0.0] * lat.n
        costs[lat.top] = -1.0  # maximize h(1̂)
        a_ub, b_ub = self._submodularity_rows()
        for name, r in self.inputs.items():
            row = [0.0] * lat.n
            row[r] = 1.0
            a_ub.append(row)
            b_ub.append(self.log_sizes[name])
        eq_row = [0.0] * lat.n
        eq_row[lat.bottom] = 1.0
        solution = solve_lp(costs, a_ub, b_ub, a_eq=[eq_row], b_eq=[0.0])
        h_raw = LatticeFunction(lat, solution.x_rational)
        result = (-solution.objective, h_raw, solution.certificate)
        lp_memo_put(cache, key, result)
        return result

    def solve_dual(self) -> OutputInequality:
        """min Σ w_j n_j over dual-feasible (w, s) (Eq. (8) generalized to a
        netflow constraint at every element, cf. Eq. (26) without m)."""
        lat = self.lattice
        pairs = lat.incomparable_pairs
        names = list(self.inputs)
        n_s = len(pairs)
        n_w = len(names)
        costs = [0.0] * n_s + [self.log_sizes[name] for name in names]
        # One >= constraint per element Z != 0̂:  net(Z) >= c_Z.
        a_ub: list[list[float]] = []
        b_ub: list[float] = []
        for z in range(lat.n):
            if z == lat.bottom:
                continue
            row = [0.0] * (n_s + n_w)
            for k, (i, j) in enumerate(pairs):
                if lat.meet(i, j) == z:
                    row[k] += 1.0
                if lat.join(i, j) == z:
                    row[k] += 1.0
                if i == z or j == z:
                    row[k] -= 1.0
            for k, name in enumerate(names):
                if self.inputs[name] == z:
                    row[n_s + k] += 1.0
            target = 1.0 if z == lat.top else 0.0
            # net(Z) >= target   <=>   -net(Z) <= -target
            a_ub.append([-v for v in row])
            b_ub.append(-target)
        solution = solve_lp(costs, a_ub, b_ub)
        steps = {
            pairs[k]: solution.x_rational[k]
            for k in range(n_s)
            if solution.x_rational[k] != 0
        }
        weights = {
            name: solution.x_rational[n_s + k] for k, name in enumerate(names)
        }
        inequality = OutputInequality(lat, self.inputs, weights, steps)
        if not inequality.verify_certificate():
            # Retry rationalization with exact float fractions as fallback.
            steps = {
                pairs[k]: Fraction(float(solution.x[k])).limit_denominator(10**6)
                for k in range(n_s)
                if abs(solution.x[k]) > 1e-9
            }
            weights = {
                name: Fraction(float(solution.x[n_s + k])).limit_denominator(10**6)
                for k, name in enumerate(names)
            }
            inequality = OutputInequality(lat, self.inputs, weights, steps)
            if not inequality.verify_certificate():
                raise RuntimeError("dual certificate failed exact verification")
        return inequality

    def solve(self) -> LLPSolution:
        """Primal + verified dual certificate, memoized per lattice.

        Consumers treat :class:`LLPSolution` as immutable, so the cached
        object is shared across the planner, SMA setup and the generators.
        """
        cache = lattice_lp_cache(self.lattice)
        key = _solution_cache_key("llp-solve", self._memo_key)
        cached = lru_get(cache, key)
        if cached is None:
            objective, h_raw, certificate = self._solve_primal_full()
            inequality = self.solve_dual()
            h = h_raw.lovasz_monotonization()
            cached = LLPSolution(
                objective=objective,
                h=h,
                h_raw=h_raw,
                inequality=inequality,
                certificate=certificate,
            )
            lp_memo_put(cache, key, cached)
        return cached


def glvv_bound_log2(
    lattice: Lattice,
    inputs: Mapping[str, int],
    log_sizes: Mapping[str, float],
) -> float:
    """Convenience: the GLVV bound (Prop. 3.4) in log2."""
    program = LatticeLinearProgram(lattice, inputs, log_sizes)
    objective, _ = program.solve_primal()
    return objective

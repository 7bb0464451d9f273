"""Exact rational LP kernel: Fraction simplex with dual certificates.

Every bound in this reproduction — CLLP, LLP, fractional edge covers, the
chain bounds — is the value of a tiny LP whose data are exact rationals
(floats are binary rationals, and the polytopes have data-independent
rational vertices, footnote 10 of the paper).  This module solves those
programs *exactly* over :class:`fractions.Fraction`, with no dependency on
scipy or numpy, under the package-wide convention of
:mod:`repro.lp.solver`::

    minimize c @ x   s.t.   A_ub x <= b_ub,  A_eq x == b_eq,  x >= 0.

Two engines share one program representation:

* :func:`solve_exact_lp` — two-phase primal simplex (slack-basis start,
  Dantzig pivoting with a deterministic Bland fallback for guaranteed
  termination) followed by **canonical-vertex selection**: the returned
  primal is the lexicographically minimal point of the optimal face
  (minimize ``x_0``, then ``x_1``, … over the face — a vertex, and a
  function of the *program*, not of pivoting history), and the dual
  certificate is canonicalized the same way (read off the final basis
  when the vertex is non-degenerate — the dual is then unique — and
  otherwise selected as the lex-min vertex of the explicit dual
  program).  Degenerate programs therefore have *one* well-defined
  exact solution: any two solves of the same program, here or in any
  faithful reimplementation of the rule, return the same rational
  vertex.  The result is an :class:`ExactCertificate` holding the
  canonical primal vertex, the canonical dual vector, and the exact
  optimality proof (primal-feasible + dual-feasible + zero duality
  gap), re-verified in exact arithmetic before it is returned;
* :func:`enumerate_standard_vertices` / :func:`enumerate_vertices` —
  basis/vertex enumeration for the small covering polytopes (the
  normality test's ``edge_cover_vertices`` and the property tests'
  cross-check of the simplex).

Dual sign convention (matches ``solver.LPSolution``): ``y_ub[i]`` is the
*non-negative* weight of the i-th ``<=`` row (the negated scipy/HiGHS
marginal), ``y_eq[i]`` the negated marginal of the i-th ``==`` row, so

    c @ x*  ==  -(b_ub @ y_ub) - (b_eq @ y_eq)

at the optimum and ``-A_ub^T y_ub - A_eq^T y_eq <= c`` is dual
feasibility.  ``tests/test_lp_exact.py`` pins this convention against a
hand-solved program and differentially against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.engine.cancellation import checkpoint


class LPError(RuntimeError):
    """Raised when an LP is infeasible/unbounded or the solver fails."""


class LPInfeasibleError(LPError):
    """The constraint system admits no feasible point."""


class LPUnboundedError(LPError):
    """The objective is unbounded below over the feasible region."""


Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def _mat(rows: Iterable[Sequence]) -> Matrix:
    return tuple(_vec(row) for row in rows)


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((u * v for u, v in zip(a, b) if u and v), start=Fraction(0))


@dataclass(frozen=True)
class ExactLP:
    """One minimization program with exact rational data."""

    costs: Vector
    a_ub: Matrix
    b_ub: Vector
    a_eq: Matrix
    b_eq: Vector

    @classmethod
    def from_data(
        cls,
        costs: Sequence,
        a_ub: Iterable[Sequence] | None = None,
        b_ub: Sequence | None = None,
        a_eq: Iterable[Sequence] | None = None,
        b_eq: Sequence | None = None,
    ) -> "ExactLP":
        program = cls(
            costs=_vec(costs),
            a_ub=_mat(a_ub) if a_ub is not None else (),
            b_ub=_vec(b_ub) if b_ub is not None else (),
            a_eq=_mat(a_eq) if a_eq is not None else (),
            b_eq=_vec(b_eq) if b_eq is not None else (),
        )
        n = len(program.costs)
        for row in program.a_ub + program.a_eq:
            if len(row) != n:
                raise ValueError("constraint row width != number of variables")
        if len(program.a_ub) != len(program.b_ub):
            raise ValueError("A_ub / b_ub length mismatch")
        if len(program.a_eq) != len(program.b_eq):
            raise ValueError("A_eq / b_eq length mismatch")
        return program

    @property
    def n_vars(self) -> int:
        return len(self.costs)

    @property
    def n_rows(self) -> int:
        return len(self.a_ub) + len(self.a_eq)


@dataclass(frozen=True)
class ExactCertificate:
    """Primal vertex + dual vector + the exact optimality proof.

    ``verify()`` re-checks the three ingredients of LP optimality in exact
    arithmetic; a certificate that verifies *is* a proof that ``objective``
    is the optimum of ``program`` — no trust in the pivoting (or in any
    floating-point solver) is required.
    """

    program: ExactLP
    x: Vector
    y_ub: Vector
    y_eq: Vector
    objective: Fraction

    def primal_feasible(self) -> bool:
        prog = self.program
        if any(v < 0 for v in self.x):
            return False
        for row, bound in zip(prog.a_ub, prog.b_ub):
            if _dot(row, self.x) > bound:
                return False
        for row, bound in zip(prog.a_eq, prog.b_eq):
            if _dot(row, self.x) != bound:
                return False
        return True

    def dual_feasible(self) -> bool:
        prog = self.program
        if any(v < 0 for v in self.y_ub):
            return False
        for j in range(prog.n_vars):
            pulled = sum(
                (-row[j] * y for row, y in zip(prog.a_ub, self.y_ub) if row[j] and y),
                start=Fraction(0),
            )
            pulled += sum(
                (-row[j] * y for row, y in zip(prog.a_eq, self.y_eq) if row[j] and y),
                start=Fraction(0),
            )
            if pulled > prog.costs[j]:
                return False
        return True

    def dual_objective(self) -> Fraction:
        return -_dot(self.program.b_ub, self.y_ub) - _dot(
            self.program.b_eq, self.y_eq
        )

    def duality_gap(self) -> Fraction:
        return _dot(self.program.costs, self.x) - self.dual_objective()

    def verify(self) -> bool:
        return (
            self.primal_feasible()
            and self.dual_feasible()
            and _dot(self.program.costs, self.x) == self.objective
            and self.duality_gap() == 0
        )


# ----------------------------------------------------------------------
# Two-phase simplex over Fractions
# ----------------------------------------------------------------------

#: Degenerate (no-progress) pivots tolerated under Dantzig's rule before
#: switching to Bland's rule, which cannot cycle.
_DEGENERATE_PIVOT_SLACK = 64


class _Tableau:
    """Sparse-row simplex tableau for the standard form ``M z = b, z >= 0``.

    Columns: the n structural variables, one slack per ``<=`` row, then one
    artificial per row that needed one (rows are sign-normalized to
    ``b >= 0`` first).  The artificial *columns* are kept after phase 1 —
    barred from re-entering — because the dual vector is read off them:
    the artificial for row i is the i-th unit column, so ``c_B B^{-1} e_i``
    is one dot product against it.

    Rows are stored as ``{column: Fraction}`` dicts of their *nonzeros*
    (the right-hand sides live in the parallel ``rhs`` list), and every
    operation — pivoting, pricing, ratio tests, dual extraction — walks
    nonzeros only.  The lattice programs this solves are naturally sparse
    (a CLLP row touches two or three lattice elements out of dozens), so
    the dense formulation paid for a quadratic tableau of exact-Fraction
    zeros; the sparse one cuts the big-lattice no-scipy solves without
    moving a single pivot: entering/leaving choices iterate columns in the
    same order as the dense code, so the pivot trajectory — and therefore
    every certificate — is unchanged.
    """

    def __init__(self, program: ExactLP):
        n = program.n_vars
        ub_rows = [
            (row, rhs, "ub") for row, rhs in zip(program.a_ub, program.b_ub)
        ]
        eq_rows = [
            (row, rhs, "eq") for row, rhs in zip(program.a_eq, program.b_eq)
        ]
        all_rows = ub_rows + eq_rows
        m = len(all_rows)
        n_slack = len(ub_rows)
        self.n = n
        self.m = m
        self.flip: list[int] = []
        # Column layout: x | slacks | artificials (allocated lazily).
        width = n + n_slack
        rows: list[dict[int, Fraction]] = []
        rhs_col: list[Fraction] = []
        basis: list[int] = []
        art_cols: list[int | None] = []
        needs_art: list[int] = []
        for i, (coeffs, rhs, kind) in enumerate(all_rows):
            sigma = -1 if rhs < 0 else 1
            self.flip.append(sigma)
            row = {j: sigma * c for j, c in enumerate(coeffs) if c}
            if kind == "ub":
                row[n + i] = Fraction(sigma)
            rows.append(row)
            rhs_col.append(sigma * rhs)
            if kind == "ub" and sigma == 1:
                basis.append(n + i)  # slack basis, no artificial needed
                art_cols.append(None)
            else:
                basis.append(-1)  # placeholder, artificial assigned below
                art_cols.append(-1)
                needs_art.append(i)
        for k, i in enumerate(needs_art):
            col = width + k
            art_cols[i] = col
            basis[i] = col
            rows[i][col] = Fraction(1)
        self.rows = rows
        self.rhs = rhs_col
        self.basis = basis
        self.art_cols = art_cols
        self.n_real = width  # structural + slack columns
        self.n_cols = width + len(needs_art)
        self.alive = [True] * m  # redundant rows get retired after phase 1

    # -- pivoting ------------------------------------------------------
    def pivot(self, row: int, col: int) -> None:
        rows = self.rows
        rhs = self.rhs
        pivot_row = rows[row]
        inv = 1 / pivot_row[col]
        if inv != 1:
            rows[row] = pivot_row = {j: v * inv for j, v in pivot_row.items()}
            rhs[row] *= inv
        pivot_rhs = rhs[row]
        pivot_items = list(pivot_row.items())
        for i, other in enumerate(rows):
            if i == row or not self.alive[i]:
                continue
            factor = other.get(col)
            if factor:
                merged = dict(other)
                for j, p in pivot_items:
                    v = merged.get(j)
                    v = -factor * p if v is None else v - factor * p
                    if v:
                        merged[j] = v
                    else:
                        merged.pop(j, None)
                rows[i] = merged
                rhs[i] -= factor * pivot_rhs
        self.basis[row] = col

    def _reduced_costs(self, costs: list[Fraction], allowed: range | list[int]):
        """Yield (column, reduced cost) over non-basic allowed columns.

        One sparse pass accumulates ``c_B B^{-1} A`` over the basic rows'
        nonzeros; yielding then walks ``allowed`` in order, so entering
        choices (Dantzig ties, Bland's first-negative) match the dense
        formulation pivot for pivot.
        """
        pulled: dict[int, Fraction] = {}
        for i in range(self.m):
            if not self.alive[i]:
                continue
            cb = costs[self.basis[i]]
            if cb:
                for j, v in self.rows[i].items():
                    acc = pulled.get(j)
                    pulled[j] = cb * v if acc is None else acc + cb * v
        in_basis = set(self.basis[i] for i in range(self.m) if self.alive[i])
        zero = Fraction(0)
        for j in allowed:
            if j in in_basis:
                continue
            yield j, costs[j] - pulled.get(j, zero)

    def _ratio_leave(self, col: int) -> int | None:
        best_ratio: Fraction | None = None
        leave = None
        for i in range(self.m):
            if not self.alive[i]:
                continue
            a = self.rows[i].get(col)
            if a is not None and a > 0:
                ratio = self.rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        return leave

    def run(self, costs: list[Fraction], allowed) -> Fraction:
        """Minimize ``costs`` over the current basis; returns the optimum.

        Dantzig's rule (most negative reduced cost, lowest column on ties)
        until the degenerate-pivot budget is spent, then Bland's rule
        (first negative column, guaranteed finite).
        """
        last_objective: Fraction | None = None
        stalled = 0
        bland = False
        while True:
            checkpoint()  # a query's deadline can stop a cold solve
            entering = None
            if bland:
                for j, r in self._reduced_costs(costs, allowed):
                    if r < 0:
                        entering = j
                        break
            else:
                best = Fraction(0)
                for j, r in self._reduced_costs(costs, allowed):
                    if r < best:
                        best = r
                        entering = j
            if entering is None:
                return self.objective(costs)
            leave = self._ratio_leave(entering)
            if leave is None:
                raise LPUnboundedError("LP failed: objective unbounded below")
            self.pivot(leave, entering)
            if not bland:
                objective = self.objective(costs)
                if last_objective is not None and objective == last_objective:
                    stalled += 1
                    if stalled > _DEGENERATE_PIVOT_SLACK:
                        bland = True
                else:
                    stalled = 0
                last_objective = objective

    def objective(self, costs: list[Fraction]) -> Fraction:
        return sum(
            (
                costs[self.basis[i]] * self.rhs[i]
                for i in range(self.m)
                if self.alive[i] and costs[self.basis[i]]
            ),
            start=Fraction(0),
        )

    # -- canonical-vertex selection -----------------------------------
    def optimal_face(self, costs: list[Fraction], allowed) -> list[int]:
        """Columns spanning the optimal face of ``costs`` at this basis.

        The face is the set of feasible points supported on the basic
        columns plus the allowed non-basic columns with zero reduced
        cost; any pivot confined to these columns stays optimal.
        """
        keep = {self.basis[i] for i in range(self.m) if self.alive[i]}
        for j, r in self._reduced_costs(costs, allowed):
            if r == 0:
                keep.add(j)
        return sorted(keep)

    def canonicalize(self, costs: list[Fraction]) -> None:
        """Pivot to the lexicographically minimal vertex of the optimal face.

        Must be called at a ``costs``-optimal basis.  Minimizes ``x_0``
        over the face, then ``x_1`` over the shrunken face, and so on —
        the classic lexicographic refinement, which lands on a vertex
        that depends only on the *program* (the face is determined by
        the program, and each stage's minimum is unique given the
        earlier pins), never on pivoting history.  Two shortcuts keep
        this cheap: a structural column that is *non-basic* on the
        current face already sits at its face-minimum of zero, so
        pinning it is just barring the column (no simplex run); and the
        sweep stops as soon as every face column is basic (the face has
        collapsed to a single vertex).  Only basic structural columns —
        at most ``m`` of them — pay a (unit-cost, hence never
        unbounded) simplex run.
        """
        allowed = self.optimal_face(costs, range(self.n_real))
        for k in range(self.n):
            in_basis = {self.basis[i] for i in range(self.m) if self.alive[i]}
            if all(j in in_basis for j in allowed):
                break  # no non-basic face direction left: a single vertex
            if k not in allowed:
                continue  # x_k == 0 everywhere on the face already
            if k not in in_basis:
                allowed.remove(k)  # pin x_k at its face-minimum, zero
                continue
            unit = [Fraction(0)] * self.n_cols
            unit[k] = Fraction(1)
            self.run(unit, allowed)
            allowed = self.optimal_face(unit, allowed)

    def vertex_is_nondegenerate(self) -> bool:
        """True when every basic variable is strictly positive and no row
        was retired as redundant — the final basis is then the *unique*
        basis of its vertex and the dual vector read off it is the unique
        dual optimum (no canonicalization needed)."""
        return all(self.alive) and all(v > 0 for v in self.rhs)

    # -- phase transitions --------------------------------------------
    def drive_out_artificials(self) -> None:
        """Pivot basic artificials out; retire rows that prove redundant."""
        for i in range(self.m):
            if not self.alive[i] or self.basis[i] < self.n_real:
                continue
            # Lowest real column with a nonzero — the same column the
            # dense left-to-right scan picked.
            pivot_col = min(
                (j for j in self.rows[i] if j < self.n_real), default=None
            )
            if pivot_col is None:
                # Row is 0 = 0 over the real columns: redundant.
                self.alive[i] = False
            else:
                self.pivot(i, pivot_col)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i in range(self.m):
            if self.alive[i] and self.basis[i] < self.n:
                x[self.basis[i]] = self.rhs[i]
        return x

    def duals(self, costs: list[Fraction]) -> list[Fraction]:
        """``y = c_B B^{-1}`` per original row (0 for retired rows),
        expressed against the *pre-flip* row orientation."""
        cb = [
            (costs[self.basis[i]], self.rows[i])
            for i in range(self.m)
            if self.alive[i] and costs[self.basis[i]]
        ]
        zero = Fraction(0)
        y: list[Fraction] = []
        for i in range(self.m):
            col = self.art_cols[i]
            if not self.alive[i]:
                y.append(zero)
            else:
                if col is None:
                    # Slack-basis row: B^{-1} e_i is the slack column (the
                    # slack's coefficient was +1, the row was never
                    # flipped).
                    col = self.n + i
                y.append(
                    sum(
                        (c * row[col] for c, row in cb if row.get(col)),
                        start=zero,
                    )
                )
            y[-1] *= self.flip[i]
        return y


def _optimal_tableau(program: ExactLP) -> tuple[_Tableau, list[Fraction]]:
    """Phase 1 + phase 2 + canonicalization; returns (tableau, phase-2 costs).

    The tableau sits at the lexicographically minimal vertex of the
    optimal face when this returns.
    """
    tableau = _Tableau(program)
    # Phase 1: minimize the artificials (skipped when the slack basis is
    # already feasible, i.e. every artificial starts at rhs 0).
    if tableau.n_cols > tableau.n_real:
        phase1 = [Fraction(0)] * tableau.n_real + [Fraction(1)] * (
            tableau.n_cols - tableau.n_real
        )
        if tableau.objective(phase1) != 0:
            if tableau.run(phase1, range(tableau.n_cols)) != 0:
                raise LPInfeasibleError("LP failed: constraints infeasible")
        tableau.drive_out_artificials()
    # Phase 2: the real objective over structural + slack columns.
    phase2 = list(program.costs) + [Fraction(0)] * (tableau.n_cols - program.n_vars)
    tableau.run(phase2, range(tableau.n_real))
    tableau.canonicalize(phase2)
    return tableau, phase2


def _canonical_dual(program: ExactLP) -> tuple[Vector, Vector]:
    """Lex-min optimal dual vector of ``program``, in package convention.

    Builds the explicit dual as a primal program over non-negative
    variables ``u`` (the ``<=``-row weights), ``p`` and ``q`` (the
    ``==``-row weights split as ``y_eq = p - q``)::

        minimize  b_ub @ u + b_eq @ p - b_eq @ q
        s.t.      -A_ub^T u - A_eq^T (p - q) <= c,   u, p, q >= 0

    whose optimum is ``-z*`` by strong duality (feasible and bounded
    whenever the primal has an optimum, so neither phase can fail), and
    solves it with the same canonical lex-min rule.  Only needed when
    the primal vertex is degenerate — a non-degenerate optimal basis
    has a unique dual, which :meth:`_Tableau.duals` already reads off.
    """
    m_ub = len(program.a_ub)
    m_eq = len(program.a_eq)
    costs = list(program.b_ub) + list(program.b_eq) + [-v for v in program.b_eq]
    a_ub = []
    for j in range(program.n_vars):
        row = [-rw[j] for rw in program.a_ub]
        row += [-rw[j] for rw in program.a_eq]
        row += [rw[j] for rw in program.a_eq]
        a_ub.append(row)
    dual_program = ExactLP.from_data(costs, a_ub, program.costs)
    tableau, _ = _optimal_tableau(dual_program)
    w = tableau.solution()
    y_ub = tuple(w[:m_ub])
    y_eq = tuple(w[m_ub + i] - w[m_ub + m_eq + i] for i in range(m_eq))
    return y_ub, y_eq


def solve_exact_lp(
    costs: Sequence,
    a_ub: Iterable[Sequence] | None = None,
    b_ub: Sequence | None = None,
    a_eq: Iterable[Sequence] | None = None,
    b_eq: Sequence | None = None,
) -> ExactCertificate:
    """Minimize ``costs @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``,
    ``x >= 0`` — exactly, returning the *canonical* solution.

    Both the primal vertex and the dual vector are the lex-min points of
    their optimal faces (see the module docstring), so any two solves of
    the same program return identical certificates.

    Returns an :class:`ExactCertificate` whose ``verify()`` already passed;
    raises :class:`LPInfeasibleError` / :class:`LPUnboundedError` otherwise.
    """
    program = ExactLP.from_data(costs, a_ub, b_ub, a_eq, b_eq)
    n = program.n_vars
    if program.n_rows == 0:
        if any(c < 0 for c in program.costs):
            raise LPUnboundedError("LP failed: objective unbounded below")
        # The origin is the lex-min point of the optimal face {x >= 0,
        # x_j > 0 only where c_j == 0}: canonical by construction.
        zero = tuple([Fraction(0)] * n)
        return ExactCertificate(program, zero, (), (), Fraction(0))

    tableau, phase2 = _optimal_tableau(program)
    x = tableau.solution()
    if tableau.vertex_is_nondegenerate():
        # Unique dual: read it off the final basis.
        y = tableau.duals(phase2)
        n_ub = len(program.a_ub)
        # Package convention: negate the raw marginals (module docstring).
        y_ub = tuple(-v for v in y[:n_ub])
        y_eq = tuple(-v for v in y[n_ub:])
    else:
        # Degenerate vertex: the dual face may have several vertices, so
        # pick its lex-min via the explicit dual program.
        y_ub, y_eq = _canonical_dual(program)
    certificate = ExactCertificate(
        program=program,
        x=tuple(x),
        y_ub=y_ub,
        y_eq=y_eq,
        objective=_dot(program.costs, x),
    )
    if not certificate.verify():  # pragma: no cover - internal invariant
        raise LPError("exact simplex produced an unverifiable certificate")
    return certificate


# ----------------------------------------------------------------------
# Basis / vertex enumeration
# ----------------------------------------------------------------------

def enumerate_vertices(
    a_ub: Iterable[Sequence],
    b_ub: Sequence,
    nonnegative: bool = True,
    max_dimension: int = 12,
) -> list[Vector]:
    """All vertices of ``{x | A x <= b (, x >= 0)}``, exactly.

    Depth-first over tight-constraint subsets with *incremental* Gaussian
    elimination: a partial subset whose rows are already dependent is
    pruned with its entire subtree, which beats the flat
    ``itertools.combinations`` scan of :mod:`repro.util.rational` on the
    covering polytopes (many parallel box rows).  Intended for the same
    small polytopes; raises ``ValueError`` beyond ``max_dimension``.
    """
    rows = [_vec(r) for r in a_ub]
    rhs = [Fraction(b) for b in b_ub]
    if not rows:
        return []
    n = len(rows[0])
    if n > max_dimension:
        raise ValueError(
            f"vertex enumeration limited to dimension {max_dimension}, got {n}"
        )
    constraints: list[tuple[Vector, Fraction]] = list(zip(rows, rhs))
    if nonnegative:
        for i in range(n):
            row = [Fraction(0)] * n
            row[i] = Fraction(-1)
            constraints.append((tuple(row), Fraction(0)))
    total = len(constraints)

    vertices: list[Vector] = []
    seen: set[Vector] = set()

    def feasible(point: Sequence[Fraction]) -> bool:
        return all(_dot(row, point) <= bound for row, bound in constraints)

    # Each stack frame carries the reduced echelon system of the chosen
    # tight rows: (next constraint index, [(pivot col, row, rhs), ...]).
    def extend(start: int, system: list[tuple[int, Vector, Fraction]]) -> None:
        if len(system) == n:
            x = [Fraction(0)] * n
            for col, _, value in system:
                x[col] = value
            key = tuple(x)
            if key not in seen and feasible(x):
                seen.add(key)
                vertices.append(key)
            return
        need = n - len(system)
        for idx in range(start, total - need + 1):
            row, bound = constraints[idx]
            # Reduce the new row against the current echelon system.
            work = list(row)
            value = bound
            for col, prow, pval in system:
                factor = work[col]
                if factor:
                    work = [w - factor * p for w, p in zip(work, prow)]
                    value -= factor * pval
            pivot = next((j for j, w in enumerate(work) if w), None)
            if pivot is None:
                continue  # dependent on the chosen rows: prune subtree
            inv = 1 / work[pivot]
            work = [w * inv for w in work]
            value *= inv
            # Back-substitute into the existing rows to keep them reduced.
            reduced = []
            for col, prow, pval in system:
                factor = prow[pivot]
                if factor:
                    prow = tuple(p - factor * w for p, w in zip(prow, work))
                    pval -= factor * value
                reduced.append((col, prow, pval))
            reduced.append((pivot, tuple(work), value))
            extend(idx + 1, reduced)

    extend(0, [])
    return vertices


def cross_check_vertices(
    a_ub: Iterable[Sequence],
    b_ub: Sequence,
    nonnegative: bool = True,
    max_dimension: int = 12,
) -> list[Vector]:
    """The flat reference enumerator (kept as the executable spec).

    Delegates to :func:`repro.util.rational.enumerate_polytope_vertices`;
    ``tests/test_lp_exact.py`` asserts its vertex set equals
    :func:`enumerate_vertices` on every generated polytope.
    """
    from repro.util.rational import enumerate_polytope_vertices

    return [
        tuple(v)
        for v in enumerate_polytope_vertices(
            a_ub, b_ub, nonnegative=nonnegative, max_dimension=max_dimension
        )
    ]


def minimize_by_enumeration(
    costs: Sequence,
    a_ub: Iterable[Sequence],
    b_ub: Sequence,
    max_dimension: int = 12,
) -> tuple[Fraction, Vector]:
    """Optimal (value, vertex) by brute vertex enumeration.

    Only valid when the optimum is attained at a vertex of the
    ``x >= 0``-intersected polyhedron *and* the feasible region has at
    least one vertex — true for all the covering programs here (their
    recession cones satisfy ``c @ d >= 0``).  Used as an independent
    cross-check of the simplex in the property tests.
    """
    cost_vec = _vec(costs)
    points = enumerate_vertices(a_ub, b_ub, max_dimension=max_dimension)
    if not points:
        raise LPInfeasibleError("no vertex: infeasible (or vertex-free) region")
    best = min(points, key=lambda p: (_dot(cost_vec, p), p))
    return _dot(cost_vec, best), best

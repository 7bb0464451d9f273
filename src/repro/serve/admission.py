"""Certified admission control: reject oversized queries *with proof*.

Before a query executes, the service solves the paper's LLP for the
query's lattice presentation (Prop. 3.4 — the GLVV bound) and compares
the certified log2 output bound against the tenant's budget.  Every
admission solve runs on the exact rational backend
(:func:`repro.lp.solver.forced_lp_backend` — scipy never participates,
so admission works identically on a no-scipy interpreter), and the
canonical-vertex rule makes the solution the unique lex-min optimum of
the program.  A rejection therefore always carries an
:class:`~repro.lp.exact.ExactCertificate` — a machine-checkable proof
that *any* engine would have been allowed to produce up to
``2**bound_log2`` tuples, i.e. the rejection is a theorem, not a
heuristic.  (The old ``REPRO_ADMIT_EXACT_MAX`` lattice-size cutoff,
which left big-lattice decisions uncertified, is gone: the sparse
Fraction simplex handles the big programs.)

The solve is memoized twice: per lattice (:mod:`repro.lp.llp`), so the
same query shape on equal cardinalities hits the LP memo, and per
(query, database) in :meth:`~repro.engine.database.Database.compiled`,
so a repeated read skips even the LP set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AdmissionRejected
from repro.lattice.builders import lattice_from_query
from repro.lp.llp import LatticeLinearProgram, LLPSolution
from repro.lp.solver import forced_lp_backend


@dataclass
class AdmissionDecision:
    """The outcome of one admission check (always returned on *admit*;
    carried inside :class:`~repro.errors.AdmissionRejected` on reject)."""

    admitted: bool
    bound_log2: float
    budget_log2: float | None
    certified: bool
    solution: LLPSolution

    @property
    def weights(self) -> dict[str, float]:
        """The dual inequality's per-atom weights (the bound's witness)."""
        return {
            name: float(w)
            for name, w in self.solution.inequality.weights.items()
        }


def certified_bound(query, db) -> tuple[float, LLPSolution, bool]:
    """The GLVV log2 output bound for ``query`` on ``db``'s cardinalities,
    always solved (and verified) on the exact backend.

    Returns ``(bound_log2, solution, certified)``; ``certified`` is kept
    for API compatibility and is ``True`` whenever the solve produced a
    verified certificate — which the forced exact backend always does.
    """
    lattice, inputs = lattice_from_query(query)

    def solve() -> tuple[float, LLPSolution, bool]:
        log_sizes = db.query_log_sizes(query)
        program = LatticeLinearProgram(lattice, inputs, log_sizes)
        with forced_lp_backend("exact"):
            solution = program.solve()
        return solution.objective, solution, solution.certificate is not None

    return db.compiled(query, "certified_bound", solve)


def admit(
    query,
    db,
    budget_log2: float | None,
    tenant: str | None = None,
) -> AdmissionDecision:
    """Admit ``query`` or raise :class:`AdmissionRejected`.

    ``budget_log2`` is the tenant's per-query output budget in log2
    tuples (``None`` = unlimited: the bound is still computed and
    reported, nothing is rejected).
    """
    bound_log2, solution, certified = certified_bound(query, db)
    decision = AdmissionDecision(
        admitted=budget_log2 is None or bound_log2 <= budget_log2,
        bound_log2=bound_log2,
        budget_log2=budget_log2,
        certified=certified,
        solution=solution,
    )
    if not decision.admitted:
        raise AdmissionRejected(
            f"certified output bound 2^{bound_log2:.3f} exceeds the "
            f"tenant budget 2^{budget_log2:.3f}",
            bound_log2=bound_log2,
            budget_log2=budget_log2,
            certificate=solution.certificate,
            tenant=tenant,
            weights=decision.weights,
        )
    return decision

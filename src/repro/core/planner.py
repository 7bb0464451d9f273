"""Strategy selection: which of the paper's algorithms fits a query best.

The decision mirrors the paper's hierarchy (Fig. 10):

* no fds                       → generic join (already worst-case optimal);
* best chain bound == GLVV     → Chain Algorithm (single log factor,
  always the case on distributive lattices / simple fds, Cor. 5.15/5.17);
* a good SM-proof exists       → SMA (single log factor, Thm. 5.28);
* otherwise                    → CSMA (polylog factor, Thm. 5.37).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.chain_algorithm import chain_algorithm
from repro.core.csma import csma
from repro.core.proofs import find_good_sm_proof
from repro.core.sma import submodularity_algorithm
from repro.engine.database import Database
from repro.engine.generic_join import generic_join
from repro.engine.relation import Relation
from repro.lattice.builders import lattice_from_query
from repro.lattice.chains import best_chain_bound
from repro.lp.llp import LatticeLinearProgram
from repro.query.query import Query


@dataclass
class PlanChoice:
    """The planner's verdict for one (query, cardinalities) pair."""

    algorithm: str            # "generic-join" | "chain" | "sma" | "csma"
    glvv_log2: float
    chain_log2: float
    reason: str


class Planner:
    """Chooses and runs the cheapest applicable strategy."""

    def __init__(self, query: Query, db: Database):
        self.query = query
        self.db = db
        self.lattice, self.inputs = lattice_from_query(query)
        self._log_sizes = db.query_log_sizes(query)
        # The verdict per tolerance and the chain it rests on live in the
        # database's per-query memo (Database.compiled), not on this
        # object: the service builds a fresh Planner per read, and those
        # reads share one chain search and one SM-proof search.  Running
        # the chosen algorithm is never memoized.

    def choose(self, tolerance: float = 1e-6) -> PlanChoice:
        return self.db.compiled(
            self.query, ("plan_choice", tolerance),
            lambda: self._choose(tolerance),
        )

    def _best_chain(self) -> tuple[float, object]:
        """``(chain_log2, chain)`` of the best chain bound, memoized."""

        def search() -> tuple[float, object]:
            chain_log2, chain, _ = best_chain_bound(
                self.lattice, self.inputs, self._log_sizes
            )
            return chain_log2, chain

        return self.db.compiled(self.query, "best_chain", search)

    def _choose(self, tolerance: float) -> PlanChoice:
        from repro.core.simple_keys import all_guarded_simple_keys

        if not self.query.fds:
            program = LatticeLinearProgram(
                self.lattice, self.inputs, self._log_sizes
            )
            glvv, _ = program.solve_primal()
            return PlanChoice(
                algorithm="generic-join",
                glvv_log2=glvv,
                chain_log2=glvv,
                reason="no fds: AGM bound applies, generic join is optimal",
            )
        if all_guarded_simple_keys(self.query):
            program = LatticeLinearProgram(
                self.lattice, self.inputs, self._log_sizes
            )
            glvv, _ = program.solve_primal()
            return PlanChoice(
                algorithm="closure-trick",
                glvv_log2=glvv,
                chain_log2=glvv,
                reason="all fds are guarded simple keys: AGM(Q+) is tight "
                "(Sec. 2) and any WCOJ on Q+ is worst-case optimal",
            )
        program = LatticeLinearProgram(self.lattice, self.inputs, self._log_sizes)
        solution = program.solve()
        glvv = solution.objective
        chain_log2, chain = self._best_chain()
        if chain is not None and chain_log2 <= glvv + tolerance:
            return PlanChoice(
                algorithm="chain",
                glvv_log2=glvv,
                chain_log2=chain_log2,
                reason="a good chain meets the GLVV bound (Thm. 5.3)",
            )
        proof = find_good_sm_proof(
            self.lattice, solution.inequality.weights, self.inputs
        )
        if proof is not None:
            return PlanChoice(
                algorithm="sma",
                glvv_log2=glvv,
                chain_log2=chain_log2,
                reason="a good SM-proof of the optimal inequality exists "
                "(Thm. 5.28)",
            )
        return PlanChoice(
            algorithm="csma",
            glvv_log2=glvv,
            chain_log2=chain_log2,
            reason="no tight chain and no good SM-proof: CSMA (Thm. 5.37)",
        )

    def run(self) -> tuple[Relation, PlanChoice, int]:
        """Run the chosen algorithm: ``(output, choice, tuples_touched)``,
        the last being the chosen engine's own work count."""
        from repro.core.simple_keys import closure_trick_join

        choice = self.choose()
        if choice.algorithm == "generic-join":
            out, stats = generic_join(self.query, self.db)
        elif choice.algorithm == "closure-trick":
            out, stats = closure_trick_join(self.query, self.db)
        elif choice.algorithm == "chain":
            _, chain = self._best_chain()
            out, stats = chain_algorithm(
                self.query, self.db, self.lattice, self.inputs, chain
            )
        elif choice.algorithm == "sma":
            out, stats = submodularity_algorithm(
                self.query, self.db, self.lattice, self.inputs
            )
        else:
            result = csma(self.query, self.db, self.lattice, self.inputs)
            out, stats = result.relation, result.stats
        return out, choice, stats.tuples_touched

"""CSMA — the Conditional Sub-Modularity Algorithm (Sec. 5.3).

CSMA meets the GLVV/CLLP bound up to a polylog factor (Thm. 5.37) and, via
the Conditional LLP, natively supports *prescribed maximum degree bounds*
(Prop. 5.32) — strictly generalizing both cardinality constraints and fds.

Pipeline (Secs. 5.3.2-5.3.3):

1. Solve the CLLP; take a feasible dual (c, s, m).
2. Build a **CSM proof sequence** of CD / CC / SM rules by the conditional
   closure procedure of Lemma 5.33 / Thm. 5.34.
3. Execute the rules on *branches*:
   - **CD** h(Y) → h(X) + h(Y|X): partition the guard T(Y) into O(log N)
     log-degree buckets (Lemma 5.35) and recurse per bucket;
   - **CC** h(X) + h(Y|X) → h(Y) and **SM** h(A) + h(B|A∧B) → h(A∨B):
     join the guards when the measured cost fits in 2^(OPT+θ); otherwise
     the branch's CLLP optimum has provably dropped (Lemma 5.36) — re-solve
     with the branch's accumulated degree constraints and restart the
     branch on the new proof sequence.
4. The union of branch T(1̂) tables, filtered exactly against the inputs,
   is the query output.

Branches partition the data, every join is complete within its branch, and
the final filter is exact, so the result equals the query answer whenever
the run completes; the stats record any safety fallbacks (none on the
paper's examples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.engine import frontier as frontier_blocks
from repro.engine.database import Database
from repro.engine.expansion_plan import tuple_getter
from repro.engine.ops import WorkCounter, memoized_join_rows
from repro.engine.relation import Relation
from repro.lattice.lattice import Lattice
from repro.lp.cllp import CLLPSolution, ConditionalLLP, DegreeConstraint, DualCLLP
from repro.query.query import Query


class CSMAError(RuntimeError):
    pass


@dataclass(frozen=True)
class CSMRule:
    """One proof rule.  CD: h(y) → h(x) + h(y|x);  CC: h(x) + h(y|x) → h(y);
    SM: h(x) + h(y | x∧y) → h(x∨y)."""

    kind: str  # "CD" | "CC" | "SM"
    x: int
    y: int

    def describe(self, lattice: Lattice) -> str:
        def show(el: int) -> str:
            label = lattice.label(el)
            if isinstance(label, frozenset):
                return "".join(sorted(map(str, label))) or "∅"
            return str(label)

        x, y = show(self.x), show(self.y)
        if self.kind == "CD":
            return f"CD: h({y}) → h({x}) + h({y}|{x})"
        if self.kind == "CC":
            return f"CC: h({x}) + h({y}|{x}) → h({y})"
        join = show(self.lattice_join(lattice))
        return f"SM: h({x}) + h({y}|{x}∧{y}) → h({join})"

    def lattice_join(self, lattice: Lattice) -> int:
        return lattice.join(self.x, self.y)


def build_csm_proof(
    lattice: Lattice, dual: DualCLLP, initial_pairs: Iterable[tuple[int, int]]
) -> list[CSMRule]:
    """The constructive proof of Theorem 5.34.

    Grow K from {0̂} by conditional closure (CC-steps along positive
    c_{Y|X}, CD-steps downward), and when stuck apply the SM-pair that
    Lemma 5.33 guarantees.  Rules are recorded forward, then pruned
    backward to those actually feeding the final h(1̂).
    """
    bottom, top = lattice.bottom, lattice.top
    k: set[int] = {bottom}
    rules: list[CSMRule] = []
    initial_pairs = set(initial_pairs)

    def close() -> None:
        changed = True
        while changed:
            changed = False
            for (x, y), value in dual.c.items():
                if value > 0 and x in k and y not in k:
                    rules.append(CSMRule("CC", x, y))
                    k.add(y)
                    changed = True
            for y in sorted(k):
                for x in range(lattice.n):
                    if x not in k and lattice.lt(x, y):
                        rules.append(CSMRule("CD", x, y))
                        k.add(x)
                        changed = True

    close()
    guard_steps = 0
    while top not in k:
        guard_steps += 1
        if guard_steps > lattice.n + 1:
            raise CSMAError("conditional closure failed to reach 1̂")
        for (a, b), value in dual.s.items():
            join = lattice.join(a, b)
            if value > 0 and a in k and b in k and join not in k:
                meet = lattice.meet(a, b)
                if meet != bottom:
                    rules.append(CSMRule("CD", meet, b))
                rules.append(CSMRule("SM", a, b))
                k.add(join)
                break
        else:
            raise CSMAError(
                "no SM pair available — dual certificate does not reach 1̂ "
                "(contradicts Lemma 5.33 for a feasible dual)"
            )
        close()
    return _prune_rules(lattice, rules, initial_pairs)


def _prune_rules(
    lattice: Lattice,
    rules: list[CSMRule],
    initial_pairs: set[tuple[int, int]],
) -> list[CSMRule]:
    """Backward slicing: keep only rules whose products feed h(1̂).

    Tracks two needs: table terms h(X) and conditional terms h(Y|X)."""
    bottom, top = lattice.bottom, lattice.top
    needed_tables: set[int] = {top}
    needed_conditionals: set[tuple[int, int]] = set()
    keep: list[bool] = [False] * len(rules)
    for idx in range(len(rules) - 1, -1, -1):
        rule = rules[idx]
        if rule.kind == "SM":
            target = lattice.join(rule.x, rule.y)
            if target in needed_tables:
                keep[idx] = True
                needed_tables.discard(target)
                needed_tables.add(rule.x)
                meet = lattice.meet(rule.x, rule.y)
                if meet == bottom:
                    needed_tables.add(rule.y)
                else:
                    needed_conditionals.add((meet, rule.y))
        elif rule.kind == "CC":
            if rule.y in needed_tables:
                keep[idx] = True
                needed_tables.discard(rule.y)
                needed_tables.add(rule.x)
                if (rule.x, rule.y) not in initial_pairs:
                    needed_conditionals.add((rule.x, rule.y))
        else:  # CD
            produces_table = rule.x in needed_tables
            produces_cond = (rule.x, rule.y) in needed_conditionals
            if produces_table or produces_cond:
                keep[idx] = True
                needed_tables.discard(rule.x)
                needed_conditionals.discard((rule.x, rule.y))
                needed_tables.add(rule.y)
    return [rule for idx, rule in enumerate(rules) if keep[idx]]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

@dataclass
class _Branch:
    """A subproblem: its guard tables and accumulated degree constraints."""

    tables: dict[int, Relation]
    degree_guards: dict[tuple[int, int], Relation]

    def clone(self) -> "_Branch":
        return _Branch(dict(self.tables), dict(self.degree_guards))

    def measured_constraints(self, lattice: Lattice) -> list[DegreeConstraint]:
        """Honest CLLP constraints from the branch's current tables."""
        constraints: list[DegreeConstraint] = []
        for element, table in self.tables.items():
            if element == lattice.bottom:
                continue
            size = max(1, len(table))
            constraints.append(
                DegreeConstraint(lattice.bottom, element, math.log2(size))
            )
        for (x, y), table in self.degree_guards.items():
            x_attrs = tuple(sorted(lattice.label(x))) if isinstance(
                lattice.label(x), frozenset
            ) else ()
            degree = max(1, table.max_degree(x_attrs))
            constraints.append(DegreeConstraint(x, y, math.log2(degree)))
        return constraints


@dataclass
class CSMAResult:
    relation: Relation
    stats: "CSMAStats"


@dataclass
class CSMAStats:
    tuples_touched: int = 0
    branches: int = 0
    restarts: int = 0
    fallbacks: int = 0
    opt_log2: float = 0.0
    budget_log2: float = 0.0
    rules: list[str] = field(default_factory=list)


def csma(
    query: Query,
    db: Database,
    lattice: Lattice,
    inputs: Mapping[str, int],
    extra_degree_constraints: Sequence[DegreeConstraint] = (),
    theta_bits: float = 4.0,
    max_restarts: int = 24,
) -> CSMAResult:
    """Run CSMA on ``query``.

    ``extra_degree_constraints`` declare known maximum degree bounds
    (Sec. 1.2); each must name a ``guard`` relation that witnesses it.
    ``theta_bits`` is the budget slack θ (Lemma 5.36): joins may cost up to
    2^(OPT + θ); larger θ means fewer restarts but looser budgets.
    """
    counter = WorkCounter()
    stats = CSMAStats()
    log_sizes = db.log_sizes()

    # Expanded inputs (closed schemas) serve as the initial guards, on
    # codes: every CD bucketing, CC/SM join and budget measurement below
    # runs on dictionary codes, and ``final_filter`` is the decode
    # boundary.
    expanded: dict[str, Relation] = {
        name: db.expand_runtime(name, counter=counter) for name in inputs
    }
    base_constraints: list[DegreeConstraint] = [
        DegreeConstraint(lattice.bottom, r, log_sizes[name], guard=name)
        for name, r in inputs.items()
    ]
    base_constraints.extend(extra_degree_constraints)

    root = _Branch(tables={}, degree_guards={})
    # T(0̂) is the unit relation {()} — the starting point of every
    # conditional composition (cardinality constraints are degree bounds
    # of the empty tuple, Sec. 5.3.1).
    root.tables[lattice.bottom] = Relation("T(0̂)", (), [()])
    for name, r in inputs.items():
        root.tables[r] = expanded[name]
        root.degree_guards[(lattice.bottom, r)] = expanded[name]
    for dc in extra_degree_constraints:
        if dc.guard is None or dc.guard not in expanded and dc.guard not in db:
            raise CSMAError(
                f"degree constraint {dc} must name a guard relation"
            )
        guard_rel = expanded.get(dc.guard) or db.expand_runtime(
            dc.guard, counter=counter
        )
        root.degree_guards[dc.pair] = guard_rel

    program = ConditionalLLP(lattice, base_constraints)
    solution = program.solve()
    stats.opt_log2 = solution.objective
    stats.budget_log2 = solution.objective + theta_bits
    rules = build_csm_proof(
        lattice, solution.dual, [dc.pair for dc in base_constraints]
    )
    stats.rules = [r.describe(lattice) for r in rules]

    outputs: list[Relation] = []
    budget = 2.0 ** (solution.objective + theta_bits)

    def run_branch(branch: _Branch, todo: list[CSMRule], restarts: int) -> None:
        stats.branches += 1
        idx = 0
        while idx < len(todo):
            rule = todo[idx]
            if rule.kind == "CD":
                children = _execute_cd(branch, rule, lattice, counter)
                for child in children:
                    run_branch(child, todo[idx + 1 :], restarts)
                return
            ok = _execute_join_rule(
                branch, rule, lattice, db, budget, counter
            )
            if not ok:
                _restart(branch, todo[idx:], restarts)
                return
            idx += 1
        top_table = branch.tables.get(lattice.top)
        if top_table is not None:
            outputs.append(top_table)

    def _restart(branch: _Branch, remaining: list[CSMRule], restarts: int) -> None:
        stats.restarts += 1
        if restarts >= max_restarts:
            stats.fallbacks += 1
            outputs.append(_fallback_join(branch, lattice, db, inputs, counter))
            return
        constraints = base_constraints + branch.measured_constraints(lattice)
        sub_program = ConditionalLLP(lattice, constraints)
        try:
            sub_solution = sub_program.solve()
            sub_rules = build_csm_proof(
                lattice, sub_solution.dual, [dc.pair for dc in constraints]
            )
        except (CSMAError, RuntimeError):
            stats.fallbacks += 1
            outputs.append(_fallback_join(branch, lattice, db, inputs, counter))
            return
        run_branch(branch, sub_rules, restarts + 1)

    run_branch(root, rules, 0)

    # Union + exact filter against the original inputs (and UDF-consistency,
    # which holds by construction through the expansion procedure).  The
    # filter runs positionally on the compiled membership/UDF checks.
    top_attrs = tuple(sorted(lattice.label(lattice.top)))
    seen: dict[tuple, None] = {}
    for rel in outputs:
        # C-level union: dict.fromkeys preserves first-insertion order,
        # exactly like the per-tuple setdefault loop.
        seen.update(dict.fromkeys(rel.project(top_attrs).tuples))
    result = db.final_filter(top_attrs, seen, inputs, counter=counter)
    stats.tuples_touched = counter.tuples_touched
    return CSMAResult(Relation("Q", top_attrs, result), stats)


def _execute_cd(
    branch: _Branch, rule: CSMRule, lattice: Lattice, counter: WorkCounter
) -> list[_Branch]:
    """Lemma 5.35: partition T(Y) into log-degree buckets over X.

    Bucket j holds tuples whose X-value has degree in [2^j, 2^{j+1}), so
    each bucket satisfies n_X^{(j)} + n_{Y|X}^{(j)} <= n_Y + 1 (the extra
    bit is absorbed by θ rather than halving buckets as in the paper)."""
    table = branch.tables.get(rule.y)
    if table is None:
        table = branch.degree_guards.get((lattice.bottom, rule.y))
    if table is None:
        raise CSMAError(
            f"CD rule needs a guard table for {lattice.label(rule.y)!r}"
        )
    x_attrs = tuple(sorted(lattice.label(rule.x)))
    index = table.index_on(x_attrs)
    buckets: dict[int, list[tuple]] = {}
    bucket_indexes: dict[int, dict[tuple, list[tuple]]] = {}
    touched = 0
    for key, bucket in index.items():
        touched += len(bucket)
        level = max(0, int(math.log2(len(bucket))))
        buckets.setdefault(level, []).extend(bucket)
        bucket_indexes.setdefault(level, {})[key] = bucket
    counter.add(touched)
    children: list[_Branch] = []
    for level, tuples in sorted(buckets.items()):
        child = branch.clone()
        # Buckets partition the parent's (distinct) tuples, so the child is
        # distinct by provenance and inherits its X-index from the
        # partition instead of re-hashing.
        partition = bucket_indexes[level]
        sub_table = Relation(
            f"{table.name}@deg{level}", table.schema, tuples, distinct=True
        )
        sub_table.seed_index(x_attrs, partition)
        child.tables[rule.y] = sub_table
        child.degree_guards[(rule.x, rule.y)] = sub_table
        # Π_X of the bucket is exactly the partition's key set.
        child.tables[rule.x] = Relation(
            f"Π({table.name})@deg{level}", x_attrs, partition.keys(),
            distinct=True,
        )
        child.degree_guards[(lattice.bottom, rule.x)] = child.tables[rule.x]
        children.append(child)
    return children


def _execute_join_rule(
    branch: _Branch,
    rule: CSMRule,
    lattice: Lattice,
    db: Database,
    budget: float,
    counter: WorkCounter,
) -> bool:
    """CC and SM rules both join a table term with a conditional guard.

    Returns False when the measured cost exceeds the budget (Lemma 5.36
    then promises a strictly better CLLP optimum on restart)."""
    if rule.kind == "CC":
        left_el, cond = rule.x, (rule.x, rule.y)
        target = rule.y
    else:
        meet = lattice.meet(rule.x, rule.y)
        left_el = rule.x
        cond = (meet, rule.y)
        target = lattice.join(rule.x, rule.y)
    left = branch.tables.get(left_el)
    guard = branch.degree_guards.get(cond)
    if guard is None and cond[0] == lattice.bottom:
        guard = branch.tables.get(cond[1])
    if left is None or guard is None:
        raise CSMAError(
            f"rule {rule.kind}({lattice.label(rule.x)!r}, "
            f"{lattice.label(rule.y)!r}) is missing its guards"
        )
    shared = tuple(a for a in guard.schema if a in left.varset)
    max_deg = guard.max_degree(shared) if shared else len(guard)
    if len(left) * max(1, max_deg) > budget:
        return False
    target_attrs = lattice.label(target)
    guard_extra = tuple(a for a in guard.schema if a not in left.varset)
    out_schema = tuple(sorted(target_attrs))
    extra_key = tuple_getter(guard.positions(guard_extra))
    # Collect the whole (left ⋈ guard) frontier, then push it through the
    # compiled plan in one batch; an empty join (like the naive path)
    # never compiles anything.  With a large left side the join itself
    # runs vectorized (``frontier.key_join`` over
    # the guard's sorted key block) and the frontier stays an int64
    # block end to end — emitted rows, match counts and output order are
    # exactly the per-key memoized loop's (``memoized_join_rows``).
    # Engages only when the downstream plan has steps — a step-less join
    # materializes straight into relation tuples, where the per-key
    # memoized C loop beats gather-and-retuple.
    if (
        shared
        and frontier_blocks.ndarray_engaged(len(left))
        and db.expansion_plan(left.schema + guard_extra, target_attrs).steps
    ):
        np = frontier_blocks.np
        left_block = frontier_blocks.columns_to_block(
            left.column_store(), len(left)
        )
        if left_block is not None:
            sorted_keys, payload = guard.join_block(shared, guard_extra)
            reps, gather, touched = frontier_blocks.key_join(
                sorted_keys, left_block, left.positions(shared)
            )
            counter.add(touched)
            rows_block = left_block[reps]
            if guard_extra:
                rows_block = np.concatenate(
                    (rows_block, payload[gather]), axis=1
                )
            branch.tables[target] = db.expand_block_relation(
                f"T({lattice.label(target)})",
                rows_block,
                left.schema + guard_extra,
                target_attrs,
                out_schema,
                counter=counter,
            )
            branch.degree_guards[(lattice.bottom, target)] = branch.tables[
                target
            ]
            return True
    if shared:
        rows, touched = memoized_join_rows(
            left.tuples,
            left.positions(shared),
            guard.index_on(shared),
            extra_key,
        )
    else:
        rows, touched = [], 0
        if len(guard):
            extras = [extra_key(match) for match in guard.tuples]
            for t in left.tuples:
                touched += len(extras)
                rows.extend(map(t.__add__, extras))
    # One post per join: the total equals the per-tuple match charges.
    counter.add(touched)
    # (left tuple, guard image) → output is injective, so no re-dedup;
    # on the ndarray backend the frontier stays an int64 block end to end
    # and T(target) materializes column-wise with its store pre-seeded.
    branch.tables[target] = db.expand_rows_relation(
        f"T({lattice.label(target)})",
        rows,
        left.schema + guard_extra,
        target_attrs,
        out_schema,
        counter=counter,
    )
    branch.degree_guards[(lattice.bottom, target)] = branch.tables[target]
    return True


def _fallback_join(
    branch: _Branch,
    lattice: Lattice,
    db: Database,
    inputs: Mapping[str, int],
    counter: WorkCounter,
) -> Relation:
    """Sound last-resort: pairwise-join the branch's input tables and
    expand.  Keeps CSMA total even when restarts are exhausted; the stats
    record how often this fires (never, on the paper's workloads)."""
    from repro.engine.ops import natural_join

    tables = [branch.tables[r] for name, r in inputs.items() if r in branch.tables]
    current = tables[0]
    for table in tables[1:]:
        current = natural_join(current, table, counter=counter)
    target = lattice.label(lattice.top)
    out_schema = tuple(sorted(target))
    rows = []
    if len(current):
        plan = db.expansion_plan(current.schema, target)
        out_key = tuple_getter(plan.positions(out_schema))
        rows = [
            out_key(expanded)
            for expanded in plan.execute_batch(current.tuples, counter)
            if expanded is not None
        ]
    return Relation("fallback", out_schema, rows)

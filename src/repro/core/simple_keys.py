"""The closure trick for simple keys (Sec. 2, "Closure").

When every fd is a *guarded simple key* (u → v with u a key of some input
relation), replacing each relation by its expansion R⁺ and forgetting the
fds preserves the output, and AGM(Q⁺) is a tight bound — so any
FD-oblivious worst-case-optimal join on the expanded query is worst-case
optimal for the original.  This predates the lattice machinery and is the
paper's baseline FD-exploiting strategy; the Chain Algorithm subsumes it
(simple fds ⇒ distributive lattice ⇒ tight chain bound), but it is the
cheapest option when it applies.
"""

from __future__ import annotations

from repro.core.bounds import closure_bound_log2
from repro.engine.database import Database
from repro.engine.generic_join import GenericJoinStats, generic_join
from repro.engine.relation import Relation
from repro.query.query import Query


def all_guarded_simple_keys(query: Query) -> bool:
    """Is every fd a simple fd guarded by a relation in which the lhs is a
    key?  (The paper's "simple keys" case.)"""
    for fd in query.fds:
        if not fd.is_simple:
            return False
        if query.guard(fd) is None:
            return False
    return True


def _closure_expansion(query: Query, db: Database) -> tuple[Query, Database]:
    """``(Q⁺, D⁺)``: the closure query and the database of the expanded,
    projected relations it runs on.  A pure function of ``query`` and
    ``db``'s contents, so :func:`closure_trick_join` memoizes it per
    (query, database) in :meth:`Database.compiled`."""
    expanded_query = query.closure_query()
    expanded_relations = []
    for atom in query.atoms:
        expanded = db.expand_relation(db[atom.name])
        attrs = expanded_query.atom(atom.name).attrs
        expanded_relations.append(
            expanded.project(attrs, name=atom.name)
        )
    return expanded_query, Database(expanded_relations, udfs=list(db.udfs))


def closure_trick_join(
    query: Query, db: Database
) -> tuple[Relation, GenericJoinStats]:
    """Evaluate via Q⁺: expand every relation to its closure, drop the
    fds, and run a generic worst-case-optimal join.

    Valid whenever every fd is *expandable* (guarded or UDF-backed); tight
    (worst-case optimal) when the fds are simple keys.
    """
    expanded_query, expanded_db = db.compiled(
        query, "closure_trick", lambda: _closure_expansion(query, db)
    )
    out, stats = generic_join(expanded_query, expanded_db)
    # Restore the original variable order and filter any UDF-definable
    # variable consistency (no-op when the fds are guarded).
    missing = [v for v in query.variables if v not in out.schema]
    if missing:
        rows = []
        target = frozenset(query.variables)
        for row in out.as_dicts():
            full = db.expand_tuple(row, target=target)
            if full is not None and db.udf_consistent(full):
                rows.append(tuple(full[v] for v in query.variables))
        out = Relation("Q", query.variables, rows)
    else:
        out = out.project(query.variables, name="Q")
    return out, stats


def closure_trick_budget_log2(query: Query, db: Database) -> float:
    """The strategy's budget: AGM(Q⁺) with the *expanded* cardinalities
    (expansion never grows a relation, so the original sizes are upper
    bounds)."""
    return closure_bound_log2(query, db.sizes())

"""Naive reference implementations: expansion (Sec. 2) and the whole
query — the engines' independent oracle.

These are the row-dict, guard-scanning formulations that the compiled
positional kernel (:mod:`repro.engine.expansion_plan`) replaced on the hot
path.  They are retained verbatim (modulo the guard-consistency check,
which both paths now enforce) as the *executable specification*: the
differential property tests in ``tests/test_kernel_equivalence.py`` assert
that kernel and reference produce identical output relations **and**
identical ``tuples_touched`` on randomized instances.
:func:`reference_join` composes them into a naive full-query join, the
result oracle every engine is checked against in ``tests/differential.py``.

The reference runs on **raw values only** — it probes the stored
relations (``db.relations``), never the dictionary-encoded twins, and
shares no plan, codec or block code with the engines.  That is
deliberate: the engines run on codes and are differentially tested
*against this module*, so the spec must stay independent of the encoding
it validates.  Encoding is a per-attribute bijection, so every count
below is provably identical to the engines': a guard probe hits iff the
code probe hits, and emitted-row multisets map one-to-one.

Counter accounting contract (shared by both paths):

* guarded fd application on one tuple — 1 touch, hit or miss;
* UDF evaluation on one tuple — 1 touch;
* whole-relation guarded fd application — 1 touch per emitted row
  (dangling rows touch nothing, fd-violating guard keys emit one row per
  distinct image);
* whole-relation UDF application — 1 touch per input row.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.database import Database, ExpansionError
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.fds.fd import VarSet, varset
from repro.query.query import Query


def reference_natural_join(
    left: Relation,
    right: Relation,
    name: str | None = None,
    counter: WorkCounter | None = None,
) -> Relation:
    """Index-nested-loops hash join, always building on the right side."""
    shared = tuple(a for a in left.schema if a in right.varset)
    right_extra = tuple(a for a in right.schema if a not in left.varset)
    out_schema = left.schema + right_extra
    index = right.index_on(shared)
    extra_positions = right.positions(right_extra)
    shared_positions = left.positions(shared)
    out = []
    for t in left.tuples:
        key = tuple(t[p] for p in shared_positions)
        for match in index.get(key, ()):
            out.append(t + tuple(match[p] for p in extra_positions))
            if counter is not None:
                counter.add()
    return Relation(name or f"({left.name}⋈{right.name})", out_schema, out)


def reference_expand_relation(
    db: Database,
    relation: Relation,
    counter: WorkCounter | None = None,
) -> Relation:
    """R⁺ by repeated joins with guard projections / per-tuple UDFs."""
    current = relation
    target = db.fds.closure(current.varset)
    while current.varset != target:
        progressed = False
        for fd in db.applicable_fds(current.varset):
            new_attrs = fd.rhs - current.varset
            if not new_attrs:
                continue
            current = _apply_fd(db, current, fd, counter)
            progressed = True
            break
        if not progressed:
            raise ExpansionError(
                f"cannot expand {current.schema} towards {sorted(target)}: "
                "missing guard/UDF"
            )
    return current


def _apply_fd(
    db: Database, relation: Relation, fd, counter: WorkCounter | None
) -> Relation:
    guard = db.guard_relation(fd)
    if guard is not None:
        attrs = tuple(sorted(fd.lhs | fd.rhs))
        lookup = guard.project(attrs, name=f"Π({guard.name})")
        return reference_natural_join(
            relation, lookup, name=relation.name, counter=counter
        )
    # Unguarded: fill each rhs attribute via a UDF.
    current = relation
    for target_attr in sorted(fd.rhs - relation.varset):
        udf = db.udfs.resolve(current.varset, target_attr)
        if udf is None:
            raise ExpansionError(
                f"no guard relation and no UDF for fd {fd!r} "
                f"(attribute {target_attr!r})"
            )
        positions = current.positions(udf.inputs)
        new_tuples = []
        for t in current.tuples:
            if counter is not None:
                counter.add()
            new_tuples.append(t + (udf(*(t[p] for p in positions)),))
        current = Relation(
            current.name, current.schema + (target_attr,), new_tuples
        )
    return current


def reference_expand_tuple(
    db: Database,
    binding: Mapping[str, object],
    target: VarSet | None = None,
    counter: WorkCounter | None = None,
) -> dict[str, object] | None:
    """Per-tuple expansion with attr->value dicts and live guard lookups.

    Pure (copies the binding), and checks that every guard match agrees on
    the filled attributes — the two satellite fixes, mirrored here so the
    reference stays the kernel's specification.
    """
    binding = dict(binding)
    bound = varset(binding)
    goal = target if target is not None else db.fds.closure(bound)
    while bound != goal:
        progressed = False
        for fd in db.applicable_fds(bound):
            missing = (fd.rhs - bound) & goal
            if not missing:
                continue
            guard = db.guard_relation(fd)
            if guard is not None:
                key_binding = {a: binding[a] for a in fd.lhs}
                matches = guard.matching(key_binding)
                if counter is not None:
                    counter.add()
                if not matches:
                    return None
                reference = matches[0]
                for attr in missing:
                    pos = guard.positions((attr,))[0]
                    value = reference[pos]
                    # All matches must agree (the guard satisfies the fd).
                    if any(m[pos] != value for m in matches):
                        return None
                    binding[attr] = value
            else:
                for attr in sorted(missing):
                    udf = db.udfs.resolve(bound, attr)
                    if udf is None:
                        raise ExpansionError(
                            f"no guard and no UDF for {fd!r} -> {attr!r}"
                        )
                    if counter is not None:
                        counter.add()
                    binding[attr] = db.udfs.apply(udf, binding)
            bound = varset(binding)
            progressed = True
            break
        if not progressed:
            raise ExpansionError(
                f"cannot expand tuple over {sorted(bound)} to {sorted(goal)}"
            )
    return binding


def reference_udf_consistent(db: Database, row: Mapping[str, object]) -> bool:
    """Row-dict UDF-consistency check (the pre-kernel formulation)."""
    for udf in db.udfs:
        if udf.output in row and all(a in row for a in udf.inputs):
            if db.udfs.apply(udf, row) != row[udf.output]:
                return False
    return True


def reference_join(query: Query, db: Database) -> Relation:
    """The query's answer by the naive definition, on raw values.

    Expand every atom's stored relation to its closure
    (:func:`reference_expand_relation`), join the expansions left to
    right (:func:`reference_natural_join`), expand the join to the
    closure of the query's variables, keep the UDF-consistent rows
    (:func:`reference_udf_consistent`) and project onto
    ``query.variables``.  Polynomial, not worst-case optimal: an oracle
    for small instances, never an engine.
    """
    current = None
    for atom in query.atoms:
        expanded = reference_expand_relation(db, db[atom.name])
        current = (
            expanded if current is None
            else reference_natural_join(current, expanded)
        )
    current = reference_expand_relation(db, current)
    rows = [
        t for t in current.tuples
        if reference_udf_consistent(db, dict(zip(current.schema, t)))
    ]
    return Relation("Q", current.schema, rows).project(
        query.variables, name="Q"
    )

"""LeapFrog TrieJoin (Veldhuizen [23]) on the positional kernel.

The paper's industrial baseline: a worst-case optimal join that walks one
variable at a time, intersecting the sorted children of per-relation trie
nodes with a leapfrogging gallop.  Footnote 1's FD handling is included:
a variable functionally determined by the bound prefix is bound by the
expansion procedure instead of trie search.

This implementation is faithful to the published algorithm (the leapfrog
k-way intersection: track the largest key seen, gallop the lowest level
up to it) rather than a re-skin of :mod:`repro.engine.generic_join` — the
two serve as independent engines whose agreement is itself a test.  The
search runs over array levels, not iterator objects: every trie node
carries its sorted keys and the comparison array the gallop bisects, and
:func:`leapfrog_positions` returns, for each common key, its position in
every level, so the walk steps straight into the matching children and
emits the last variable's matches as one batch of rows.

Execution rides on the shared positional substrate: prefixes are raw
tuples over ``order[:depth]``, footnote 1's FD binding goes through the
compiled expansion plan for that prefix schema (closure membership and
plans are derived once per depth, not per node), and the final
UDF-consistency check is the compiled positional predicate.
``expansion="reference"`` swaps the plan for the naive row-dict
formulation (:func:`repro.engine.reference.reference_expand_tuple`); the
differential suite runs both and asserts bit-identical results and work
counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from repro.engine.cancellation import checkpoint
from repro.engine.database import Database
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.query.query import Query

#: The node below a relation's last attribute: no keys, no children.
_LEAF = ((), (), ())


class TrieIndex:
    """A sorted trie over a relation in a fixed attribute order.

    Every node is a ``(keys, cmp, children)`` triple: the level's distinct
    keys in sorted order, the comparison array the leapfrog search
    bisects, and the child nodes aligned with ``keys``.  ``int_keys=True``
    (the dictionary-encoded plane) declares every key a plain int, so the
    comparison array *is* the key list.  Otherwise it is the keys'
    ``_sort_key`` array, built once with the node.  Joins read tries
    through :meth:`Relation.trie <repro.engine.relation.Relation.trie>`,
    which builds each (relation, order, plane) trie once and caches it.
    """

    def __init__(
        self, relation: Relation, order: Sequence[str], int_keys: bool = False
    ):
        order = tuple(a for a in order if a in relation.varset)
        if set(order) != set(relation.schema):
            raise ValueError(
                f"trie order {order} must cover schema {relation.schema}"
            )
        self.order = order
        self.int_keys = int_keys
        positions = relation.positions(order)
        root: dict = {}
        for t in relation.tuples:
            node = root
            for p in positions:
                node = node.setdefault(t[p], {})
        self.root = self._freeze(root)

    def _freeze(self, node: dict) -> tuple:
        """Recursively replace dicts by ``(keys, cmp, children)`` nodes."""
        if not node:
            return _LEAF
        if self.int_keys:
            keys = cmp = sorted(node)
        else:
            pairs = sorted(
                zip(map(_sort_key, node), node), key=itemgetter(0)
            )
            cmp = [c for c, _ in pairs]
            keys = [k for _, k in pairs]
        return keys, cmp, [self._freeze(node[k]) for k in keys]


def _sort_key(value):
    """Total order over heterogeneous values, *consistent with ==*.

    Joins compare values by ``==``/hash everywhere else in the engine, so
    the trie order must treat ``==``-equal values as equal keys — else a
    key interned as ``True`` in one trie and ``1`` in another would never
    meet in the leapfrog intersection.  Numerics (``bool``/``int``/
    ``float``/``Fraction``/``Decimal``) collapse onto one exact
    ``Fraction`` axis; every
    other type groups by type name (so ints never compare against
    strings) and orders naturally within the group.  Non-finite floats
    keep the legacy per-type key — they are ``==``-isolated anyway.
    """
    if isinstance(value, (bool, int, float, Fraction, Decimal)):
        try:
            return ("num", Fraction(value))
        except (ValueError, OverflowError):
            # Non-finite: ±inf compares ``==`` across float/Decimal too,
            # so each sign shares one key; NaN is ``==``-isolated (not
            # even equal to itself) and keeps the per-type key.
            if value == float("inf"):
                return ("num+inf", 0)
            if value == float("-inf"):
                return ("num-inf", 0)
            return (type(value).__name__, value)
    return (type(value).__name__, value)


def leapfrog_positions(levels: Sequence[Sequence]) -> list[tuple[int, tuple]]:
    """The k-way leapfrog over sorted, duplicate-free comparison arrays.

    Returns one ``(emitter, positions)`` pair per key common to every
    level, in ascending key order: ``positions[j]`` is the key's index in
    ``levels[j]``, and ``emitter`` is the level whose turn it was when the
    key matched (the representative the search emits when ``==``-equal
    keys differ in type).  The levels rotate in order of their first key;
    each turn gallops the current level (``bisect_left`` from its position)
    up to ``x_max``, the largest key any level holds.
    """
    for level in levels:
        if not level:
            return []
    k = len(levels)
    ring = sorted(range(k), key=lambda j: levels[j][0])
    pos = [0] * k
    out: list[tuple[int, tuple]] = []
    x_max = levels[ring[-1]][0]
    p = 0
    while True:
        j = ring[p]
        level = levels[j]
        i = pos[j]
        if level[i] == x_max:
            out.append((j, tuple(pos)))
            i += 1
        else:
            i = bisect_left(level, x_max, i)
        if i == len(level):
            return out
        pos[j] = i
        x_max = level[i]
        p += 1
        if p == k:
            p = 0


@dataclass
class LeapfrogStats:
    tuples_touched: int = 0
    seeks: int = 0


def leapfrog_triejoin(
    query: Query,
    db: Database,
    order: Sequence[str] | None = None,
    fd_aware: bool = True,
    counter: WorkCounter | None = None,
    expansion: str = "plan",
) -> tuple[Relation, LeapfrogStats]:
    """Evaluate ``query`` with LFTJ over tries built in ``order``.

    ``fd_aware`` enables footnote 1: bind FD-determined variables via the
    expansion procedure at the earliest level.  ``counter`` receives the
    expansion substrate's work charges (one touch per fd application, as
    everywhere in the kernel).  ``expansion`` selects the substrate:
    ``"plan"`` (compiled positional plans, the default) or ``"reference"``
    (the naive row-dict path) — the differential suite asserts the two are
    observationally identical.
    """
    order = tuple(order) if order is not None else query.variables
    if (len(order) != len(query.variables)
            or set(order) != set(query.variables)):
        raise ValueError("order must be a permutation of the query variables")
    if expansion not in ("plan", "reference"):
        raise ValueError(f"unknown expansion substrate {expansion!r}")
    use_reference = expansion == "reference"
    if use_reference:
        from repro.engine.reference import reference_expand_tuple
    # The compiled-plan substrate rides the active data plane (encoded
    # twins + int-keyed tries when the database carries a codec); the
    # reference substrate stays on decoded values — it *is* the
    # decoded-value specification the differential suite compares against.
    encoded = db.encoded and not use_reference
    stats = LeapfrogStats()
    roots = [
        (db.runtime(atom.name) if encoded else db.relations[atom.name]).trie(
            order, int_keys=encoded
        )
        for atom in query.atoms
    ]
    # For each depth: the atoms (by index) whose trie has a level for it.
    var_atoms = [
        [a for a, atom in enumerate(query.atoms) if var in atom.varset]
        for var in order
    ]
    n_vars = len(order)
    # Per-depth static data: every prefix at depth d has schema
    # order[:d], so closure membership and the expansion plan are derived
    # once per depth instead of once per node.
    determined = [
        fd_aware and var in db.fds.closure(frozenset(order[:depth]))
        for depth, var in enumerate(order)
    ]
    plans: list = [None] * n_vars
    consistent = db.udf_filter(order, encoded=encoded)
    results: list[tuple] = []

    def bind_determined(depth: int, prefix: tuple):
        """Footnote 1: the FD-determined value for ``prefix``, or ``None``
        when the prefix dangles (guard miss / inconsistent guard key)."""
        if use_reference:
            expanded = reference_expand_tuple(
                db,
                dict(zip(order[:depth], prefix)),
                target=frozenset(order[:depth]) | {order[depth]},
                counter=counter,
            )
            return None if expanded is None else (expanded[order[depth]],)
        plan = plans[depth]
        if plan is None:
            plan = plans[depth] = db.expansion_plan(
                order[:depth],
                frozenset(order[:depth]) | {order[depth]},
                encoded=encoded,
            )
        extended = plan.execute(prefix, counter)
        # The plan appends exactly {var}: extended IS prefix + (value,).
        return None if extended is None else (extended[depth],)

    def emit(rows: list[tuple]) -> None:
        results.extend(
            rows if consistent is None else filter(consistent, rows)
        )

    def descend(depth: int, prefix: tuple, nodes: list) -> None:
        """Extend ``prefix`` by ``order[depth]``; ``nodes[a]`` is atom
        ``a``'s trie node under the prefix."""
        checkpoint()  # per-node deadline/fault check-in
        atoms = var_atoms[depth]
        last = depth == n_vars - 1
        if determined[depth]:
            bound = bind_determined(depth, prefix)
            stats.tuples_touched += 1
            if bound is None:
                return
            (value,) = bound
            # Verify against each trie having this level.
            target = value if encoded else _sort_key(value)
            nodes = list(nodes)
            for a in atoms:
                _, cmp, children = nodes[a]
                i = bisect_left(cmp, target)
                if i == len(cmp) or cmp[i] != target:
                    return
                nodes[a] = children[i]
            if last:
                emit([prefix + (value,)])
            else:
                descend(depth + 1, prefix + (value,), nodes)
            return
        if not atoms:
            raise ValueError(
                f"variable {order[depth]!r} is in no atom; "
                "requires fd_aware=True"
            )
        levels = [nodes[a] for a in atoms]
        matches = leapfrog_positions([cmp for _, cmp, _ in levels])
        stats.tuples_touched += len(matches)
        stats.seeks += len(matches) * len(atoms)
        keys = [node[0] for node in levels]
        if last:
            emit([prefix + (keys[e][at[e]],) for e, at in matches])
            return
        for e, at in matches:
            below = list(nodes)
            for a, node, i in zip(atoms, levels, at):
                below[a] = node[2][i]
            descend(depth + 1, prefix + (keys[e][at[e]],), below)

    if all(len(db[atom.name]) for atom in query.atoms):
        if n_vars:
            descend(0, (), roots)
        else:
            emit([()])
    if encoded:
        results = db.decode_tuples(order, results)
    return Relation("Q", order, results, distinct=True), stats

"""Database instances and the expansion procedure (Sec. 2).

A :class:`Database` bundles the relation instances, the FD set with its
guards, the UDF registry for unguarded fds, and optional declared degree
bounds.  The *expansion* of a relation fills in functionally-determined
attributes: guarded fds by joining with a projection of the guard relation,
unguarded fds by evaluating the UDF — in time Õ(N), as the paper requires.

Every database runs on one data plane: a
:class:`~repro.engine.dictionary.Codec` interns each stored relation into
int64 code columns (its *twin*), the engines execute on codes, and
results decode once, at each engine's terminal output.  Expansion runs
through compiled positional plans (:mod:`repro.engine.expansion_plan`):
for each (source schema, target) pair the FD-application order is derived
symbolically once, guard lookups become precomputed functional maps (or
flat tables over dense code domains), and per-tuple execution touches no
dicts.  ``repro.engine.reference`` keeps the naive formulations on raw
values — per-tuple and per-relation expansion and a whole-query join — as
the independent oracle the engines are differentially tested against, for
identical outputs *and* identical work counts.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro import config
from repro.engine import frontier
from repro.engine.dictionary import Codec
from repro.engine.expansion_plan import (
    GUARD,
    GUARD_DENSE,
    UDF as UDF_STEP,
    ExpansionPlan,
    RelationExpansionPlan,
    build_guard_lookup,
    build_multi_guard_lookup,
    densify_lookup,
    tuple_getter,
)
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.errors import ExpansionError  # noqa: F401  (historical home)
from repro.fds.fd import FD, FDSet, VarSet
from repro.fds.udf import UDF, UDFRegistry
from repro.util.lru import lru_get, lru_put

#: LRU cap shared by the per-database compiled-kernel caches (tuple plans,
#: relation plans, guard lookups, udf filters) and the per-query compile
#: memo (:meth:`Database.compiled`).  Every entry memoizes a pure
#: compilation, so eviction only costs a recompile — the cap exists for
#: long-uptime serving, where a tenant's query mix churns through far more
#: (schema, target) combinations than any one benchmark run.
PLAN_CACHE_MAX = config.get("REPRO_PLAN_CACHE_MAX")


def _lru_put(cache: OrderedDict, key, value) -> None:
    lru_put(cache, key, value, PLAN_CACHE_MAX)


class Database:
    """Relations + FDs + UDFs + declared degree bounds for one query run.

    The database owns a :class:`~repro.engine.dictionary.Codec` (its own,
    or ``codec=``, shared by a serving tenant's databases) and keeps a
    dictionary-encoded twin of every stored relation.  The engines read
    the twins (:meth:`runtime`), compiled plans and filters, and decode
    only at the result boundary (:meth:`final_filter` / their terminal
    output relation).  The public per-tuple/per-relation APIs
    (:meth:`expand_tuple`, :meth:`expand_relation`) keep value
    semantics: they encode on entry and decode on exit, charging the
    work counter as the naive reference does (encoding is a bijection),
    and :meth:`udf_consistent` evaluates the UDFs on the values
    themselves.

    Twins are built at :meth:`add` time by default, so ingest pays the
    encode.  ``encode=False`` defers each twin to the relation's first
    use (:meth:`runtime`, :meth:`rebuild_codec`): a database that is
    built but never queried interns nothing.
    """

    def __init__(
        self,
        relations: Iterable[Relation] = (),
        fds: FDSet | None = None,
        udfs: Iterable[UDF] = (),
        degree_bounds: Mapping[tuple[VarSet, str], int] | None = None,
        encode: bool | None = None,
        codec: Codec | None = None,
    ):
        if codec and encode is False:
            raise ValueError("codec= given but encode=False requested")
        self.codec = codec or Codec()
        self._eager = encode is not False
        self.relations: dict[str, Relation] = {}
        self._runtime: dict[str, Relation] = {}
        # Compiled-kernel caches (LRU, capped at PLAN_CACHE_MAX).  Keys
        # incorporate len(fds)/len(udfs) so post-hoc fd/udf registration
        # cannot serve stale plans; adding a relation clears everything
        # (it may become a better guard).
        self._tuple_plans: OrderedDict[tuple, ExpansionPlan] = OrderedDict()
        self._relation_plans: OrderedDict[tuple, RelationExpansionPlan] = (
            OrderedDict()
        )
        self._guard_lookups: OrderedDict[tuple, dict] = OrderedDict()
        # Keyed on (schema, #udfs) — the salt covers post-hoc
        # registration.
        self._udf_filters: OrderedDict[tuple, tuple] = OrderedDict()
        # Per-query compile products (see compiled()), keyed on
        # (query content, salt) and cleared with the plan caches.
        self._queries: OrderedDict[tuple, dict] = OrderedDict()
        for rel in relations:
            self.add(rel)
        self.fds: FDSet = fds if fds is not None else FDSet()
        self.udfs = UDFRegistry(udfs)
        for udf in self.udfs:
            # UDFs always contribute their fd (possibly already declared).
            if not self.fds.implies(udf.fd):
                self.fds.add(udf.fd)
        # Declared max-degree bounds: (X, y) -> max #distinct y per X-value.
        self.degree_bounds: dict[tuple[VarSet, str], int] = dict(
            degree_bounds or {}
        )

    # ------------------------------------------------------------------
    def add(self, relation: Relation) -> None:
        if relation.name in self.relations:
            raise ValueError(f"duplicate relation {relation.name!r}")
        self.relations[relation.name] = relation
        if self._eager:
            # Encode at construction time; interning only appends, so the
            # codes of previously-added relations are untouched (their
            # twins, indexes and guard tables stay valid — only the plan
            # caches below are invalidated, because the new relation may
            # become a better guard).
            self._runtime[relation.name] = self.codec.encode_relation(relation)
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        self._tuple_plans.clear()
        self._relation_plans.clear()
        self._guard_lookups.clear()
        self._udf_filters.clear()
        self._queries.clear()

    def rebuild_codec(self, codec: Codec | None = None) -> Codec:
        """Swap in a fresh (or caller-shared) codec and renumber every
        stored relation's twin into it.

        The dictionaries' append-only/stable-code contract means cold
        entries — values interned by long-gone queries' mid-run UDF
        evaluations — can never be evicted *in place*.  A long-uptime
        service instead compacts wholesale: rebuild from the live stored
        relations, dropping everything else.  The rebuild is a renumbering
        (:meth:`Codec.renumber_relation`): only each column's distinct
        live values are hashed, and the twins are remapped by a gather.
        A relation whose twin was never built (``encode=False``) is
        encoded here.  The result equals re-encoding the stored relations
        in order.  All compiled plans are invalidated (they embed the old
        codes); results are unchanged because encoding is a bijection per
        codec.

        Must not run concurrently with queries on this database — the
        serving layer compacts only when the tenant has no query in
        flight.
        """
        self.codec = codec or Codec()
        old = self._runtime
        self._runtime = {
            name: (
                self.codec.renumber_relation(rel, old[name])
                if name in old
                else self.codec.encode_relation(rel)
            )
            for name, rel in self.relations.items()
        }
        self._invalidate_plans()
        return self.codec

    def runtime(self, name: str) -> Relation:
        """The encoded twin of stored relation ``name``, built on first
        use when construction deferred it.  Two threads racing on a
        deferred twin intern the same values and cache equal twins."""
        twin = self._runtime.get(name)
        if twin is None:
            twin = self._runtime[name] = self.codec.encode_relation(
                self.relations[name]
            )
        return twin

    def decode_tuples(self, schema: Sequence[str], rows) -> list[tuple]:
        """Code rows → value tuples (the engines' result boundary)."""
        return self.codec.decode_tuples(tuple(schema), rows)

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def sizes(self) -> dict[str, int]:
        return {name: len(rel) for name, rel in self.relations.items()}

    def log_sizes(self) -> dict[str, float]:
        return {
            name: (math.log2(len(rel)) if len(rel) > 0 else 0.0)
            for name, rel in self.relations.items()
        }

    def query_log_sizes(self, query) -> dict[str, float]:
        """log2 of each of ``query``'s atoms' cardinalities, memoized per
        query (:meth:`compiled`); shared, so callers must not mutate it."""

        def build() -> dict[str, float]:
            log_sizes = self.log_sizes()
            return {atom.name: log_sizes[atom.name] for atom in query.atoms}

        return self.compiled(query, "log_sizes", build)

    @property
    def total_size(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    # ------------------------------------------------------------------
    # Guard resolution
    # ------------------------------------------------------------------
    def guard_relation(self, fd: FD) -> Relation | None:
        """A stored relation containing lhs ∪ rhs — the fd's guard."""
        needed = fd.lhs | fd.rhs
        for rel in self.relations.values():
            if needed <= rel.varset:
                return rel
        return None

    def applicable_fds(self, bound: VarSet) -> list[FD]:
        """Non-trivial fds whose lhs is within ``bound``."""
        return [
            fd for fd in self.fds if fd.lhs <= bound and not fd.rhs <= bound
        ]

    # ------------------------------------------------------------------
    # Compiled expansion plans (the positional kernel)
    # ------------------------------------------------------------------
    def _plan_salt(self) -> tuple[int, int]:
        return (len(self.fds), len(self.udfs))

    def compiled(self, query, product: Hashable, build: Callable[[], object]):
        """The memoized compile product ``product`` of ``query`` on this
        database, computed by ``build()`` on the first request.

        Products are pure functions of the query's content and this
        database's stored relations, fds and UDFs: the inputs' log-sizes,
        the admission bound, the planner's verdicts and chain, the
        closure trick's expanded database, the generic join's access
        paths.  Results and work counts are never memoized.  The entry
        for a query lives in an LRU capped at :data:`PLAN_CACHE_MAX`;
        the salt keys out post-hoc fd or UDF registration and
        :meth:`add`/:meth:`rebuild_codec` clear it, so a hit is never
        stale.  Nothing is filled before the first read, so building a
        database costs the same as without the memo.
        """
        key = (query.content_key(), self._plan_salt())
        entry = lru_get(self._queries, key)
        if entry is None:
            entry = {}
            _lru_put(self._queries, key, entry)
        try:
            return entry[product]
        except KeyError:
            value = entry[product] = build()
            return value

    def _guard_lookup(
        self,
        guard: Relation,
        key_attrs: tuple[str, ...],
        value_attrs: tuple[str, ...],
        multi: bool,
    ) -> dict:
        key = (guard.name, key_attrs, value_attrs, multi)
        cached = lru_get(self._guard_lookups, key)
        if cached is None:
            build = build_multi_guard_lookup if multi else build_guard_lookup
            cached = build(self.runtime(guard.name), key_attrs, value_attrs)
            _lru_put(self._guard_lookups, key, cached)
        return cached

    def _encoded_udf_fn(self, udf: UDF):
        """``udf.fn`` lifted to codes: decode the argument
        codes lazily (a list index per argument — only paid when the
        genuinely opaque predicate actually runs), apply, intern the
        result into the output attribute's dictionary."""
        fn = udf.fn
        out_encode = self.codec.dictionary(udf.output).encode
        tables = tuple(self.codec.dictionary(a).values for a in udf.inputs)
        if not tables:
            return lambda: out_encode(fn())
        if len(tables) == 1:
            (t0,) = tables
            return lambda a: out_encode(fn(t0[a]))
        if len(tables) == 2:
            t0, t1 = tables
            return lambda a, b: out_encode(fn(t0[a], t1[b]))
        return lambda *codes: out_encode(
            fn(*(t[c] for t, c in zip(tables, codes)))
        )

    def _compile_steps(
        self,
        source_schema: tuple[str, ...],
        goal: VarSet,
        relation_mode: bool,
    ) -> tuple[tuple[tuple, ...], tuple[str, ...]]:
        """The symbolic replay shared by tuple and relation plans.

        At each iteration the *first* applicable fd with goal progress is
        applied (guarded fds become lookup steps, unguarded ones UDF
        steps) until the bound attributes reach ``goal``.  The two plan
        variants differ only in three pinned rules, each mirroring its
        naive reference formulation exactly:

        * **missing attrs** — tuple mode targets ``(rhs - bound) & goal``
          (a partial ``target`` stops early); relation mode always chases
          the full ``rhs - bound``.
        * **guard key** — tuple mode keys on the fd's lhs in guard-schema
          order with a single-image lookup; relation mode keys on every
          already-bound attribute of lhs ∪ rhs in layout order with a
          multi-image lookup (join set semantics).
        * **UDF resolution scope** — tuple mode resolves every missing
          attribute against the *pre-fd* bound set (as
          ``reference_expand_tuple`` does); relation mode grows the bound
          set per attribute (as ``reference_expand_relation`` does).

        Returns ``(steps, out_layout)``.
        """
        bound = frozenset(source_schema)
        layout = list(source_schema)
        pos = {a: i for i, a in enumerate(layout)}
        steps: list[tuple] = []
        while bound != goal:
            progressed = False
            for fd in self.applicable_fds(bound):
                if relation_mode:
                    missing = fd.rhs - bound
                else:
                    missing = (fd.rhs - bound) & goal
                if not missing:
                    continue
                guard = self.guard_relation(fd)
                if guard is not None:
                    if relation_mode:
                        attrs = tuple(sorted(fd.lhs | fd.rhs))
                        attr_set = frozenset(attrs)
                        key_attrs = tuple(a for a in layout if a in attr_set)
                        new_attrs = tuple(a for a in attrs if a not in bound)
                    else:
                        # Key attrs in guard-schema order: reuses the same
                        # cached guard index the naive lookup would build.
                        key_attrs = tuple(
                            a for a in guard.schema if a in fd.lhs
                        )
                        new_attrs = tuple(sorted(missing))
                    lookup = self._guard_lookup(
                        guard,
                        key_attrs,
                        new_attrs,
                        multi=relation_mode,
                    )
                    step = (GUARD, tuple(pos[a] for a in key_attrs), lookup)
                    if not relation_mode and len(key_attrs) == 1:
                        # Single-attribute key over a dense code domain:
                        # the functional lookup flattens to a list index.
                        table = densify_lookup(
                            lookup, len(self.codec.dictionary(key_attrs[0]))
                        )
                        if table is not None:
                            step = (GUARD_DENSE, step[1], table)
                    steps.append(step)
                    for a in new_attrs:
                        pos[a] = len(layout)
                        layout.append(a)
                    bound = bound | frozenset(new_attrs)
                else:
                    for attr in sorted(missing):
                        udf = self.udfs.resolve(bound, attr)
                        if udf is None:
                            raise ExpansionError(
                                f"no guard and no UDF for {fd!r} -> {attr!r}"
                            )
                        steps.append(
                            (
                                UDF_STEP,
                                tuple(pos[a] for a in udf.inputs),
                                self._encoded_udf_fn(udf),
                            )
                        )
                        pos[attr] = len(layout)
                        layout.append(attr)
                        if relation_mode:
                            bound = bound | {attr}
                    if not relation_mode:
                        bound = bound | missing
                progressed = True
                break
            if not progressed:
                raise ExpansionError(
                    f"cannot expand {tuple(source_schema)} over "
                    f"{sorted(bound)} to {sorted(goal)}: missing guard/UDF"
                )
        return tuple(steps), tuple(layout)

    def expansion_plan(
        self,
        source_schema: Sequence[str],
        target: VarSet | None = None,
    ) -> ExpansionPlan:
        """Compile (and cache) the per-tuple expansion plan for a schema,
        towards ``target`` (default: the closure of the source schema).

        The plan runs on codes: code-keyed guard lookups (flat tables
        over dense code domains) and UDF steps that decode their
        arguments lazily and intern their results.
        """
        source_schema = tuple(source_schema)
        key = (source_schema, target, self._plan_salt())
        cached = lru_get(self._tuple_plans, key)
        if cached is not None:
            return cached
        goal = (
            target
            if target is not None
            else self.fds.closure(frozenset(source_schema))
        )
        steps, layout = self._compile_steps(
            source_schema, goal, relation_mode=False
        )
        plan = ExpansionPlan(source_schema, layout, steps)
        _lru_put(self._tuple_plans, key, plan)
        return plan

    def run_plan(
        self,
        source_schema: Sequence[str],
        vars_seq: Sequence[str],
    ) -> ExpansionPlan | None:
        """Compile (and cache) the *segment* plan binding ``vars_seq`` in
        order from ``source_schema`` — the concatenation of the per-depth
        single-step plans the generic join's determined run would execute
        one at a time.

        Returns ``None`` unless every per-depth plan is exactly one step
        appending exactly its variable: the segment must replay the same
        guard/UDF choices (first-applicable-fd against each depth's own
        narrow goal), so it is built by concatenation, never by
        recompiling toward a union goal — that keeps step counts, fd
        application order, and therefore ``tuples_touched`` bit-identical
        to the per-depth execution.  The fused pipeline then collapses
        the whole dense chain into one gather (see
        :mod:`~repro.engine.fused`).
        """
        source_schema = tuple(source_schema)
        vars_seq = tuple(vars_seq)
        key = ("run", source_schema, vars_seq, self._plan_salt())
        cached = lru_get(self._tuple_plans, key)
        if cached is not None:
            return cached if isinstance(cached, ExpansionPlan) else None
        schema = source_schema
        steps: list = []
        plan: ExpansionPlan | None = None
        for var in vars_seq:
            sub = self.expansion_plan(schema, frozenset(schema) | {var})
            if len(sub.steps) != 1 or sub.out_schema != schema + (var,):
                plan = None
                break
            steps.append(sub.steps[0])
            schema = sub.out_schema
        else:
            plan = ExpansionPlan(source_schema, schema, tuple(steps))
        # Negative results cache too (a non-ExpansionPlan marker): the
        # generic join asks once per (frontier schema, run) per query.
        _lru_put(self._tuple_plans, key, plan if plan is not None else key)
        return plan

    def relation_plan(
        self, source_schema: Sequence[str]
    ) -> RelationExpansionPlan:
        """Compile (and cache) the whole-relation expansion plan ``R → R⁺``.

        Guard steps replicate the join with ``Π_{X∪Y}(guard)``: the key is
        every already-bound attribute of lhs ∪ rhs (in schema order) and
        fd-violating keys contribute one row per distinct image.
        """
        source_schema = tuple(source_schema)
        key = (source_schema, self._plan_salt())
        cached = lru_get(self._relation_plans, key)
        if cached is not None:
            return cached
        goal = self.fds.closure(frozenset(source_schema))
        steps, layout = self._compile_steps(
            source_schema, goal, relation_mode=True
        )
        plan = RelationExpansionPlan(source_schema, layout, steps)
        _lru_put(self._relation_plans, key, plan)
        return plan

    def expand_rows_relation(
        self,
        name: str,
        rows: list[tuple],
        source_schema: Sequence[str],
        target: VarSet,
        out_schema: Sequence[str],
        counter: WorkCounter | None = None,
    ) -> Relation:
        """Joined code rows → expanded-and-reordered output relation.

        The shared epilogue of SMA's SM-join and CSMA's join rules: push
        ``rows`` (laid out over ``source_schema``) through the compiled
        expansion plan toward ``target``, drop dangling rows, and reorder
        each survivor onto ``out_schema``.  This is the one door from row
        frontiers into the block executor: from
        ``frontier.NDARRAY_MIN_ROWS`` rows (``frontier.ndarray_engaged``),
        the rows convert to one int64 block and
        :meth:`expand_block_relation` takes over.  A step-less
        plan (already closed schema) stays a C-level reorder — or a
        pass-through when the reorder is the identity.  Output rows are
        distinct by the callers' provenance argument (injective join +
        expansion).
        """
        source_schema = tuple(source_schema)
        out_schema = tuple(out_schema)
        out_tuples = rows
        if rows:
            plan = self.expansion_plan(source_schema, target)
            out_positions = plan.positions(out_schema)
            if not plan.steps:
                if out_positions != tuple(range(len(plan.out_schema))):
                    out_tuples = list(map(tuple_getter(out_positions), rows))
            else:
                if frontier.ndarray_engaged(len(rows)):
                    block = frontier.rows_to_block(rows, len(source_schema))
                    if block is not None:
                        return self.expand_block_relation(
                            name, block, source_schema, target, out_schema,
                            counter=counter,
                        )
                out_key = tuple_getter(out_positions)
                out_tuples = [
                    out_key(expanded)
                    for expanded in plan.execute_batch(rows, counter)
                    if expanded is not None
                ]
        return Relation(name, out_schema, out_tuples, distinct=True)

    def expand_block_relation(
        self,
        name: str,
        block,
        source_schema: Sequence[str],
        target: VarSet,
        out_schema: Sequence[str],
        counter: WorkCounter | None = None,
    ) -> Relation:
        """:meth:`expand_rows_relation` for callers already holding an
        int64 frontier block: the block runs the ndarray backend (or just
        reorders, when the schema is already closed — charging nothing,
        like the step-less row path) and the result is a code relation
        (:meth:`Relation.from_codes`) over its own C-contiguous
        ``(width, n)`` array — never a view of ``block``, because
        ``from_codes`` freezes the array it is given.  Rows build only if
        a consumer reads them; the next SMA/CSMA step reads the array
        back as a block view (``frontier.columns_to_block``) without a
        copy.  Output distinctness is the caller's provenance argument,
        as everywhere.
        """
        source_schema = tuple(source_schema)
        out_schema = tuple(out_schema)
        plan = self.expansion_plan(source_schema, target)
        out_positions = list(plan.positions(out_schema))
        if plan.steps:
            rows, _ = plan.execute_batch_ndarray(block, counter)
            out = rows[:, out_positions]
        elif out_positions == list(range(block.shape[1])):
            out = block
        else:
            out = block[:, out_positions]
        return Relation.from_codes(name, out_schema, out.T.copy())

    # ------------------------------------------------------------------
    # The expansion procedure (Sec. 2)
    # ------------------------------------------------------------------
    def expand_relation(
        self,
        relation: Relation,
        counter: WorkCounter | None = None,
    ) -> Relation:
        """R⁺: extend ``relation`` to the closure of its attributes.

        Repeatedly applies fds X -> y with X ⊆ current attributes: guarded
        fds join with Π_{X∪y}(guard) (a function on X, so the size does not
        grow; tuples with no guard partner are dangling and dropped);
        unguarded fds evaluate their UDF per tuple.
        """
        plan = self.relation_plan(relation.schema)
        if not plan.steps:
            return relation
        source = self.codec.encode_relation(relation).tuples
        tuples = self.codec.decode_tuples(
            plan.out_schema, plan.execute_all(source, counter)
        )
        # Guard steps map each distinct tuple to distinct images and UDF
        # steps are injective, so the output is distinct by provenance.
        return Relation(relation.name, plan.out_schema, tuples, distinct=True)

    def expand_runtime(
        self, name: str, counter: WorkCounter | None = None
    ) -> Relation:
        """R⁺ of a *stored* relation, on codes (no decode).

        The engines' entry point: the result stays encoded — its tuples
        feed indexes, guard probes and plan batches directly, and only
        each engine's terminal output decodes.  Work counts are
        bit-identical to :meth:`expand_relation` (encoding is a bijection).
        """
        rel = self.runtime(name)
        plan = self.relation_plan(rel.schema)
        if not plan.steps:
            return rel
        tuples = plan.execute_all(rel.tuples, counter)
        return Relation(rel.name, plan.out_schema, tuples, distinct=True)

    def expand_tuple(
        self,
        binding: Mapping[str, object],
        target: VarSet | None = None,
        counter: WorkCounter | None = None,
    ) -> dict[str, object] | None:
        """Expand a single tuple (as an attr->value dict) to the closure of
        its attributes.  Returns None when a guard lookup misses (dangling)
        or a guarded fd maps the tuple to several images inconsistently
        (checked once per guard key when the lookup is compiled).

        Pure: the caller's ``binding`` is never mutated.
        """
        schema = tuple(binding)
        plan = self.expansion_plan(schema, target)
        row = self.codec.encode_row(schema, tuple(binding.values()))
        out = plan.execute(row, counter)
        if out is None:
            return None
        out = self.codec.decode_row(plan.out_schema, out)
        return dict(zip(plan.out_schema, out))

    # ------------------------------------------------------------------
    # UDF-consistency filtering
    # ------------------------------------------------------------------
    def _covered_udfs(self, attrs) -> list[UDF]:
        """The UDFs whose inputs and output all lie in ``attrs``, in
        registration order."""
        return [
            udf for udf in self.udfs
            if udf.output in attrs and all(a in attrs for a in udf.inputs)
        ]

    def udf_filter(self, schema: Sequence[str]):
        """Compiled positional predicate ``t -> bool`` for UDF consistency
        of a code row over ``schema``.

        Returns ``None`` when no UDF is fully covered by ``schema`` (so
        callers can skip the filter entirely); otherwise a closure testing
        every covered UDF in registration order with unrolled argument
        extraction.  The generated clauses decode each cell through its
        attribute's dictionary (a list index) before applying the opaque
        predicate — values are compared, never codes.
        """
        schema = tuple(schema)
        key = (schema, len(self.udfs))
        cached = lru_get(self._udf_filters, key)
        if cached is None:
            positions = {a: i for i, a in enumerate(schema)}
            # Flatten the conjunction into one generated function so a
            # row check costs a single call frame plus the UDF calls.
            namespace: dict[str, object] = {}
            clauses = []
            for i, udf in enumerate(self._covered_udfs(positions)):
                namespace[f"fn{i}"] = udf.fn
                args = []
                for k, a in enumerate(udf.inputs):
                    namespace[f"d{i}_{k}"] = self.codec.dictionary(a).values
                    args.append(f"d{i}_{k}[t[{positions[a]}]]")
                namespace[f"o{i}"] = self.codec.dictionary(udf.output).values
                clauses.append(
                    f"fn{i}({', '.join(args)}) == "
                    f"o{i}[t[{positions[udf.output]}]]"
                )
            if clauses:
                source = (
                    "def consistent(t):\n    return " + " and ".join(clauses)
                )
                exec(source, namespace)
                cached = (namespace["consistent"],)
            else:
                cached = (None,)
            _lru_put(self._udf_filters, key, cached)
        return cached[0]

    def final_filter(
        self,
        top_attrs: tuple[str, ...],
        candidates: Iterable[tuple],
        input_names: Iterable[str],
        counter: WorkCounter | None = None,
    ) -> list[tuple]:
        """Exact final filter: keep candidate code tuples (over
        ``top_attrs``) present in every named input relation and
        UDF-consistent, decoded to values — the engines' decode boundary.

        Positional form of the per-algorithm "filter against the inputs"
        epilogue: membership via each input twin's tuple set, UDF
        consistency via the compiled checks.  One work-counter touch per
        candidate, as in the naive row-dict filter.
        """
        input_names = list(input_names)
        consistent = self.udf_filter(top_attrs)
        candidates = list(candidates)
        if counter is not None:
            counter.add(len(candidates))
        # Flatten the membership conjunction into one generated listcomp:
        # per candidate it costs the key extractions (C itemgetters) and
        # set probes, no per-check loop frames.  Semantically identical to
        # the short-circuiting check loop.
        namespace: dict[str, object] = {}
        clauses = []
        for i, name in enumerate(input_names):
            rel = self.runtime(name)
            namespace[f"m{i}"] = rel.tuple_set()
            namespace[f"k{i}"] = tuple_getter(
                top_attrs.index(a) for a in rel.schema
            )
            clauses.append(f"k{i}(t) in m{i}")
        if consistent is not None:
            namespace["consistent"] = consistent
            clauses.append("consistent(t)")
        result = candidates
        if clauses:
            source = (
                "def keep(ts):\n    return [t for t in ts if "
                + " and ".join(clauses)
                + "]"
            )
            exec(source, namespace)
            result = namespace["keep"](candidates)
        return self.codec.decode_tuples(top_attrs, result)

    def udf_consistent(self, row: Mapping[str, object]) -> bool:
        """Does the value row ``row`` satisfy every UDF-defined fd it
        fully covers?

        A tuple is a query answer only when t[out] = f(t[inputs]) for every
        UDF f with inputs ∪ {out} ⊆ attrs(t).  All algorithms apply this
        in their final filter, making the output semantics identical across
        engines even for partial (lookup-table) UDFs.  The UDFs run on the
        values themselves: nothing is interned into the codec.
        """
        return all(
            udf.fn(*(row[a] for a in udf.inputs)) == row[udf.output]
            for udf in self._covered_udfs(row)
        )

    # ------------------------------------------------------------------
    # Statistics for CLLP constraints
    # ------------------------------------------------------------------
    def observed_degree_bound(
        self, relation_name: str, group: Sequence[str], target: Sequence[str]
    ) -> int:
        """max over group-values of #distinct target-values — an honest
        n_{Y|X} witness from the data."""
        rel = self.relations[relation_name]
        index = rel.index_on(tuple(group))
        target_positions = rel.positions(tuple(target))
        worst = 0
        for bucket in index.values():
            distinct = {tuple(t[p] for p in target_positions) for t in bucket}
            worst = max(worst, len(distinct))
        return worst

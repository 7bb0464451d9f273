"""Named-column in-memory relations with hash prefix indexes.

A :class:`Relation` is an immutable set of tuples over a named schema.
Indexes on attribute subsets are built lazily and cached; they give O(1)
degree lookups (`|σ_{X=v}(R)|`), which the Chain Algorithm, SMA and CSMA
all rely on (the paper charges a log factor for this via sorted indexes;
hashing gives amortized O(1) and does not change any shape).

Four kernel-level optimizations keep relations cheap:

* **Interned schemas** — the (schema, positions, varset) triple is computed
  once per distinct schema in a module registry and shared by every
  relation over it.
* **Distinctness provenance** — operators whose output is provably
  duplicate-free (``select``, ``rename``, permuting projections, guard
  expansions, CD log-degree buckets) construct with ``distinct=True`` and
  skip the re-deduplication pass entirely.
* **Index inheritance** — children built from a partition of a parent index
  (:meth:`seed_index`) start life with that index installed instead of
  re-hashing their tuples; projections are memoized per parent.
* **Lazy rows over int64 codes** — a dictionary-encoded twin
  (:meth:`from_codes`) stores only a ``(width, n)`` int64 code array;
  its ``tuples`` are built on first read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import config

# Opt-in re-validation of the ``distinct=True`` fast path (set
# REPRO_CHECK_DISTINCT=1; the test suite enables it).  Each call site's
# distinctness rests on an injectivity argument — this flag re-checks those
# arguments at runtime without taxing production construction.
_CHECK_DISTINCT = config.get("REPRO_CHECK_DISTINCT")

# Registry of interned (schema, positions, varset) triples, keyed by the
# schema tuple.  Interning is a sharing optimization only — each relation
# holds its own references, so evicting an entry merely means the next
# construction over that schema rebuilds the triple.  The LRU cap bounds
# the registry under heavy traffic with unbounded distinct schemas.
_SCHEMA_REGISTRY: "OrderedDict[tuple, tuple[tuple, dict, frozenset]]" = (
    OrderedDict()
)
SCHEMA_REGISTRY_MAX = 4096

# Per-relation projection memos are capped the same way: a projection is a
# pure function of (parent, attrs, name), so eviction only costs a
# recomputation on the next request.
PROJECTION_CACHE_MAX = 64


def _intern_schema(schema: Sequence[str]) -> tuple[tuple, dict, frozenset]:
    key = tuple(schema)
    cached = _SCHEMA_REGISTRY.get(key)
    if cached is None:
        if len(set(key)) != len(key):
            raise ValueError(f"duplicate attributes in schema {key}")
        cached = (key, {a: i for i, a in enumerate(key)}, frozenset(key))
        _SCHEMA_REGISTRY[key] = cached
        if len(_SCHEMA_REGISTRY) > SCHEMA_REGISTRY_MAX:
            _SCHEMA_REGISTRY.popitem(last=False)
    else:
        _SCHEMA_REGISTRY.move_to_end(key)
    return cached


class Relation:
    """An immutable relation: ``schema`` (attribute names) + distinct tuples."""

    __slots__ = (
        "name", "schema", "tuples", "_indexes", "_positions", "_varset",
        "_projections", "_columns", "_columns_all_int", "_twins",
        "_tuple_set", "_key_sets", "_key_blocks", "_codes",
    )

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        tuples: Iterable[tuple] = (),
        distinct: bool = False,
    ):
        self.name = name
        self.schema, self._positions, self._varset = _intern_schema(schema)
        if distinct:
            # Provenance guarantees distinct, well-formed tuples: skip the
            # dedup/validation pass (internal fast path for operators).
            self.tuples: tuple[tuple, ...] = tuple(tuples)
            if _CHECK_DISTINCT:
                width = len(self.schema)
                if any(
                    not isinstance(t, tuple) or len(t) != width
                    for t in self.tuples
                ):
                    raise AssertionError(
                        f"distinct=True with malformed tuples for {self.schema}"
                    )
                if len(set(self.tuples)) != len(self.tuples):
                    raise AssertionError(
                        f"distinct=True violated for {name}[{self.schema}]"
                    )
        else:
            width = len(self.schema)
            deduped = dict.fromkeys(map(tuple, tuples))
            for t in deduped:
                if len(t) != width:
                    raise ValueError(
                        f"tuple {t} does not match schema {self.schema}"
                    )
            self.tuples = tuple(deduped)
        self._init_caches()

    def _init_caches(self) -> None:
        self._indexes: dict[tuple[str, ...], dict[tuple, list[tuple]]] = {}
        self._projections: "OrderedDict[tuple, Relation]" = OrderedDict()
        self._columns: tuple[tuple, ...] | None = None
        self._columns_all_int: tuple[bool, ...] | None = None
        self._twins: dict[int, tuple] | None = None
        self._tuple_set: set | None = None
        self._key_sets: dict[tuple, set] | None = None
        self._key_blocks: dict[tuple, object] | None = None
        self._codes: np.ndarray | None = None

    @staticmethod
    def from_codes(
        name: str, schema: Sequence[str], codes: np.ndarray
    ) -> "Relation":
        """A relation whose only store is ``codes``, a ``(width, n)``
        int64 array of distinct rows (an encoded twin; the caller's
        provenance guarantees distinctness).

        ``tuples`` stays unset until first read, which builds it once
        from the codes (:class:`_UnbuiltRows`); after that it is a plain
        slot read.  ``len()``, :meth:`code_columns` and the array
        readers (:meth:`key_block`, :meth:`join_block`, the sort-based
        :meth:`index_on`) never build rows.  The array is made
        read-only, because block seams hand out views of it.
        """
        rel = _UnbuiltRows.__new__(_UnbuiltRows)
        rel.name = name
        rel.schema, rel._positions, rel._varset = _intern_schema(schema)
        rel._init_caches()
        if codes.dtype != np.int64 or codes.shape[:1] != (len(rel.schema),):
            raise ValueError(
                f"codes of shape {codes.shape} ({codes.dtype}) do not fit "
                f"schema {rel.schema}"
            )
        codes.flags.writeable = False
        rel._codes = codes
        rel._columns_all_int = (True,) * len(rel.schema)
        if _CHECK_DISTINCT and codes.shape[1]:
            if np.unique(codes.T, axis=0).shape[0] != codes.shape[1]:
                raise AssertionError(
                    f"distinct=True violated for {name}[{rel.schema}]"
                )
        return rel

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        codes = self._codes
        return len(self.tuples) if codes is None else codes.shape[1]

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, t: tuple) -> bool:
        return tuple(t) in self.tuple_set()

    def tuple_set(self) -> set:
        """The tuples as a cached set — the membership structure.

        A full-schema hash index has singleton buckets; everything that
        only asks "is this row present?" (final filters, the chain
        algorithm's footnote-8 check, ``in``) probes this set instead:
        construction is one C-level pass and probes skip the bucket
        indirection.
        """
        if self._tuple_set is None:
            self._tuple_set = set(self.tuples)
        return self._tuple_set

    def key_set(self, attrs: Sequence[str]) -> set:
        """The distinct keys on ``attrs`` as a cached set (C-level build).

        The membership-only counterpart of :meth:`index_on` — verification
        probes ("does any tuple match this key?") need no buckets.  For a
        single attribute the set holds *bare* values (probe with
        ``t[pos]``, no 1-tuple allocation); for several it holds key
        tuples in ``attrs`` order.
        """
        key = tuple(attrs)
        if self._key_sets is None:
            self._key_sets = {}
        cached = self._key_sets.get(key)
        if cached is not None:
            return cached
        from operator import itemgetter

        positions = self.positions(key)
        if len(positions) == 1:
            keys = set(map(itemgetter(positions[0]), self.tuples))
        else:
            keys = set(map(itemgetter(*positions), self.tuples))
        self._key_sets[key] = keys
        return keys

    def key_block(self, attrs: Sequence[str]):
        """The keys on ``attrs`` as a cached *sorted key structure*
        (``frontier.sorted_key_block``: int64, mixed-radix packed, or
        void fallback) — the vectorized counterpart of :meth:`key_set`,
        probed by the ndarray frontier's membership checks
        (``frontier.block_isin``).

        Only meaningful on all-int relations (dictionary-encoded twins and
        the engines' code relations, all-int by construction).
        """
        key = tuple(attrs)
        if self._key_blocks is None:
            self._key_blocks = {}
        cached = self._key_blocks.get(key)
        if cached is None:
            from repro.engine import frontier

            columns = self.column_store()
            positions = self.positions(key)
            block = np.empty((len(self), len(positions)), dtype=np.int64)
            for j, p in enumerate(positions):
                block[:, j] = columns[p]
            cached, _ = frontier.sorted_key_block(block)
            self._key_blocks[key] = cached
        return cached

    def trie(self, order: Sequence[str], int_keys: bool = False) -> tuple:
        """The root of the sorted trie over this relation in ``order``
        (:class:`repro.engine.leapfrog.TrieIndex`), cached per (order,
        key kind) like :meth:`key_block`.  ``order`` may name variables
        outside the schema (a query's variable order); only this
        relation's attributes shape the trie.  Nodes are
        ``(keys, cmp, children)`` triples that no join mutates, so every
        query over this relation, concurrent ones included, shares one
        trie."""
        order = tuple(a for a in order if a in self._varset)
        key = ("trie", order, int_keys)
        if self._key_blocks is None:
            self._key_blocks = {}
        cached = self._key_blocks.get(key)
        if cached is None:
            from repro.engine.leapfrog import TrieIndex

            cached = TrieIndex(self, order, int_keys=int_keys).root
            self._key_blocks[key] = cached
        return cached

    def join_block(self, key_attrs: Sequence[str], payload_attrs: Sequence[str]):
        """``(sorted_keys, payload)`` for vectorized probe joins — the
        build side of ``frontier.key_join``.

        ``sorted_keys`` is the sorted key structure over this relation's
        ``key_attrs`` (stable, so rows with equal keys keep their
        original relation order — matching :meth:`index_on` bucket order
        exactly); ``payload`` is the ``payload_attrs`` columns gathered
        into the same order as an int64 block.  Cached per attribute
        pair; code relations only (all-int cells).
        """
        key = ("join", tuple(key_attrs), tuple(payload_attrs))
        if self._key_blocks is None:
            self._key_blocks = {}
        cached = self._key_blocks.get(key)
        if cached is None:
            from repro.engine import frontier

            columns = self.column_store()
            n = len(self)
            key_positions = self.positions(tuple(key_attrs))
            block = np.empty((n, len(key_positions)), dtype=np.int64)
            for j, p in enumerate(key_positions):
                block[:, j] = columns[p]
            sorted_keys, order = frontier.sorted_key_block(block)
            payload_positions = self.positions(tuple(payload_attrs))
            payload = np.empty((n, len(payload_positions)), dtype=np.int64)
            for j, p in enumerate(payload_positions):
                payload[:, j] = columns[p]
            cached = (sorted_keys, payload[order])
            self._key_blocks[key] = cached
        return cached

    @property
    def varset(self) -> frozenset:
        return self._varset

    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        return tuple(self._positions[a] for a in attrs)

    def as_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.schema, t)) for t in self.tuples]

    def columns(self) -> tuple[tuple, ...]:
        """Columnar view: one tuple per attribute, cached after first use.

        On a relation built :meth:`from_codes` the tuples hold Python
        ints converted from the code array; the array readers use
        :meth:`column_store` instead and skip the conversion.
        """
        if self._columns is None:
            if self._codes is not None:
                self._columns = tuple(map(tuple, self._codes.tolist()))
            else:
                from operator import itemgetter

                self._columns = tuple(
                    tuple(map(itemgetter(j), self.tuples))
                    for j in range(len(self.schema))
                )
        return self._columns

    def code_columns(self) -> np.ndarray | None:
        """The read-only ``(width, n)`` int64 code array of a relation
        built :meth:`from_codes`, else ``None``."""
        return self._codes

    def column_store(self):
        """The columns for positional array readers: the int64 code
        array when the relation has one, else :meth:`columns`.  Either
        way ``column_store()[p]`` is column ``p``."""
        return self._codes if self._codes is not None else self.columns()

    def columns_all_int(self) -> tuple[bool, ...]:
        """Per-column "every cell is an int" verdict, memoized on the
        cached columnar view.

        The sort-based index build consults this instead of re-scanning
        ``type(v) is int`` per cell on every call; encoded twins are
        seeded ``True`` without a scan (codes are ints by construction).
        """
        if self._columns_all_int is None:
            self._columns_all_int = tuple(
                all(type(v) is int for v in column)
                for column in self.columns()
            )
        return self._columns_all_int

    # ------------------------------------------------------------------
    # The encoded twin hooks (see repro.engine.dictionary)
    # ------------------------------------------------------------------
    def encoded_twin(self, codec) -> "Relation | None":
        """The cached encoded twin for ``codec``, if one was built."""
        if self._twins is None:
            return None
        entry = self._twins.get(id(codec))
        return entry[1] if entry is not None else None

    def cache_encoded_twin(self, codec, twin: "Relation") -> None:
        """Cache ``twin`` keyed by codec identity (the codec object is
        retained so the ``id`` key cannot be recycled)."""
        if self._twins is None:
            self._twins = {}
        self._twins[id(codec)] = (codec, twin)
        if len(self._twins) > 4:
            self._twins.pop(next(iter(self._twins)))

    # ------------------------------------------------------------------
    # Indexing / degrees
    # ------------------------------------------------------------------
    def index_on(self, attrs: Sequence[str]) -> dict[tuple, list[tuple]]:
        """Hash index keyed on the given attributes (cached)."""
        key = tuple(attrs)
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        index: dict[tuple, list[tuple]] = {}
        setdefault = index.setdefault
        if len(key) == 1:
            (p,) = self.positions(key)
            grouped = self._group_int_column(p)
            if grouped is not None:
                self._indexes[key] = grouped
                return grouped
            # Inline the 1-tuple key build: no per-row lambda frame.
            for t in self.tuples:
                setdefault((t[p],), []).append(t)
        else:
            from repro.engine.expansion_plan import tuple_getter

            extract = tuple_getter(self.positions(key))
            for t in self.tuples:
                setdefault(extract(t), []).append(t)
        self._indexes[key] = index
        return index

    def _group_int_column(self, p: int) -> dict[tuple, list[tuple]] | None:
        """Sort-based index build for a single all-int column via numpy.

        A stable argsort groups equal codes contiguously; buckets are then
        C-level list slices instead of per-row ``setdefault`` calls.  Only
        engaged on large relations whose column is statically (or
        memoized) all-int — dictionary-encoded twins always qualify, and
        read their code array directly.  Bucket-internal order stays
        insertion order (stable sort), like the hash build.  Other
        relations qualify only when they already hold their columnar
        view: forcing a transpose just to index would cost more than the
        hash build saves.
        """
        if len(self) < 4096:
            return None
        if self._codes is not None:
            arr = self._codes[p]
        else:
            if self._columns is None or not self.columns_all_int()[p]:
                return None
            col = self._columns[p]
            try:
                arr = np.fromiter(col, dtype=np.int64, count=len(col))
            except OverflowError:
                return None
        order = np.argsort(arr, kind="stable")
        sorted_codes = arr[order]
        boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
        tuples = self.tuples
        ordered = [tuples[i] for i in order.tolist()]
        index: dict[tuple, list[tuple]] = {}
        start = 0
        for end in boundaries.tolist():
            index[(int(sorted_codes[start]),)] = ordered[start:end]
            start = end
        index[(int(sorted_codes[start]),)] = ordered[start:]
        return index

    def seed_index(
        self, attrs: Sequence[str], index: dict[tuple, list[tuple]]
    ) -> None:
        """Install a pre-built index (inherited from a parent's partition).

        Used by operators that already hold the exact ``{key: bucket}``
        partition for this relation (e.g. CD log-degree bucketing) so the
        child never re-hashes its tuples.
        """
        self._indexes[tuple(attrs)] = index

    def matching(self, binding: Mapping[str, object]) -> list[tuple]:
        """Tuples agreeing with ``binding`` on the bound attributes in schema."""
        attrs = tuple(a for a in self.schema if a in binding)
        if not attrs:
            return list(self.tuples)
        index = self.index_on(attrs)
        return index.get(tuple(binding[a] for a in attrs), [])

    def degree(self, binding: Mapping[str, object]) -> int:
        """|σ_{binding}(R)| via the prefix index."""
        attrs = tuple(a for a in self.schema if a in binding)
        if not attrs:
            return len(self.tuples)
        index = self.index_on(attrs)
        return len(index.get(tuple(binding[a] for a in attrs), ()))

    def max_degree(self, group_attrs: Sequence[str]) -> int:
        """max_v |σ_{group_attrs = v}(R)| — the degree bound of Sec. 1.2."""
        if not group_attrs:
            return len(self.tuples)
        index = self.index_on(tuple(group_attrs))
        return max((len(bucket) for bucket in index.values()), default=0)

    def distinct_values(self, attr: str) -> list:
        pos = self._positions[attr]
        return list(dict.fromkeys(t[pos] for t in self.tuples))

    # ------------------------------------------------------------------
    # Relational operators (see also repro.engine.ops)
    # ------------------------------------------------------------------
    def project(self, attrs: Sequence[str], name: str | None = None) -> "Relation":
        attrs = tuple(attrs)
        if attrs == self.schema and name is None:
            return self
        cache_key = (attrs, name)
        cached = self._projections.get(cache_key)
        if cached is not None:
            self._projections.move_to_end(cache_key)
            return cached
        from repro.engine.expansion_plan import tuple_getter

        extract = tuple_getter(self.positions(attrs))
        # A projection onto a permutation of the full schema is injective:
        # the result inherits distinctness from this relation.
        permutation = len(attrs) == len(self.schema)
        result = Relation(
            name or f"π({self.name})",
            attrs,
            map(extract, self.tuples),
            distinct=permutation,
        )
        self._projections[cache_key] = result
        if len(self._projections) > PROJECTION_CACHE_MAX:
            self._projections.popitem(last=False)
        return result

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        schema = tuple(mapping.get(a, a) for a in self.schema)
        if self._codes is not None:
            return Relation.from_codes(name or self.name, schema, self._codes)
        return Relation(name or self.name, schema, self.tuples, distinct=True)

    def select(self, binding: Mapping[str, object], name: str | None = None) -> "Relation":
        # A selection is a subset of this relation's (distinct) tuples.
        return Relation(
            name or f"σ({self.name})",
            self.schema,
            self.matching(binding),
            distinct=True,
        )

    def restrict(self, predicate, name: str | None = None) -> "Relation":
        """Keep tuples where ``predicate(row_dict)`` is truthy."""
        kept = [
            t
            for t in self.tuples
            if predicate(dict(zip(self.schema, t)))
        ]
        return Relation(name or f"σ({self.name})", self.schema, kept, distinct=True)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Relation({self.name}[{','.join(self.schema)}], {len(self)} tuples)"


class _UnbuiltRows(Relation):
    """A :meth:`Relation.from_codes` relation whose ``tuples`` slot is
    still unset.  Its ``__getattr__`` builds the rows on first read and
    turns the object back into a plain :class:`Relation`: a class with
    ``__getattr__`` makes every attribute read take the slow lookup
    path (about 4× a specialized slot read), so only unbuilt twins pay
    it.  Two threads racing here build equal rows; either write wins.
    """

    __slots__ = ()

    def __getattr__(self, attr: str):
        if attr != "tuples":
            raise AttributeError(attr)
        self.tuples = tuple(zip(*self._codes.tolist()))
        self.__class__ = Relation
        return self.tuples

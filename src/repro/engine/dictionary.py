"""Dictionary encoding for the columnar data plane.

Every attribute value that flows through the execution kernel is interned
into a dense non-negative integer *code*, one :class:`Dictionary` per
attribute domain.  The paper's algorithms never interpret values — they
hash them (guard probes, index lookups), compare them for equality (joins,
verification) and order them (trie levels) — so executing on codes is an
*isomorphic* run: result sets map bijectively and every ``tuples_touched``
count is bit-identical, while the hot inner operation ("probe a functional
guard map with a key built from attribute values") degrades from hashing
arbitrary Python objects to hashing small ints — or, when the key is a
single attribute over a dense domain, to a flat ``list`` index.

A :class:`Codec` is the per-:class:`~repro.engine.database.Database`
registry of dictionaries.  It piggybacks on the schema-interning idea of
:mod:`repro.engine.relation`: attributes are identified by name, so two
relations sharing an attribute automatically share its dictionary — which
is exactly what joins require (codes compare equal iff the values do).

Contracts the rest of the engine relies on:

* **Codes are stable.** Interning only appends; adding relations to a
  database (or interning UDF outputs mid-run) never renumbers existing
  codes, so cached encoded twins, plans and guard tables stay valid.
  The one renumbering is compaction (``Database.rebuild_codec``), which
  builds a *fresh* codec and remaps every live twin into it.
* **Ingest interns a column at a time.** :meth:`Dictionary.encode_column`
  hashes each cell once, in one C-level pass, and returns the column's
  codes as an int64 array; codes, ``values`` and first-seen order equal
  a per-cell ``encode`` loop's.  :meth:`Dictionary.encode` stays for
  single values (UDF outputs interned mid-run, ``expand_tuple``).
* **Twins store int64 code columns.** An encoded twin's only store is a
  read-only ``(width, n)`` int64 array; its row tuples and Python-int
  column tuples are built on first read (see
  :meth:`Relation.from_codes <repro.engine.relation.Relation.from_codes>`),
  so a twin that a query only sizes, or reads through array seams (guard
  lookups, key and join blocks, frontier blocks), never builds rows.
* **Encoding is injective per attribute.** ``decode(encode(v)) == v`` for
  every interned value.
* **Cross-type ``==``-equal values pin to the first-seen representative.**
  ``True``/``1``/``1.0`` hash and compare equal, so they share one code
  and decode to whichever value was interned first (relation ``add``
  order, column by column, then mid-run UDF interning order).  This is the
  *documented* semantics, not an accident: Python's own dict/set
  machinery already collapses ``==``-equal duplicates to the first
  insertion within any one relation or result set, so no engine contract
  ever distinguishes members of an ``==``-class — a terminal output may
  surface ``1`` where the value-level reference join surfaced ``1.0``,
  and the two results are equal under ``==`` (which is how every
  differential assert and every downstream join compares them).  The
  corollary contract for UDFs: an opaque predicate receives the
  representative, so it must be
  well-defined on ``==``-equivalence classes (return ``==``-equal outputs
  for ``==``-equal inputs) — ``w + x`` qualifies, ``type(w) is int`` does
  not.  ``tests/test_encoding.py`` pins both halves on a mixed-type
  differential instance.
* **The decode boundary is explicit.** Only
  ``Database.final_filter`` and the engines' terminal
  ``Relation("Q", ...)`` constructions decode; everything in between runs
  on codes.
"""

from __future__ import annotations

import threading
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from repro.engine.relation import Relation


class Dictionary:
    """An append-only value ↔ dense-code interning table for one domain.

    ``values`` is the decode table (``values[code]`` is the interned
    value); consumers may capture the list object itself — it grows in
    place and codes never move.

    Interning is thread-safe: a codec shared by several tenant databases
    may be probed from many worker threads at once.  The hit path of
    :meth:`encode` stays lock-free (a dict read under the GIL), only a
    *miss* takes the per-dictionary lock to re-check and append — so two
    threads racing on the same fresh value agree on one code, and codes
    stay dense.  :meth:`encode_column` holds the lock for its whole
    column.  The decode table is appended *before* the codes are
    published, so a lock-free reader that sees a code can always decode
    it.
    """

    __slots__ = ("values", "_codes", "_lock")

    #: ``repro-lint``'s lock-discipline contract: interning mutates these
    #: under ``self._lock`` (the lock-free hit path only *reads*).
    _locked_fields = ("values", "_codes")

    def __init__(self) -> None:
        self.values: list = []
        self._codes: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, value) -> int:
        """The code of ``value``, interning it on first sight."""
        try:
            return self._codes[value]
        except KeyError:
            with self._lock:
                codes = self._codes  # re-read: encode_column swaps it
                code = codes.get(value)
                if code is None:
                    code = len(self.values)
                    self.values.append(value)
                    codes[value] = code
                return code

    def encode_column(self, column: Iterable, n: int) -> np.ndarray:
        """The codes of a column's ``n`` cells as an int64 array,
        interning first sightings — the bulk form of ``[self.encode(v)
        for v in column]``, with equal codes, ``values`` and first-seen
        order.

        One hash per cell, in one C-level pass under the lock:
        ``merged.setdefault(v, len(merged))`` over a copy of the code
        table (``dict.copy`` clones the table without re-hashing) returns
        a known value's code, or appends a first sighting with the next
        dense code, its key being the first cell of its ``==``-class.
        The new keys then extend ``values``, and only after that is the
        merged table published.
        """
        with self._lock:
            codes = self._codes
            merged = codes.copy()
            out = np.fromiter(
                map(merged.setdefault, column, map(len, repeat(merged))),
                dtype=np.int64,
                count=n,
            )
            if len(merged) > len(codes):
                # Decode table first, then publish: a lock-free reader
                # that sees a code can always decode it.
                self.values.extend(islice(merged, len(codes), None))
                self._codes = merged
        return out

    def code_of(self, value) -> int | None:
        """The code of ``value`` without interning (``None`` when unseen)."""
        return self._codes.get(value)

    def decode(self, code: int):
        return self.values[code]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Dictionary({len(self.values)} values)"


class Codec:
    """Per-database registry of attribute dictionaries.

    Encoded twins of relations are cached on the relation object itself
    (keyed by codec identity), so a relation shared between databases, or
    re-added after a plan invalidation, is encoded exactly once per codec.
    """

    __slots__ = ("dictionaries",)

    def __init__(self) -> None:
        self.dictionaries: dict[str, Dictionary] = {}

    def dictionary(self, attr: str) -> Dictionary:
        d = self.dictionaries.get(attr)
        if d is None:
            d = self.dictionaries[attr] = Dictionary()
        return d

    def total_values(self) -> int:
        """Total interned values across every attribute dictionary — the
        long-uptime memory proxy the serving layer caps (cold entries are
        evicted wholesale by rebuilding the codec from the live stored
        relations; codes are append-only, so per-entry eviction would
        break the stability contract)."""
        return sum(len(d) for d in self.dictionaries.values())

    # -- rows ----------------------------------------------------------
    def encode_row(self, schema: Sequence[str], row: Sequence) -> tuple:
        return tuple(
            self.dictionary(a).encode(v) for a, v in zip(schema, row)
        )

    def decode_row(self, schema: Sequence[str], row: Sequence) -> tuple:
        dicts = self.dictionaries
        return tuple(dicts[a].values[c] for a, c in zip(schema, row))

    def decode_tuples(
        self, schema: Sequence[str], rows: Iterable[Sequence]
    ) -> list[tuple]:
        tables = [self.dictionary(a).values for a in schema]
        # Unrolled small widths: result decoding is on the hot boundary
        # for large outputs, and the generic per-cell genexpr costs ~3x.
        if len(tables) == 2:
            t0, t1 = tables
            return [(t0[a], t1[b]) for a, b in rows]
        if len(tables) == 3:
            t0, t1, t2 = tables
            return [(t0[a], t1[b], t2[c]) for a, b, c in rows]
        if len(tables) == 4:
            t0, t1, t2, t3 = tables
            return [(t0[a], t1[b], t2[c], t3[d]) for a, b, c, d in rows]
        return [
            tuple(tbl[c] for tbl, c in zip(tables, row)) for row in rows
        ]

    # -- relations -----------------------------------------------------
    def encode_relation(self, relation: Relation) -> Relation:
        """The encoded twin of ``relation`` (cached on the relation).

        Each column is bulk-interned (:meth:`Dictionary.encode_column`)
        straight into one row of a ``(width, n)`` int64 array, which is
        the twin's whole store: rows and Python-int columns materialize
        only when a consumer reads them.
        """
        cached = relation.encoded_twin(self)
        if cached is not None:
            return cached
        schema = relation.schema
        if schema:
            n = len(relation)
            codes = np.empty((len(schema), n), dtype=np.int64)
            for j, a in enumerate(schema):
                codes[j] = self.dictionary(a).encode_column(
                    map(itemgetter(j), relation.tuples), n
                )
            # Encoding is injective per attribute, hence injective on
            # tuples: the twin inherits distinctness.
            twin = Relation.from_codes(relation.name, schema, codes)
        else:
            twin = Relation(relation.name, schema, relation.tuples, distinct=True)
        relation.cache_encoded_twin(self, twin)
        return twin

    def renumber_relation(self, relation: Relation, old_twin: Relation) -> Relation:
        """The twin of ``relation`` under this codec, remapped from
        ``old_twin`` (its twin under another codec) — compaction without
        re-hashing every cell.

        Per column: the live old codes in first-seen order
        (``np.unique``'s first indices, sorted), the decoded value at
        each one's first cell as the class representative, one
        :meth:`Dictionary.encode_column` of those representatives (one
        hash per live value, not per cell), and a gather from old code
        to new code.  That interns exactly the values, in
        exactly the order, that :meth:`encode_relation` on ``relation``
        would: the same ``values`` lists and the same codes.
        """
        cached = relation.encoded_twin(self)
        if cached is not None:
            return cached
        old = old_twin.code_columns()
        if old is None:
            return self.encode_relation(relation)
        codes = np.empty_like(old)
        rows = relation.tuples
        for j, a in enumerate(relation.schema):
            column = old[j]
            if not column.size:
                continue
            _, first = np.unique(column, return_index=True)
            first.sort()
            live = column[first]
            table = np.empty(int(live.max()) + 1, dtype=np.int64)
            table[live] = self.dictionary(a).encode_column(
                [rows[p][j] for p in first.tolist()], live.size
            )
            codes[j] = table[column]
        twin = Relation.from_codes(relation.name, relation.schema, codes)
        relation.cache_encoded_twin(self, twin)
        return twin

    def decode_relation(self, relation: Relation, name: str | None = None) -> Relation:
        return Relation(
            name or relation.name,
            relation.schema,
            self.decode_tuples(relation.schema, relation.tuples),
            distinct=True,
        )

"""The dictionary-encoded data plane: round trips, sharing, stability.

Satellite coverage for the columnar encoding PR:

* **Round trips** — ``decode(encode(v)) == v`` for heterogeneous value
  populations (hypothesis property), column-wise relation encoding
  included.
* **Sharing** — relations sharing an attribute name share its dictionary
  (codes compare equal iff values do — the join contract), via the
  per-database :class:`~repro.engine.dictionary.Codec`.
* **Stability** — ``Database.add`` appends codes, never renumbers:
  existing twins, plans and dense guard tables stay valid.
* **The dense-domain fast path** — single-attribute guard steps flatten
  to ``GUARD_DENSE`` tables exactly when the code domain is dense, with
  out-of-range codes (values interned after compilation) behaving as
  misses, like any unseen key.
* **Ingest** — bulk column interning equals the per-cell loop (also
  under racing threads), encoded twins hold int64 code columns and build
  rows only on first read, and compaction by renumbering equals a full
  re-encode.
* **Deferred encoding** — a database built with ``encode=False`` interns
  nothing until its first query, then every engine produces identical
  results and bit-identical ``tuples_touched`` to an eagerly encoded one,
  both equal to the naive reference join
  (:func:`differential.assert_lazy_equivalence`); compaction of a
  partially encoded database equals a full re-encode.  The batch backends
  are pinned against per-row ``reference_expand_tuple`` through
  ``assert_batch_backend_equivalence`` (driven from
  ``test_kernel_equivalence.py`` over the shared corpus).
"""

import threading
from contextvars import copy_context

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from differential import (
    ENGINES,
    MANDATORY_ENGINES,
    all_instances,
    assert_lazy_equivalence,
    mixed_type_midrun_instance,
    random_simple_key_workload,
)
from repro.engine.database import Database
from repro.engine.dictionary import Codec, Dictionary
from repro.engine.expansion_plan import GUARD, GUARD_DENSE, densify_lookup
from repro.engine.ops import WorkCounter
from repro.engine.reference import reference_expand_tuple
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet

values_strategy = st.one_of(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.text(max_size=6),
    st.tuples(st.integers(0, 99), st.integers(0, 99)),
    st.booleans(),
    st.none(),
)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(values_strategy, max_size=40))
def test_dictionary_round_trip(values):
    d = Dictionary()
    codes = [d.encode(v) for v in values]
    assert all(isinstance(c, int) and c >= 0 for c in codes)
    for v, c in zip(values, codes):
        assert d.decode(c) == v
        # Interning is idempotent and stable.
        assert d.encode(v) == c
        assert d.code_of(v) == c
    assert len(d) == len({id_key(v) for v in values})


def id_key(value):
    """Python dict-key identity: ``1``/``1.0``/``True`` share a slot."""
    return (value, )  # tuples hash/eq like their contents


def test_equal_values_share_a_code():
    d = Dictionary()
    assert d.encode(1) == d.encode(1.0) == d.encode(True)
    assert d.decode(d.encode(1.0)) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(values_strategy, values_strategy), min_size=1, max_size=30
    )
)
def test_relation_encode_decode_round_trip(rows):
    codec = Codec()
    rel = Relation("R", ("x", "y"), rows)
    twin = codec.encode_relation(rel)
    assert twin.schema == rel.schema
    assert len(twin) == len(rel)
    assert twin.columns_all_int() == (True, True)
    decoded = codec.decode_tuples(rel.schema, twin.tuples)
    assert set(decoded) == set(rel.tuples)
    # The twin caches on the relation: same codec → same object.
    assert codec.encode_relation(rel) is twin


# ----------------------------------------------------------------------
# Sharing and stability
# ----------------------------------------------------------------------

def test_dictionaries_shared_across_relations():
    """Same attribute name → same dictionary → join-compatible codes."""
    db = Database(
        [
            Relation("R", ("x", "y"), [(1, "a"), (2, "b")]),
            Relation("S", ("y", "z"), [("a", 7), ("c", 8)]),
        ],
    )
    d_y = db.codec.dictionary("y")
    r_twin, s_twin = db.runtime("R"), db.runtime("S")
    r_y = {t[1] for t in r_twin.tuples}
    s_y = {t[0] for t in s_twin.tuples}
    # "a" got one code, visible from both relations.
    assert d_y.code_of("a") in r_y
    assert d_y.code_of("a") in s_y
    assert d_y.code_of("c") not in r_y


def test_codes_stable_under_database_add():
    db = Database(
        [Relation("R", ("x", "y"), [(10, 20), (11, 21)])]
    )
    twin_before = db.runtime("R")
    snapshot = {
        attr: list(d.values) for attr, d in db.codec.dictionaries.items()
    }
    db.add(Relation("S", ("y", "z"), [(20, 99), (77, 100)]))
    # Existing codes are untouched (appended only) and the twin object is
    # exactly the one encoded at construction time.
    assert db.runtime("R") is twin_before
    for attr, values in snapshot.items():
        assert db.codec.dictionary(attr).values[: len(values)] == values
    # The shared attribute reuses R's code for 20 and appends for 77.
    d_y = db.codec.dictionary("y")
    assert db.runtime("S").tuples[0][0] == d_y.code_of(20)
    assert d_y.code_of(77) >= len(snapshot["y"])


def test_encoding_defaults_on_and_knob_disables():
    """Encoding is eager by default; ``encode=False`` disables the eager
    pass: no twin and no interned value until the first use."""
    rel = Relation("R", ("x", "y"), [(1, "a"), (2, "b")])
    eager = Database([rel])
    assert eager._runtime and eager.codec.total_values() == 4
    lazy = Database([rel], encode=False)
    assert not lazy._runtime and lazy.codec.total_values() == 0
    assert lazy.runtime("R").code_columns().shape == (2, 2)
    assert lazy.codec.total_values() == 4
    with pytest.raises(ValueError):
        Database([], encode=False, codec=Codec())


# ----------------------------------------------------------------------
# The dense-domain fast path
# ----------------------------------------------------------------------

def _guarded_db():
    guard = Relation("G", ("x", "y"), [(i, i * 10) for i in range(50)])
    return Database(
        [guard, Relation("R", ("x",), [(i,) for i in range(50)])],
        fds=FDSet([FD("x", "y")]),
    )


def test_single_attr_dense_domain_uses_flat_table():
    db = _guarded_db()
    plan = db.expansion_plan(("x",))
    (step,) = plan.steps
    assert step[0] == GUARD_DENSE
    assert isinstance(step[2], list)
    # The relation plan keeps the (multi-image) hash lookup.
    assert db.relation_plan(("x",)).steps[0][0] == GUARD


def test_sparse_domain_keeps_hash_lookup():
    lookup = {(i * 10_000,): ("img",) for i in range(10)}
    assert densify_lookup(lookup, domain_size=100_000) is None
    dense = densify_lookup({(3,): ("img",)}, domain_size=10)
    assert dense[3] == ("img",)
    assert dense[4] is None


def test_out_of_range_code_is_a_miss():
    """A value interned *after* the dense table compiled (e.g. by
    ``expand_tuple`` on unseen input) must dangle, exactly like the
    reference's unseen-key miss on raw values."""
    db = _guarded_db()
    counter_enc, counter_ref = WorkCounter(), WorkCounter()
    assert db.expand_tuple({"x": 3}, counter=counter_enc) == {"x": 3, "y": 30}
    assert reference_expand_tuple(
        db, {"x": 3}, counter=counter_ref
    ) == {"x": 3, "y": 30}
    # 999 was never interned: its fresh code exceeds the dense table.
    assert db.expand_tuple({"x": 999}, counter=counter_enc) is None
    assert reference_expand_tuple(db, {"x": 999}, counter=counter_ref) is None
    assert counter_enc.tuples_touched == counter_ref.tuples_touched


def test_expand_relation_public_api_stays_decoded():
    db = _guarded_db()
    out = db.expand_relation(db["R"])
    assert out.schema == ("x", "y")
    assert (3, 30) in set(out.tuples)


def test_udf_consistent_interns_nothing():
    """The value-level UDF check evaluates the UDFs on the values
    themselves: probing with unseen values grows no dictionary."""
    query, db = mixed_type_midrun_instance(0)
    before = db.codec.total_values()
    assert db.udf_consistent({"w": 1, "x": 2, "y": 3})
    assert not db.udf_consistent({"w": 100, "x": 200, "y": 7})
    assert db.udf_consistent({"w": 100, "x": 200})  # y not covered
    assert db.codec.total_values() == before


def test_decoded_plane_variants_are_mandatory():
    """Every engine runs on codes, so the one check they cannot all share
    a bug with is a mandatory oracle on decoded values: the ``reference``
    engine joins the raw relations and never touches the codec — on a
    deferred-encoding database it interns nothing and builds no twin,
    yet answers what the encoded engines answer."""
    assert "reference" in MANDATORY_ENGINES
    query, db = random_simple_key_workload(0)
    lazy = Database(
        list(db.relations.values()), fds=db.fds, udfs=list(db.udfs),
        encode=False,
    )
    schema = tuple(sorted(query.variables))
    decoded = ENGINES["reference"](query, lazy, schema)
    assert lazy.codec.total_values() == 0 and not lazy._runtime
    assert decoded == ENGINES["generic"](query, db, schema)


# ----------------------------------------------------------------------
# Deferred encoding (encode=False)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_plane_equivalence_on_corpus(seed):
    for query, db in all_instances(seed):
        assert_lazy_equivalence(query, db)


@pytest.mark.parametrize("seed", range(4))
def test_plane_equivalence_on_simple_key_workloads(seed):
    query, db = random_simple_key_workload(seed)
    assert_lazy_equivalence(query, db)


def test_rebuild_codec_on_partially_encoded_database_equals_re_encode():
    """Compaction encodes the twins a deferred database never built and
    renumbers the rest: the result equals a fresh eager database's
    dictionaries and twins, relation for relation."""
    rels = [
        Relation("R", ("x", "y"), [(3, "p"), (1.0, "q"), (True, "r")]),
        Relation("S", ("y", "z"), [("q", 9), ("p", (1, 2))]),
        Relation("T", ("z", "x"), [((1, 2), 7), (9, 3)]),
    ]
    lazy = Database(rels, encode=False)
    lazy.runtime("T")  # only T is encoded, out of add order
    lazy.codec.dictionary("y").encode("cold")  # a mid-run leftover
    lazy.rebuild_codec()
    eager = Database(rels)
    assert {a: d.values for a, d in lazy.codec.dictionaries.items()} == {
        a: d.values for a, d in eager.codec.dictionaries.items()
    }
    for rel in rels:
        assert lazy.runtime(rel.name).code_columns().tolist() == (
            eager.runtime(rel.name).code_columns().tolist()
        )


# ----------------------------------------------------------------------
# Ingest: bulk column interning, lazy twins, compaction by renumbering
# ----------------------------------------------------------------------

NAN_A, NAN_B = float("nan"), float("nan")
#: Cross-type ``==``-classes (1/1.0/True, 0/0.0/False), two distinct NaN
#: objects (distinct dict keys, each equal to itself by identity), nested
#: tuples and strings.
MIXED_POOL = (
    1, 1.0, True, 0, 0.0, False, NAN_A, NAN_B, "a", "b", "",
    (1, 2), (1.0, 2), ((1, 2), (3, "x")), ((1, 2), (3, "y")), None,
)
mixed_cells = st.one_of(
    st.sampled_from(MIXED_POOL), st.integers(-3, 3), st.text(max_size=2)
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(mixed_cells, max_size=25),
    st.lists(st.lists(mixed_cells, max_size=25), max_size=3),
)
def test_bulk_encode_equals_per_cell_encode(prefix, columns):
    """``encode_column`` on an empty or pre-populated dictionary yields
    the codes, ``values`` and first-seen order of a per-cell loop."""
    bulk, cellwise = Dictionary(), Dictionary()
    for value in prefix:  # pre-populate both the same way
        bulk.encode(value)
        cellwise.encode(value)
    for column in columns:
        codes = bulk.encode_column(iter(column), len(column))
        assert codes.dtype == np.int64
        assert codes.tolist() == [cellwise.encode(v) for v in column]
        assert bulk.values == cellwise.values
        assert [bulk.code_of(v) for v in bulk.values] == list(
            range(len(bulk.values))
        )


def test_bulk_and_single_encodes_race_to_one_code_per_value():
    d = Dictionary()
    columns = [
        [(i * 7 + k * 31) % 400 for i in range(600)] for k in range(4)
    ]
    singles = [(i * 11) % 450 for i in range(900)]
    bulk_results: list = []
    single_results: list = []

    def bulk(column):
        bulk_results.append((column, d.encode_column(column, len(column))))

    def single():
        single_results.append({v: d.encode(v) for v in singles})

    threads = [
        threading.Thread(target=copy_context().run, args=(bulk, c))
        for c in columns
    ]
    threads += [
        threading.Thread(target=copy_context().run, args=(single,))
        for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Dense codes, one code per value, and every racing answer agrees.
    assert len(d.values) == len(d._codes) == len(set(d.values))
    assert sorted(d._codes.values()) == list(range(len(d.values)))
    for column, codes in bulk_results:
        for v, c in zip(column, codes.tolist()):
            assert d.encode(v) == c and d.decode(c) == v
    for mapping in single_results:
        for v, c in mapping.items():
            assert d.encode(v) == c and d.decode(c) == v


def _rows_built(relation: Relation) -> bool:
    """Has ``relation`` materialized its row tuples? (Reads the slot
    without triggering the lazy build.)"""
    try:
        Relation.tuples.__get__(relation)
    except AttributeError:
        return False
    return True


def test_lazy_twin_answers_len_and_columns_without_rows():
    rows = [((i % 5, "k"), i * 1.5) for i in range(40)]
    rel = Relation("R", ("x", "y"), rows)
    twin = Codec().encode_relation(rel)
    assert not _rows_built(twin)
    assert len(twin) == 40 and twin  # truthiness reads len()
    codes = twin.code_columns()
    assert codes.dtype == np.int64 and codes.shape == (2, 40)
    assert not codes.flags.writeable
    assert twin.column_store() is codes
    assert not _rows_built(twin)
    expected = list(zip(*codes.tolist()))
    assert list(twin.tuples) == expected
    assert _rows_built(twin)
    assert twin.tuples is twin.tuples  # built once, then a slot read
    assert twin.columns() == tuple(map(tuple, codes.tolist()))


def test_code_twins_are_validated_like_distinct_rows():
    from repro.engine import relation as relation_mod

    assert relation_mod._CHECK_DISTINCT  # tests/conftest.py turns it on
    duplicate_rows = np.array([[1, 1], [2, 2]], dtype=np.int64)
    with pytest.raises(AssertionError, match="distinct=True violated"):
        Relation.from_codes("R", ("x", "y"), duplicate_rows)
    with pytest.raises(ValueError, match="do not fit"):
        Relation.from_codes("R", ("x",), np.array([[1, 2]], dtype=np.int64).T)


def _cellwise_twins(codec: Codec, relations) -> dict:
    """Reference encode: one ``Dictionary.encode`` per cell, relations
    and columns in order."""
    return {
        rel.name: list(zip(*(
            [codec.dictionary(a).encode(v) for v in column]
            for a, column in zip(rel.schema, rel.columns())
        )))
        for rel in relations
    }


def test_compaction_by_renumbering_equals_a_full_re_encode():
    """Two databases on one tenant codec, with cold values interned
    mid-run and cross-type ``==``-classes whose old representative is not
    the live first-seen value: compaction renumbers into exactly the
    dictionaries and twins of re-encoding the stored relations."""
    shared = Codec()
    # A cold UDF-style output pins class {1, 1.0, True} to ``1``; the
    # stored relations only ever hold ``1.0`` and ``True``.
    shared.dictionary("x").encode(1)
    shared.dictionary("z").encode("cold")
    r = Relation("R", ("x", "y"), [(1.0, "p"), (2, "q"), (True, "r"), (3, "p")])
    s = Relation("S", ("y", "z"), [("q", NAN_A), ("p", (1, 2)), ("r", NAN_B)])
    t = Relation("T", ("z", "x"), [((1, 2), 4), (NAN_B, 2), ("new", 1)])
    db1 = Database([r, s], codec=shared)
    db2 = Database([t, r], codec=shared)  # R shared by both databases
    fresh = Codec()
    db1.rebuild_codec(fresh)
    db2.rebuild_codec(fresh)

    reference = Codec()
    expected = _cellwise_twins(reference, [r, s])
    expected_t = _cellwise_twins(reference, [t])
    assert {a: d.values for a, d in fresh.dictionaries.items()} == {
        a: d.values for a, d in reference.dictionaries.items()
    }
    assert fresh.dictionary("x").values[0] == 1.0  # live first-seen
    assert type(fresh.dictionary("x").values[0]) is float
    for name in ("R", "S"):
        assert list(db1.runtime(name).tuples) == expected[name]
    assert list(db2.runtime("T").tuples) == expected_t["T"]
    assert db2.runtime("R") is db1.runtime("R")  # one twin per codec
    assert db1.codec is db2.codec is fresh


def test_cold_fdchain_query_leaves_guard_twins_without_rows():
    """The FD-chain guards G0–G7 and R are only sized and read through
    their code columns: a cold query builds rows for U alone, and R's
    choose depth runs on its sorted join block, not a hash index."""
    from repro.datagen.large import fdchain_order, large_fdchain_workload
    from repro.engine.generic_join import generic_join
    from repro.serve.admission import certified_bound

    query, db = large_fdchain_workload(10_000)
    certified_bound(query, db)
    out, stats = generic_join(query, db, order=fdchain_order(), fd_aware=True)
    assert len(out) and stats.tuples_touched
    built = {name for name in db.relations if _rows_built(db.runtime(name))}
    assert built == {"U"}
    assert db.runtime("R")._indexes == {}

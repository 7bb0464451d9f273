"""Reusable differential-testing machinery for every engine.

This module is the *contract* a new execution backend must satisfy before
it ships (see PERFORMANCE.md, "The differential testing contract"):

1. **Result agreement** — on every randomized instance, the engine's
   output relation must equal every other engine's output
   (:func:`run_all_engines` / :func:`assert_engines_agree`).
2. **Work transparency** — any path that executes expansion work must
   charge ``tuples_touched`` bit-identically to the naive reference
   formulation in :mod:`repro.engine.reference`
   (:func:`assert_batch_backend_equivalence`,
   :func:`assert_leapfrog_substrate_equivalence`).

The registry below names every current engine; ``MANDATORY_ENGINES`` are
the ones that must run on every instance the generators produce.  The
batched plan backends (the ``ExpansionPlan.execute_batch`` row-loop and
the forced-on block roundtrip) and the positional-kernel leapfrog port
are registered as mandatory — a regression in either fails this
harness, not just a downstream benchmark.

Since the dictionary-encoded data plane became the default, the plain
registry entries all exercise the *encoded* kernel.  The
``*-decoded-plane`` variants re-run the key engines on a codec-less
rebuild of the instance (the PR3 kernel) and are mandatory too:
encoded-vs-decoded agreement — results *and* bit-identical
``tuples_touched``, asserted by :func:`assert_plane_equivalence` — is the
differential test of the encoding itself, with
:func:`assert_batch_backend_equivalence` pinning both planes' batch
backends against per-row ``reference_expand_tuple`` (the decoded-value
specification).  The ``*-ndarray-frontier`` variants (one per algorithm
family) force the array-of-int64 block backend onto every encoded batch;
:func:`assert_ndarray_backend_equivalence` pins whole-engine work
profiles bit-identical with the backend forced on vs off, and
:func:`mixed_type_midrun_instance` generates the cross-type /
mid-run-interning corpus both sharp-edge fixes are pinned on.

Test files import from here; this module itself is not collected (no
``test_`` prefix).
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Callable

from repro.core.chain_algorithm import chain_algorithm
from repro.core.csma import csma
from repro.core.simple_keys import all_guarded_simple_keys, closure_trick_join
from repro.core.sma import SMAError, submodularity_algorithm
from repro.datagen.from_lattice import database_from_world, query_from_lattice
from repro.engine.binary_join import binary_join_plan
from repro.engine.database import Database
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import leapfrog_triejoin
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.engine.reference import reference_expand_tuple
from repro.fds.fd import FD, FDSet
from repro.fds.udf import UDF
from repro.lattice.builders import fig4_lattice, fig9_lattice, lattice_from_query
from repro.lattice.chains import best_chain_bound
from repro.lp.cllp import ConditionalLLP
from repro.query.query import Atom, Query


@contextmanager
def lp_backend_forced(backend: str):
    """Temporarily force ``REPRO_LP_BACKEND`` for a differential run."""
    # Save/restore of the raw variable, not a knob read.
    saved = os.environ.get("REPRO_LP_BACKEND")  # repro-lint: disable=knob-discipline
    os.environ["REPRO_LP_BACKEND"] = backend
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_LP_BACKEND", None)
        else:
            os.environ["REPRO_LP_BACKEND"] = saved


@contextmanager
def ndarray_forced(mode: str):
    """Temporarily force the ndarray frontier backend ``on``/``off``/``auto``."""
    from repro.engine import frontier

    saved = frontier.NDARRAY_MODE
    frontier.NDARRAY_MODE = mode
    try:
        yield
    finally:
        frontier.NDARRAY_MODE = saved


@contextmanager
def shard_forced(mode: str, workers: int | None = None):
    """Temporarily force the sharded frontier backend ``on``/``off``/
    ``auto`` (and optionally the worker count).  Forcing ``on`` also
    forces the block backend: shards only exist on blocks."""
    from repro.engine import shard

    saved = (shard.SHARD_MODE, shard.SHARD_WORKERS)
    shard.SHARD_MODE = mode
    if workers is not None:
        shard.SHARD_WORKERS = workers
    try:
        yield
    finally:
        shard.SHARD_MODE, shard.SHARD_WORKERS = saved


# ----------------------------------------------------------------------
# Randomized instance generators
# ----------------------------------------------------------------------

def random_world_instance(seed: int) -> tuple[Query, Database]:
    """A random world over a paper lattice → query + runnable database.

    The world is sampled uniformly, so input projections may or may not
    satisfy the declared fds — exercising both the functional and the
    multi-image guard paths.
    """
    rng = random.Random(seed)
    lattice_maker = [fig4_lattice, fig9_lattice][seed % 2]
    lat, inputs = lattice_maker()
    query, var_to_ji = query_from_lattice(lat, inputs)
    variables = sorted(var_to_ji)
    domain = rng.randint(2, 4)
    n_tuples = rng.randint(5, 40)
    world = {
        tuple(rng.randrange(domain) for _ in variables)
        for _ in range(n_tuples)
    }
    return query, database_from_world(query, variables, sorted(world))


def _random_cyclic_key_instance(
    rng: random.Random,
    domain_range: tuple[int, int],
    size_range: tuple[int, int],
    fixed_size: bool,
) -> tuple[Query, Database]:
    """A random 3-4 atom cyclic query where one relation guards a random
    simple key, realized as a functional instance.

    ``fixed_size`` draws one relation size for the whole instance (the
    historical fuzz-workload shape) instead of one per atom.
    """
    n_atoms = rng.choice([3, 4])
    variables = list("wxyz")[:n_atoms]
    atoms = [
        Atom(f"R{k}", (variables[k], variables[(k + 1) % n_atoms]))
        for k in range(n_atoms)
    ]
    key_atom = rng.randrange(n_atoms)
    key_var, dep_var = atoms[key_atom].attrs
    fds = FDSet([FD(key_var, dep_var)], variables)
    query = Query(atoms, fds)
    domain = rng.randint(*domain_range)
    size = rng.randint(*size_range) if fixed_size else None
    relations = []
    for k, atom in enumerate(atoms):
        if k == key_atom:
            shift = rng.randrange(domain)
            tuples = {(v, (v * 3 + shift) % domain) for v in range(domain)}
        else:
            tuples = {
                (rng.randrange(domain), rng.randrange(domain))
                for _ in range(size if fixed_size else rng.randint(*size_range))
            }
        relations.append(Relation(atom.name, atom.attrs, tuples))
    return query, Database(relations, fds=fds)


def random_guarded_instance(seed: int) -> tuple[Query, Database]:
    """A small random cyclic simple-key instance (expansion-level corpus)."""
    return _random_cyclic_key_instance(
        random.Random(seed + 1000),
        domain_range=(3, 8),
        size_range=(5, 30),
        fixed_size=False,
    )


def random_simple_key_workload(seed: int) -> tuple[Query, Database]:
    """A larger random cyclic simple-key workload (cross-engine corpus;
    every engine applies)."""
    return _random_cyclic_key_instance(
        random.Random(seed),
        domain_range=(4, 10),
        size_range=(10, 60),
        fixed_size=True,
    )


#: ``==``-equal cross-type representatives per small integer: ``1`` may
#: surface as ``1``, ``1.0`` or ``True`` — all three hash equal, share a
#: dictionary code, and decode to the first-seen representative (the
#: pinned semantics of ``repro.engine.dictionary``).
_MIXED_REPS = {
    i: [i, float(i)] + ([bool(i)] if i < 2 else []) for i in range(8)
}


def mixed_type_midrun_instance(seed: int) -> tuple[Query, Database]:
    """A 4-cycle instance exercising the encoded plane's two sharp edges.

    * **Cross-type values** — every cell is a random ``==``-equal
      representative (``1`` vs ``1.0`` vs ``True``), so terminal outputs
      may flip representatives across planes while staying ``==``-equal.
    * **Mid-run interning** — the unguarded fd ``(w, x) → y`` evaluates a
      UDF whose sums exceed the stored ``y`` domain: fresh codes intern
      *after* the guarded ``y → z`` step's dense table compiled, and every
      backend must treat them as dangling (the value is in no guard).

    The UDF is well-defined on ``==``-classes (``w + x``), as the pinned
    semantics require of opaque predicates.
    """
    rng = random.Random(seed + 5000)

    def rep(i: int):
        return rng.choice(_MIXED_REPS[i])

    atoms = [
        Atom("R", ("w", "x")),
        Atom("S", ("x", "y")),
        Atom("T", ("y", "z")),
        Atom("U", ("z", "w")),
    ]
    variables = ["w", "x", "y", "z"]
    fds = FDSet([FD(frozenset({"w", "x"}), "y"), FD("y", "z")], variables)
    query = Query(atoms, fds)
    h = UDF("h", ("w", "x"), "y", lambda w, x: w + x)
    # The y → z guard: functional modulo == (one row per y-class).
    zmap = {y: (y * 5 + 1) % 7 for y in range(4)}
    r, s, t, u = set(), set(), set(), set()
    for y, zv in zmap.items():
        t.add((rep(y), rep(zv)))
    for _ in range(rng.randint(6, 16)):
        w, x = rng.randrange(4), rng.randrange(4)
        r.add((rep(w), rep(x)))
        s.add((rep(x), rep(rng.randrange(5))))
        u.add((rep(rng.randrange(7)), rep(w)))
    # A few guaranteed answers so the instance is not vacuously empty.
    for _ in range(3):
        w, x = rng.randrange(2), rng.randrange(2)
        y = w + x
        if y in zmap:
            r.add((rep(w), rep(x)))
            s.add((rep(x), rep(y)))
            u.add((rep(zmap[y]), rep(w)))
    db = Database(
        [
            Relation("R", ("w", "x"), r),
            Relation("S", ("x", "y"), s),
            Relation("T", ("y", "z"), t),
            Relation("U", ("z", "w"), u),
        ],
        fds=fds,
        udfs=[h],
    )
    return query, db


def all_instances(seed: int):
    """The expansion-level differential corpus: one world instance, one
    guarded instance and one mixed-type/mid-run-interning instance per
    seed."""
    yield random_world_instance(seed)
    yield random_guarded_instance(seed)
    yield mixed_type_midrun_instance(seed)


# ----------------------------------------------------------------------
# The engine registry
# ----------------------------------------------------------------------

def _run_binary(query, db, schema):
    out, _ = binary_join_plan(query, db)
    return set(out.project(schema).tuples)


def _run_chain(query, db, schema):
    lattice, inputs = lattice_from_query(query)
    logs = {k: db.log_sizes()[k] for k in inputs}
    value, chain, _ = best_chain_bound(lattice, inputs, logs)
    if chain is None or value == float("inf"):
        return None
    out, _ = chain_algorithm(query, db, lattice, inputs, chain)
    return set(out.project(schema).tuples)


def _run_sma(query, db, schema):
    lattice, inputs = lattice_from_query(query)
    try:
        out, _ = submodularity_algorithm(query, db, lattice, inputs)
    except SMAError:
        return None
    return set(out.project(schema).tuples)


def _run_csma(query, db, schema):
    lattice, inputs = lattice_from_query(query)
    result = csma(query, db, lattice, inputs)
    return set(result.relation.project(schema).tuples)


def _run_closure_trick(query, db, schema):
    if not all_guarded_simple_keys(query):
        return None
    out, _ = closure_trick_join(query, db)
    return set(out.project(schema).tuples)


def _vars_all_in_atoms(query) -> bool:
    in_atoms = set().union(*(a.varset for a in query.atoms))
    return in_atoms >= set(query.variables)


def _run_generic(query, db, schema):
    if not _vars_all_in_atoms(query):
        return None
    out, _ = generic_join(query, db, fd_aware=True)
    return set(out.project(schema).tuples)


def _run_lftj(query, db, schema):
    if not _vars_all_in_atoms(query):
        return None
    out, _ = leapfrog_triejoin(query, db)
    return set(out.project(schema).tuples)


def _run_lftj_reference(query, db, schema):
    if not _vars_all_in_atoms(query):
        return None
    out, _ = leapfrog_triejoin(query, db, expansion="reference")
    return set(out.project(schema).tuples)


def _run_chain_exact_lp(query, db, schema):
    """The chain engine with every LP solved on the exact rational backend."""
    with lp_backend_forced("exact"):
        return _run_chain(query, db, schema)


def _run_csma_exact_lp(query, db, schema):
    """CSMA with CLLP primal/dual solved on the exact rational backend."""
    with lp_backend_forced("exact"):
        return _run_csma(query, db, schema)


#: Memo for decoded-plane rebuilds, keyed by source-db identity (the
#: source is retained so the id cannot be recycled).  Several mandatory
#: engines re-run each fuzz instance decoded; sharing one rebuild shares
#: its plan/guard/index caches across them.
_DECODED_TWINS: dict[int, tuple[Database, Database]] = {}
_DECODED_TWINS_MAX = 16


def decoded_plane_db(db: Database) -> Database:
    """The same instance on the decoded (codec-less, PR3) kernel.

    Shares the relation objects, fds, udfs and declared bounds; only the
    execution plane differs.  Returns ``db`` itself when it already runs
    decoded; memoized per source database.
    """
    if not db.encoded:
        return db
    cached = _DECODED_TWINS.get(id(db))
    if cached is not None:
        return cached[1]
    twin = Database(
        list(db.relations.values()),
        fds=db.fds,
        udfs=list(db.udfs),
        degree_bounds=db.degree_bounds,
        encode=False,
    )
    _DECODED_TWINS[id(db)] = (db, twin)
    if len(_DECODED_TWINS) > _DECODED_TWINS_MAX:
        _DECODED_TWINS.pop(next(iter(_DECODED_TWINS)))
    return twin


def _run_generic_decoded(query, db, schema):
    if not _vars_all_in_atoms(query):
        return None
    out, _ = generic_join(query, decoded_plane_db(db), fd_aware=True)
    return set(out.project(schema).tuples)


def _run_csma_decoded(query, db, schema):
    return _run_csma(query, decoded_plane_db(db), schema)


def _run_lftj_decoded(query, db, schema):
    return _run_lftj(query, decoded_plane_db(db), schema)


def _ndarray_variant(runner: Callable) -> Callable:
    """The same engine with the ndarray frontier backend forced on for
    every encoded batch (no row threshold)."""

    def run(query, db, schema):
        with ndarray_forced("on"):
            return runner(query, db, schema)

    return run


_run_chain_ndarray = _ndarray_variant(_run_chain)
_run_sma_ndarray = _ndarray_variant(_run_sma)
_run_csma_ndarray = _ndarray_variant(_run_csma)
_run_generic_ndarray = _ndarray_variant(_run_generic)
_run_lftj_ndarray = _ndarray_variant(_run_lftj)


def _sharded_variant(runner: Callable) -> Callable:
    """The same engine with the sharded frontier backend forced on for
    every block (which transitively forces the block backend), two
    workers — every block an engine executes is hash-partitioned, run on
    the pool, and deterministically merged."""

    def run(query, db, schema):
        with shard_forced("on", workers=2):
            return runner(query, db, schema)

    return run


_run_chain_sharded = _sharded_variant(_run_chain)
_run_sma_sharded = _sharded_variant(_run_sma)
_run_csma_sharded = _sharded_variant(_run_csma)
_run_generic_sharded = _sharded_variant(_run_generic)
_run_lftj_sharded = _sharded_variant(_run_lftj)


#: name → runner(query, db, schema) -> set | None (None = not applicable).
ENGINES: dict[str, Callable] = {
    "binary": _run_binary,
    "chain": _run_chain,
    "sma": _run_sma,
    "csma": _run_csma,
    "closure-trick": _run_closure_trick,
    "generic": _run_generic,
    "lftj": _run_lftj,
    "lftj-reference-expansion": _run_lftj_reference,
    "chain-exact-lp": _run_chain_exact_lp,
    "csma-exact-lp": _run_csma_exact_lp,
    "generic-decoded-plane": _run_generic_decoded,
    "csma-decoded-plane": _run_csma_decoded,
    "lftj-decoded-plane": _run_lftj_decoded,
    "chain-ndarray-frontier": _run_chain_ndarray,
    "sma-ndarray-frontier": _run_sma_ndarray,
    "csma-ndarray-frontier": _run_csma_ndarray,
    "generic-ndarray-frontier": _run_generic_ndarray,
    "lftj-ndarray-frontier": _run_lftj_ndarray,
    "chain-sharded-frontier": _run_chain_sharded,
    "sma-sharded-frontier": _run_sma_sharded,
    "csma-sharded-frontier": _run_csma_sharded,
    "generic-sharded-frontier": _run_generic_sharded,
    "lftj-sharded-frontier": _run_lftj_sharded,
}

#: Engines that must be applicable (and agree) on every instance the
#: generators in this module produce.  The kernel-ported leapfrog and its
#: reference-substrate twin are mandatory: their agreement *is* the
#: differential test of the port.  ``csma-exact-lp`` is mandatory too:
#: every fuzz instance must evaluate correctly with *no* floating-point
#: LP in the loop (scipy demoted to an optional cross-check).  The
#: ``*-decoded-plane`` twins are mandatory for the same reason the LFTJ
#: reference substrate is: every instance must evaluate identically with
#: the dictionary encoding switched off.  The ``*-ndarray-frontier``
#: variants force the array-of-int64 backend onto every encoded batch
#: regardless of size — one per algorithm family; the three whose base
#: engines apply to every generated instance are mandatory (``chain``/
#: ``sma`` variants run whenever their base engines do), and
#: :func:`assert_ndarray_backend_equivalence` additionally pins their
#: ``tuples_touched`` bit-identical to the row-loop backend.
#: The ``*-sharded-frontier`` variants force the sharded backend onto
#: every block (two workers): parallel execution with the deterministic
#: merge must be invisible — same mandatory-coverage rule as the ndarray
#: variants, and :func:`assert_shard_sweep_equivalence` additionally
#: sweeps worker counts pinning ``tuples_touched``/digests bit-identical.
MANDATORY_ENGINES = ("binary", "csma", "generic", "lftj",
                     "lftj-reference-expansion", "csma-exact-lp",
                     "generic-decoded-plane", "csma-decoded-plane",
                     "lftj-decoded-plane", "csma-ndarray-frontier",
                     "generic-ndarray-frontier", "lftj-ndarray-frontier",
                     "csma-sharded-frontier", "generic-sharded-frontier",
                     "lftj-sharded-frontier")


def run_all_engines(query, db) -> dict[str, set]:
    """Run every applicable engine; return {name: tuple-set} aligned to the
    canonical (sorted-variable) schema."""
    schema = tuple(sorted(query.variables))
    outputs = {}
    for name, runner in ENGINES.items():
        result = runner(query, db, schema)
        if result is not None:
            outputs[name] = result
    return outputs


def assert_engines_agree(query, db, context: str = "") -> dict[str, set]:
    """Every applicable engine must produce the same result set; every
    mandatory engine must be applicable."""
    outputs = run_all_engines(query, db)
    for name in MANDATORY_ENGINES:
        assert name in outputs, f"mandatory engine {name} did not run {context}"
    reference = outputs["binary"]
    for name, result in outputs.items():
        assert result == reference, f"{name} disagrees {context}"
    return outputs


# ----------------------------------------------------------------------
# Work-transparency assertions (bit-identical tuples_touched)
# ----------------------------------------------------------------------

def _reference_tuple_rows(db, schema, out_schema, rows, counter):
    """Per-row naive expansion, aligned like ``execute_batch`` output."""
    out = []
    for row in rows:
        expanded = reference_expand_tuple(
            db, dict(zip(schema, row)), counter=counter
        )
        out.append(
            None if expanded is None
            else tuple(expanded[a] for a in out_schema)
        )
    return out


def assert_batch_backend_equivalence(db, rng: random.Random) -> None:
    """The batched plan backends ≡ the naive per-tuple reference, on both
    data planes.

    For every stored relation: build a frontier of stored + garbage rows
    and run it through (a) per-row ``reference_expand_tuple`` and (b) the
    generated row-loop.  When the database carries a codec, the same rows
    run again on the *encoded* plan (rows encoded on entry, outputs
    decoded for the comparison) through the row-loop and through the
    forced-on int64 block backend: the encoded kernels must match
    ``reference_expand_tuple`` — the decoded-value specification —
    bit-identically on results and ``tuples_touched``.
    """
    for name, rel in db.relations.items():
        plan = db.expansion_plan(rel.schema)
        rows = list(rel.tuples)[:12]
        rows += [
            tuple(rng.randrange(12) for _ in rel.schema) for _ in range(8)
        ]
        # Duplicate rows so repeated keys reach every backend.
        rows = rows * 2

        ref_counter = WorkCounter()
        ref = _reference_tuple_rows(
            db, rel.schema, plan.out_schema, rows, ref_counter
        )

        variants = {}
        with ndarray_forced("off"):
            variants["rows"] = _run_variant(plan, rows)
        if db.encoded:
            codec = db.codec
            enc_plan = db.expansion_plan(rel.schema, encoded=True)
            assert enc_plan.out_schema == plan.out_schema
            enc_rows = [codec.encode_row(rel.schema, r) for r in rows]
            enc_variants = {}
            with ndarray_forced("off"):
                enc_variants["encoded-rows"] = _run_variant(enc_plan, enc_rows)
            # The ndarray frontier backend, forced onto every batch
            # size — the same rows (including the garbage/duplicate
            # ones and any codes interned mid-loop) must produce the
            # identical aligned output and identical counts.
            with ndarray_forced("on"):
                enc_variants["encoded-ndarray"] = _run_variant(
                    enc_plan, enc_rows
                )
            for variant, (counter, out) in enc_variants.items():
                decoded = [
                    None if r is None
                    else codec.decode_row(enc_plan.out_schema, r)
                    for r in out
                ]
                variants[variant] = (counter, decoded)

        for variant, (counter, out) in variants.items():
            assert out == ref, f"{name}: batch[{variant}] output diverges"
            assert counter.tuples_touched == ref_counter.tuples_touched, (
                f"{name}: batch[{variant}] counts "
                f"{counter.tuples_touched} != {ref_counter.tuples_touched}"
            )


def _run_variant(plan, rows):
    counter = WorkCounter()
    return counter, plan.execute_batch(rows, counter)


def lp_engine_work_profile(query, db) -> dict[str, int | None]:
    """``tuples_touched`` of the LP-driven engines (chain, SMA, CSMA) under
    the *currently configured* LP backend; ``None`` marks inapplicability."""
    lattice, inputs = lattice_from_query(query)
    logs = {k: db.log_sizes()[k] for k in inputs}
    profile: dict[str, int | None] = {}
    value, chain, _ = best_chain_bound(lattice, inputs, logs)
    if chain is None or value == float("inf"):
        profile["chain"] = None
    else:
        _, stats = chain_algorithm(query, db, lattice, inputs, chain)
        profile["chain"] = stats.tuples_touched
    try:
        _, stats = submodularity_algorithm(query, db, lattice, inputs)
        profile["sma"] = stats.tuples_touched
    except SMAError:
        profile["sma"] = None
    result = csma(query, db, lattice, inputs)
    profile["csma"] = result.stats.tuples_touched
    return profile


def engine_work_profile(query, db) -> dict[str, object]:
    """``tuples_touched`` (and LFTJ seeks) of every applicable engine on
    ``db``'s active plane."""
    profile: dict[str, object] = dict(lp_engine_work_profile(query, db))
    _, bj = binary_join_plan(query, db)
    profile["binary"] = bj.tuples_touched
    if _vars_all_in_atoms(query):
        _, gj = generic_join(query, db, fd_aware=True)
        profile["generic"] = gj.tuples_touched
        counter = WorkCounter()
        _, lf = leapfrog_triejoin(query, db, counter=counter)
        profile["lftj"] = (lf.tuples_touched, lf.seeks, counter.tuples_touched)
    return profile


def assert_plane_equivalence(query, db) -> None:
    """The dictionary-encoded plane ≡ the decoded plane, bit-identically.

    Encoding is a per-attribute bijection, so *every* count the engines
    report — expansion touches, join emissions, LFTJ seeks — must be
    identical between a codec-backed database and its codec-less rebuild,
    and the (decoded) results must agree.  Any drift means the encoded
    kernel changed semantics, not just speed.
    """
    encoded_db = db if db.encoded else Database(
        list(db.relations.values()),
        fds=db.fds,
        udfs=list(db.udfs),
        degree_bounds=db.degree_bounds,
        encode=True,
    )
    decoded_db = decoded_plane_db(db)
    schema = tuple(sorted(query.variables))
    enc_profile = engine_work_profile(query, encoded_db)
    dec_profile = engine_work_profile(query, decoded_db)
    assert enc_profile == dec_profile, (
        f"encoded-vs-decoded work drift: {enc_profile} != {dec_profile}"
    )
    assert _run_csma(query, encoded_db, schema) == _run_csma(
        query, decoded_db, schema
    )


def assert_ndarray_backend_equivalence(query, db) -> None:
    """The ndarray frontier backend ≡ the row-loop backend, bit-identically.

    Runs every engine's work profile twice on the encoded plane — once
    with the array-of-int64 backend forced onto every batch, once with it
    forced off (the generated row-loop) — and
    asserts identical ``tuples_touched`` everywhere plus identical CSMA
    results.  Any drift means the block backend changed the measured work
    shape, not just the constant factor.
    """
    encoded_db = db if db.encoded else Database(
        list(db.relations.values()),
        fds=db.fds,
        udfs=list(db.udfs),
        degree_bounds=db.degree_bounds,
        encode=True,
    )
    schema = tuple(sorted(query.variables))
    with ndarray_forced("on"):
        on_profile = engine_work_profile(query, encoded_db)
        on_result = _run_csma(query, encoded_db, schema)
    with ndarray_forced("off"):
        off_profile = engine_work_profile(query, encoded_db)
        off_result = _run_csma(query, encoded_db, schema)
    assert on_profile == off_profile, (
        f"ndarray-vs-row-loop work drift: {on_profile} != {off_profile}"
    )
    assert on_result == off_result


def result_digest(rows) -> str:
    """An order-independent digest of a result set: sha256 over the
    sorted row reprs.  Stable across runs on the *same* codec state;
    encoded-vs-decoded planes compare by set equality instead (a
    ``==``-ambiguous representative like ``1`` vs ``1.0`` reprs
    differently while comparing equal)."""
    import hashlib

    payload = "\n".join(sorted(repr(row) for row in rows))
    return hashlib.sha256(payload.encode()).hexdigest()


def assert_shard_sweep_equivalence(query, db, workers=(1, 2, 7)) -> None:
    """The sharded backend ≡ the single-worker backend, bit-identically,
    for every worker count.

    Runs every engine's work profile with sharding forced off (blocks
    on) as the baseline, then sweeps ``workers`` with sharding forced on
    every block, asserting identical ``tuples_touched`` everywhere and
    identical result digests — the deterministic-merge contract: shard
    count must be *invisible* in both the counted work and the bytes of
    the answer.  The decoded reference plane is pinned too (bit-identical
    work, set-equal results; digests are compared within the encoded
    plane only, since a ``==``-ambiguous representative reprs differently
    across planes).

    The shard-off baseline runs first on purpose: it interns any mid-run
    UDF values, so the sweep's parallel runs probe a stable codec and the
    repr digests are well-defined.
    """
    encoded_db = db if db.encoded else Database(
        list(db.relations.values()),
        fds=db.fds,
        udfs=list(db.udfs),
        degree_bounds=db.degree_bounds,
        encode=True,
    )
    schema = tuple(sorted(query.variables))
    with shard_forced("off"), ndarray_forced("on"):
        off_profile = engine_work_profile(query, encoded_db)
        off_rows = _run_csma(query, encoded_db, schema)
    off_digest = result_digest(off_rows)
    for count in workers:
        with shard_forced("on", workers=count):
            profile = engine_work_profile(query, encoded_db)
            rows = _run_csma(query, encoded_db, schema)
        assert profile == off_profile, (
            f"shard(workers={count}) work drift: {profile} != {off_profile}"
        )
        assert result_digest(rows) == off_digest, (
            f"shard(workers={count}) result digest drift"
        )
    decoded_db = decoded_plane_db(db)
    with shard_forced("off"), ndarray_forced("off"):
        dec_profile = engine_work_profile(query, decoded_db)
        dec_rows = _run_csma(query, decoded_db, schema)
    assert dec_profile == off_profile, (
        f"sharded-vs-decoded work drift: {off_profile} != {dec_profile}"
    )
    assert dec_rows == off_rows


def assert_lp_backend_equivalence(query, db) -> None:
    """The LP backend policy is invisible: canonical exact vertices drive
    every engine under every policy.

    Canonical-vertex selection (lex-min over the optimal face, primal
    *and* dual) makes each LP solution a function of the program alone,
    so all three LP-driven engines — chain, SMA, **and CSMA** — must
    produce **bit-identical work profiles** under the shipped ``auto``
    policy, forced ``exact``, and forced ``scipy`` (now cross-check
    mode: the same canonical solve, plus a per-solve scipy agreement
    assertion).  The historical CSMA dual-face-degeneracy carve-out is
    retired: CSMA's branch trajectory follows the canonical CLLP dual
    certificate, not whichever vertex a solver happened to pick.

    The CLLP optimum (the Lemma 5.36 restart budget) is compared as
    certified exact ``Fraction`` objectives for *equality* — no float
    tolerance, which could mask a genuinely sub-optimal vertex.

    The ``scipy`` leg runs first so unmemoized programs actually
    exercise the scipy cross-check (the solution memos are now
    policy-free, so later legs may legitimately hit the cache).

    Requires scipy (skipped by callers on exact-only interpreters).
    """
    with lp_backend_forced("scipy"):
        scipy_profile = lp_engine_work_profile(query, db)
    with lp_backend_forced("auto"):
        auto_profile = lp_engine_work_profile(query, db)
    with lp_backend_forced("exact"):
        exact_profile = lp_engine_work_profile(query, db)
    assert auto_profile == scipy_profile, (
        f"auto-vs-scipy LP policy changed engine work: "
        f"{auto_profile} != {scipy_profile}"
    )
    assert exact_profile == scipy_profile, (
        f"exact-vs-scipy LP policy changed engine work: "
        f"{exact_profile} != {scipy_profile}"
    )
    # The CLLP optimum — the restart budget — is certified and identical
    # (as exact Fractions) across policies.
    lattice, inputs = lattice_from_query(query)
    logs = {k: db.log_sizes()[k] for k in inputs}
    program = ConditionalLLP.from_cardinalities(lattice, inputs, logs)
    with lp_backend_forced("scipy"):
        scipy_solution = program.solve()
    with lp_backend_forced("exact"):
        exact_solution = program.solve()
    assert exact_solution.certificate is not None
    assert exact_solution.certificate.verify()
    assert scipy_solution.certificate is not None
    assert (
        exact_solution.certificate.objective
        == scipy_solution.certificate.objective
    ), "CLLP optimum differs across LP backend policies"
    schema = tuple(sorted(query.variables))
    with lp_backend_forced("scipy"):
        scipy_csma = _run_csma(query, db, schema)
    assert _run_csma_exact_lp(query, db, schema) == scipy_csma


def assert_leapfrog_substrate_equivalence(query, db) -> None:
    """The kernel-ported LFTJ ≡ LFTJ on the naive reference substrate:
    identical results, identical engine stats, and bit-identical expansion
    work counts through the threaded counter."""
    if not _vars_all_in_atoms(query):
        return
    plan_counter = WorkCounter()
    ref_counter = WorkCounter()
    out_plan, stats_plan = leapfrog_triejoin(query, db, counter=plan_counter)
    out_ref, stats_ref = leapfrog_triejoin(
        query, db, counter=ref_counter, expansion="reference"
    )
    assert set(out_plan.tuples) == set(out_ref.tuples)
    assert stats_plan.tuples_touched == stats_ref.tuples_touched
    assert stats_plan.seeks == stats_ref.seeks
    assert plan_counter.tuples_touched == ref_counter.tuples_touched, (
        f"leapfrog expansion counts diverge: kernel "
        f"{plan_counter.tuples_touched} != reference "
        f"{ref_counter.tuples_touched}"
    )

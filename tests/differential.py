"""Reusable differential-testing machinery for every engine.

This module is the *contract* a new execution backend must satisfy before
it ships (see PERFORMANCE.md, "The differential testing contract"):

1. **Result agreement** — on every randomized instance, every engine's
   output relation must equal the naive reference join
   (:func:`repro.engine.reference.reference_join`, registered as the
   mandatory ``reference`` engine): a value-level spec that shares no
   plan, codec or block code with the engines
   (:func:`run_all_engines` / :func:`assert_engines_agree`).
2. **Work transparency** — any path that executes expansion work must
   charge ``tuples_touched`` bit-identically to the naive reference
   formulation in :mod:`repro.engine.reference`
   (:func:`assert_batch_backend_equivalence`,
   :func:`assert_leapfrog_substrate_equivalence`).

The registry below names every current engine; ``MANDATORY_ENGINES`` are
the ones that must run on every instance the generators produce.  The
batch executors (the ``ExpansionPlan.execute_batch`` row-loop and the
``execute_batch_ndarray`` block pipeline) and the positional-kernel
leapfrog port are registered as mandatory — a regression in either
fails this harness, not just a downstream benchmark.

Every engine runs on dictionary codes.  The ``*-ndarray-frontier``
variants (one per algorithm family) lower the block executor's row
threshold to 1, so every block seam runs blocks at any frontier size;
:func:`assert_ndarray_backend_equivalence` pins whole-engine work
profiles bit-identical with blocks at every seam vs the row-loop only,
:func:`assert_lazy_equivalence` pins a database that defers its
encoding (``encode=False``) to an eagerly encoded one, and
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
from repro.engine import frontier
from repro.engine.binary_join import binary_join_plan
from repro.engine.database import Database
from repro.engine.generic_join import generic_join
from repro.engine.leapfrog import leapfrog_triejoin
from repro.engine.ops import WorkCounter
from repro.engine.relation import Relation
from repro.engine.reference import reference_expand_tuple, reference_join
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


def ndarray_forced(mode: str):
    """A ``with`` scope, in this context only, where every block seam
    runs blocks at any frontier size (``on``: row threshold 1) or none
    does (``off``: the row-loop only)."""
    return frontier.min_rows_override({"on": 1, "off": None}[mode])


def block_rows(rows, alive, n: int) -> list:
    """Surviving rows + their input indexes (``execute_batch_ndarray``'s
    ``(rows, alive)``) over an ``n``-row input → the aligned tuple list
    ``execute_batch`` returns (``None`` marks dangling rows)."""
    out: list = [None] * n
    for i, row in zip(alive.tolist(), rows.tolist()):
        out[i] = tuple(row)
    return out


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
    """A 4-cycle instance exercising the encoding's two sharp edges.

    * **Cross-type values** — every cell is a random ``==``-equal
      representative (``1`` vs ``1.0`` vs ``True``), so engine outputs
      may surface other representatives than the value-level reference
      join while staying ``==``-equal.
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

def _run_reference(query, db, schema):
    return set(reference_join(query, db).project(schema).tuples)


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


def _ndarray_variant(runner: Callable) -> Callable:
    """The same engine with the block executor at every seam for any
    frontier size (row threshold 1)."""

    def run(query, db, schema):
        with ndarray_forced("on"):
            return runner(query, db, schema)

    return run


_run_chain_ndarray = _ndarray_variant(_run_chain)
_run_sma_ndarray = _ndarray_variant(_run_sma)
_run_csma_ndarray = _ndarray_variant(_run_csma)
_run_generic_ndarray = _ndarray_variant(_run_generic)
_run_lftj_ndarray = _ndarray_variant(_run_lftj)


#: name → runner(query, db, schema) -> set | None (None = not applicable).
ENGINES: dict[str, Callable] = {
    "reference": _run_reference,
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
    "chain-ndarray-frontier": _run_chain_ndarray,
    "sma-ndarray-frontier": _run_sma_ndarray,
    "csma-ndarray-frontier": _run_csma_ndarray,
    "generic-ndarray-frontier": _run_generic_ndarray,
    "lftj-ndarray-frontier": _run_lftj_ndarray,
}

#: Engines that must be applicable (and agree) on every instance the
#: generators in this module produce.  ``reference`` is the oracle every
#: other engine is compared against.  The kernel-ported leapfrog and its
#: reference-substrate twin are mandatory: their agreement *is* the
#: differential test of the port.  ``csma-exact-lp`` is mandatory too:
#: every fuzz instance must evaluate correctly with *no* floating-point
#: LP in the loop (scipy demoted to an optional cross-check).  The
#: ``*-ndarray-frontier``
#: variants run every block seam on blocks regardless of frontier size
#: — one per algorithm family; the three whose base
#: engines apply to every generated instance are mandatory (``chain``/
#: ``sma`` variants run whenever their base engines do), and
#: :func:`assert_ndarray_backend_equivalence` additionally pins their
#: ``tuples_touched`` bit-identical to the row-loop backend.
MANDATORY_ENGINES = ("reference", "binary", "csma", "generic", "lftj",
                     "lftj-reference-expansion", "csma-exact-lp",
                     "csma-ndarray-frontier", "generic-ndarray-frontier",
                     "lftj-ndarray-frontier")


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
    """Every applicable engine must produce the reference join's result
    set; every mandatory engine must be applicable."""
    outputs = run_all_engines(query, db)
    for name in MANDATORY_ENGINES:
        assert name in outputs, f"mandatory engine {name} did not run {context}"
    reference = outputs["reference"]
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
    """The batched plan backends ≡ the naive per-tuple reference.

    For every stored relation: build a frontier of stored + garbage rows
    and run it through per-row ``reference_expand_tuple`` (the
    value-level specification) and — rows encoded on entry, outputs
    decoded for the comparison — through the generated row-loop and the
    int64 block pipeline.  Results and ``tuples_touched`` must match
    bit-identically.
    """
    codec = db.codec
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

        # Garbage rows intern fresh codes after the plan compiled: every
        # backend must treat them as misses.
        enc_rows = [codec.encode_row(rel.schema, r) for r in rows]
        block = frontier.rows_to_block(enc_rows, len(rel.schema))
        for executor in ("row-loop", "block"):
            counter = WorkCounter()
            if executor == "row-loop":
                out = plan.execute_batch(enc_rows, counter)
            else:
                out = block_rows(
                    *plan.execute_batch_ndarray(block, counter), len(rows)
                )
            decoded = [
                None if r is None else codec.decode_row(plan.out_schema, r)
                for r in out
            ]
            assert decoded == ref, f"{name}: batch[{executor}] diverges"
            assert counter.tuples_touched == ref_counter.tuples_touched, (
                f"{name}: batch[{executor}] counts "
                f"{counter.tuples_touched} != {ref_counter.tuples_touched}"
            )

        # Membership checks inside the pipeline ≡ the row-loop's output
        # filtered by key-set membership; checks charge nothing.
        checks, members = _random_checks(db, plan, rng)
        expected = [
            r if r is not None and all(
                (r[positions[0]] if len(positions) == 1
                 else tuple(r[p] for p in positions)) in keys
                for positions, keys in members
            ) else None
            for r in plan.execute_batch(enc_rows)
        ]
        counter = WorkCounter()
        got = block_rows(
            *plan.execute_batch_ndarray(block, counter, None, checks),
            len(rows),
        )
        assert got == expected, f"{name}: block checks {members} diverge"
        assert counter.tuples_touched == ref_counter.tuples_touched, (
            f"{name}: block checks count {counter.tuples_touched} "
            f"!= {ref_counter.tuples_touched}"
        )


def _random_checks(db, plan, rng: random.Random):
    """0-2 random membership checks for ``plan``'s output rows: a stored
    relation's key columns, probed on the output columns of the same
    attributes when the plan has them all, else on random ones.
    Returns the checks (``(positions, key_block)``) and their key-set
    oracles (``(positions, key_set)``)."""
    stored = [name for name, rel in db.relations.items() if rel.schema]
    checks, members = [], []
    width = len(plan.out_schema)
    for _ in range(rng.randint(0, 2)):
        other = db.runtime(rng.choice(stored))
        count = rng.randint(1, min(width, len(other.schema)))
        attrs = tuple(rng.sample(other.schema, count))
        if set(attrs) <= set(plan.out_schema) and rng.random() < 0.7:
            positions = plan.positions(attrs)
        else:
            positions = tuple(rng.sample(range(width), len(attrs)))
        checks.append((positions, other.key_block(attrs)))
        members.append((positions, other.key_set(attrs)))
    return checks, members


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
    ``db``."""
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


def assert_lazy_equivalence(query, db) -> None:
    """Deferred encoding is invisible: a database built with
    ``encode=False`` builds no twin and interns nothing until its first
    query, then every engine reports bit-identical counts (expansion
    touches, join emissions, LFTJ seeks) and the same results as the
    eager ``db`` — and both equal the reference join.
    """
    lazy = Database(
        list(db.relations.values()),
        fds=db.fds,
        udfs=list(db.udfs),
        degree_bounds=db.degree_bounds,
        encode=False,
    )
    assert not lazy._runtime and lazy.codec.total_values() == 0
    schema = tuple(sorted(query.variables))
    eager_profile = engine_work_profile(query, db)
    lazy_profile = engine_work_profile(query, lazy)
    assert eager_profile == lazy_profile, (
        f"eager-vs-lazy work drift: {eager_profile} != {lazy_profile}"
    )
    expected = _run_reference(query, db, schema)
    assert _run_csma(query, db, schema) == expected
    assert _run_csma(query, lazy, schema) == expected


def assert_ndarray_backend_equivalence(query, db) -> None:
    """The block executor ≡ the row-loop, bit-identically.

    Runs every engine's work profile twice — once with every block seam
    on blocks at any frontier size, once on the generated row-loop only
    — and asserts identical ``tuples_touched`` everywhere plus identical
    CSMA results.  Any drift means the block executor changed the
    measured work shape, not just the constant factor.
    """
    schema = tuple(sorted(query.variables))
    with ndarray_forced("on"):
        on_profile = engine_work_profile(query, db)
        on_result = _run_csma(query, db, schema)
    with ndarray_forced("off"):
        off_profile = engine_work_profile(query, db)
        off_result = _run_csma(query, db, schema)
    assert on_profile == off_profile, (
        f"ndarray-vs-row-loop work drift: {on_profile} != {off_profile}"
    )
    assert on_result == off_result


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

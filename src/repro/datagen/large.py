"""Large-frontier workload generators (the E17 scaling suite).

E16 proves the paper's *shapes* on small instances; these generators
produce the ≥1M-row frontiers that the dictionary-encoded data plane is
for.  Attribute values are **composite keys** — 3-tuples of ints, the
shape of real join keys (multi-part ids, coordinate pairs, feature
hashes).  Python tuples do not cache their hash, so every guard probe,
index lookup and trie seek over raw values would re-hash the composite;
the engines probe their dictionary codes — small ints (or flat dense
tables) — instead.
That is exactly the gap BENCH_PR4's E17 section tracks.

Four workloads, one per engine family the suite must cover:

* :func:`large_chain_workload` — a cyclic simple-key query (one relation
  is a functional guard) for the Chain Algorithm; the climb pushes the
  whole per-step frontier through compiled guard plans.
* :func:`large_generic_workload` — the same family for the FD-aware
  generic join: determined variables bind through batched plan execution,
  the rest through index probes on composite keys.
* :func:`large_lftj_workload` — a dense triangle for LeapFrog TrieJoin:
  wide trie levels make the seek path (bisect over sort keys) the cost
  center.
* :func:`large_csma_workload` — the degree-bounded triangle of query (2):
  CSMA with a witnessed ``DegreeConstraint`` runs CD bucketing plus pure
  join/filter passes — no UDFs anywhere on the hot path.

Every generator is deterministic for a given size (seeded RNG), so
``tuples_touched`` is reproducible and gateable across engine
generations.  ``encode`` is passed to :class:`~repro.engine.database.Database`:
``encode=False`` defers each relation's encoding to its first use.
"""

from __future__ import annotations

import random
import string

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.fds.fd import FD, FDSet
from repro.query.query import Atom, Query


def composite(i: int) -> tuple:
    """A nested composite key (two 4-part groups): distinct per ``i``.

    Python tuples do not cache their hash, so every probe on the raw value
    re-hashes all eight components; dictionary-encoded, the same key is
    one small int.
    """
    return (
        (i, i ^ 0x5DEECE66D, (i * 2654435761) & 0x3FFFFFFF, i % 7919),
        (i * 31 & 0xFFFF, i * 17 & 0xFFF, (i >> 3) & 0xFFFF, i & 63),
    )


def large_cyclic_key_workload(
    n: int, n_atoms: int = 3, seed: int = 0, encode: bool | None = None
) -> tuple[Query, Database]:
    """A cyclic query with one functional (simple-key) relation, scaled.

    ``R_k(v_k, v_{k+1})`` for k in a cycle; ``R_0`` is functional
    (``v_0 → v_1``, the fd's guard), the others are random graphs with
    ``n`` edges over a ``Θ(n)`` domain of composite keys.  The shape is
    the differential corpus' simple-key family
    (``tests/differential.py``), sized so engine frontiers reach millions
    of rows.
    """
    if not 2 <= n_atoms <= 4:
        raise ValueError(
            f"n_atoms must be between 2 and 4 (single-char variables), "
            f"got {n_atoms}"
        )
    rng = random.Random(seed + 7)
    variables = list("wxyz")[:n_atoms]
    atoms = [
        Atom(f"R{k}", (variables[k], variables[(k + 1) % n_atoms]))
        for k in range(n_atoms)
    ]
    fds = FDSet([FD(variables[0], variables[1])], variables)
    query = Query(atoms, fds)
    domain = max(4, n // 2)
    relations = []
    for k, atom in enumerate(atoms):
        if k == 0:
            tuples = {
                (composite(v), composite((v * 3 + 1) % domain))
                for v in range(domain)
            }
        else:
            tuples = {
                (
                    composite(rng.randrange(domain)),
                    composite(rng.randrange(domain)),
                )
                for _ in range(n)
            }
        relations.append(Relation(atom.name, atom.attrs, tuples))
    return query, Database(relations, fds=fds, encode=encode)


def large_chain_workload(
    n: int, seed: int = 0, encode: bool | None = None
) -> tuple[Query, Database]:
    """Guarded query (1) on the Ex. 5.8 skew pattern, composite values.

    Same query and chain as the E16 skew workload, but the two fds
    (``xz→u``, ``yu→x``) are witnessed by *stored guard relations* ``FU``
    and ``GX`` (realizing ``u = x`` on the skew support) instead of UDFs —
    so the Chain Algorithm's candidate expansion and footnote-8
    verification run pure guard-lookup batches, the operation the encoded
    plane accelerates.  Guards hold ~n rows; candidates outside their
    support dangle and are dropped, like any selective join.
    """
    from repro.query.query import paper_example_query

    query = paper_example_query()
    half = max(2, n // 2)
    one = composite(1)
    pairs = {(one, composite(i)) for i in range(1, half + 1)} | {
        (composite(i), one) for i in range(1, half + 1)
    }
    # u = x on the skew support: hub rows (x = 1) and spoke rows (z = 1).
    fu = {(one, composite(b), one) for b in range(1, half + 1)} | {
        (composite(a), one, composite(a)) for a in range(1, half + 1)
    }
    # x = u on the same support, keyed by (y, u).
    gx = {(one, composite(a), composite(a)) for a in range(1, half + 1)} | {
        (composite(b), one, one) for b in range(1, half + 1)
    }
    db = Database(
        [
            Relation("R", ("x", "y"), pairs),
            Relation("S", ("y", "z"), pairs),
            Relation("T", ("z", "u"), pairs),
            Relation("FU", ("x", "z", "u"), fu),
            Relation("GX", ("y", "u", "x"), gx),
        ],
        fds=query.fds,
        encode=encode,
    )
    return query, db


def large_generic_workload(
    n: int, seed: int = 1, encode: bool | None = None
) -> tuple[Query, Database]:
    """The cyclic-key family (4 atoms), for the FD-aware generic join."""
    return large_cyclic_key_workload(n, n_atoms=4, seed=seed, encode=encode)


def large_lftj_workload(
    n: int, seed: int = 2, encode: bool | None = None
) -> tuple[Query, Database]:
    """A dense triangle for LFTJ: composite-key vertices, wide trie levels.

    Edges are uniform over a ``Θ(n/120)`` vertex domain — a dense graph
    whose triangle count (the LFTJ match frontier) reaches the millions —
    so the leapfrog seek path dominates.  On codes, trie levels are int
    lists bisected directly (value tries would bisect heterogeneous sort
    keys).
    """
    rng = random.Random(seed + 13)
    atoms = [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    query = Query(atoms)
    domain = max(4, n // 120)

    def edge():
        return (
            composite(rng.randrange(domain)),
            composite(rng.randrange(domain)),
        )

    relations = [
        Relation(atom.name, atom.attrs, {edge() for _ in range(n)})
        for atom in atoms
    ]
    return query, Database(relations, encode=encode)


def large_fdchain_workload(
    n: int, k: int = 8, seed: int = 4, encode: bool | None = None
) -> tuple[Query, Database]:
    """A ``k``-step guarded fd chain over an ``n``-row frontier — the
    expansion procedure (Sec. 2) at scale, the array-of-int64 frontier's
    home workload.

    ``R(w, x)`` seeds ``n`` rows (four hub ``w`` values, ``x`` uniform
    over a ``Θ(n)`` composite domain); guard relations ``G_j`` realize
    the fd chain ``x → a → b → …`` as stored permutation tables; a
    selective terminal atom ``U(last, w)`` (``n/100`` pairs) keeps the
    output small, so the run *is* the frontier: after two cheap choose
    depths, every depth is FD-determined and the whole ``Θ(n)``-row
    frontier flows through one ``GUARD_DENSE`` plan step per level —
    ``np.take`` per level on codes (where raw values would pay ``n``
    composite-key dict probes per level), then a final membership
    verification against ``U``.  Use
    ``order = ("w", "x", "a", "b", …)`` so the chain binds in fd order.
    """
    if not 1 <= k <= 20:
        raise ValueError(f"k must be in [1, 20], got {k}")
    rng = random.Random(seed + 17)
    chain_attrs = list(string.ascii_lowercase[:k])
    last = chain_attrs[-1]
    atoms = [Atom("R", ("w", "x")), Atom("U", (last, "w"))]
    fds = [FD("x", chain_attrs[0])]
    for prev, nxt in zip(chain_attrs, chain_attrs[1:]):
        fds.append(FD(prev, nxt))
    variables = ["w", "x"] + chain_attrs
    query = Query(atoms, FDSet(fds, variables))
    domain = max(4, n // 2)
    dom = [composite(i) for i in range(domain)]
    hubs = [composite(domain + i) for i in range(4)]
    relations = [
        Relation(
            "R",
            ("w", "x"),
            {(hubs[i % 4], dom[rng.randrange(domain)]) for i in range(n)},
        )
    ]
    prev = "x"
    for j, attr in enumerate(chain_attrs):
        shift = 2 * j + 1
        relations.append(
            Relation(
                f"G{j}",
                (prev, attr),
                [(dom[v], dom[(v * 3 + shift) % domain]) for v in range(domain)],
            )
        )
        prev = attr
    relations.append(
        Relation(
            "U",
            (last, "w"),
            {
                (dom[rng.randrange(domain)], hubs[rng.randrange(4)])
                for _ in range(max(2, n // 100))
            },
        )
    )
    return query, Database(relations, fds=query.fds, encode=encode)


def fdchain_order(k: int = 8) -> tuple[str, ...]:
    """The fd-respecting variable order for :func:`large_fdchain_workload`."""
    return ("w", "x", *string.ascii_lowercase[:k])


def large_sma_workload(
    n: int, density: int = 25, seed: int = 5, encode: bool | None = None
) -> tuple[Query, Database]:
    """A dense composite-key triangle sized for SMA's SM-joins.

    Edges are uniform over a ``Θ(n / density)`` vertex domain (average
    degree ≈ ``density``), so the SM proof's joins materialize
    ``Θ(n · density)``-row T(·) tables before the light/heavy splits and
    the final filter cut them down.  Every split key, join probe and
    filter membership hashes a small int (or an int64 block row) where
    raw values would hash a composite — the SM-join is the hash-bound
    profile the encoding accelerates, complementary to
    E16's (UDF-bound) fig4 SMA shape.  No fds, no UDFs.
    """
    rng = random.Random(seed + 41)
    atoms = [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    query = Query(atoms)
    domain = max(4, n // density)

    def edge():
        return (
            composite(rng.randrange(domain)),
            composite(rng.randrange(domain)),
        )

    relations = [
        Relation(atom.name, atom.attrs, {edge() for _ in range(n)})
        for atom in atoms
    ]
    return query, Database(relations, encode=encode)


def large_csma_workload(
    n: int, d1: int = 8, seed: int = 3, encode: bool | None = None
) -> tuple[Query, Database]:
    """The degree-bounded triangle (query (2) / E2) sized for CSMA.

    ``R``'s out-degrees are capped at ``d1`` (every ``x`` has exactly
    ``d1`` successors); ``S`` and ``T`` are uniform random graphs with
    ``n`` edges.  Run CSMA with the witnessed degree constraint
    ``n_{xy|x} <= d1`` (``DegreeConstraint(x, xy, log2 d1, guard="R")``)
    — the CLLP drops the budget from N^{3/2} to N·d1, and the execution
    is CD bucketing plus pure join/filter passes over composite keys, the
    CSMA profile the encoding accelerates.  No fds, no UDFs.
    """
    rng = random.Random(seed + 29)
    atoms = [Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))]
    query = Query(atoms)
    nodes = max(2, n // d1)
    r = {
        (composite(x), composite((x * 13 + 5 * k) % nodes))
        for x in range(nodes)
        for k in range(d1)
    }
    s = {
        (composite(rng.randrange(nodes)), composite(rng.randrange(nodes)))
        for _ in range(n)
    }
    t = {
        (composite(rng.randrange(nodes)), composite(rng.randrange(nodes)))
        for _ in range(n)
    }
    db = Database(
        [
            Relation("R", ("x", "y"), r),
            Relation("S", ("y", "z"), s),
            Relation("T", ("z", "x"), t),
        ],
        encode=encode,
    )
    return query, db

"""The exact rational LP kernel, differentially verified against scipy.

Four contracts (PR 3 satellites):

1. **Differential property suite** — randomized CLLP/LLP/edge-cover
   instances over many seeds: the exact objective equals the scipy
   objective (to float tolerance), exact certificates always verify, and
   ``Hypergraph.edge_cover_vertices`` (now routed through the pruned
   enumerator in ``repro.lp.exact``) matches the flat reference
   enumerator in ``repro.util.rational`` vertex-for-vertex.
2. **Dual-sign regression** — the sign of ``<=``-row marginals is pinned
   on a hand-solved 2x2 LP for *both* backends, so a scipy upgrade
   cannot silently flip the chain-bound duals
   (cf. ``repro/lp/solver.py``'s negation of HiGHS marginals).
3. **Backend knob** — ``REPRO_LP_BACKEND={exact,scipy,both,auto}``
   policy resolution (``auto`` ≡ ``exact``: canonical exact solve;
   ``scipy`` ≡ ``both``: the same solve plus a per-solve scipy
   cross-check), resolved-backend-keyed solve memos, and the
   policy-free lattice memos.
4. **Canonical-vertex selection** — degenerate programs return the
   lex-min vertex of the optimal face (primal and dual), pinned on
   hand-built degenerate programs, a CLLP instance with a multi-vertex
   optimal dual face, and vertex-for-vertex against the enumeration
   argmin on every random program.
5. **Importability split** — ``repro.lp`` imports and solves with scipy
   blocked (the exact backend is the floor; scipy is an optional extra).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from differential import lp_backend_forced
from repro.lattice.builders import (
    boolean_algebra,
    fig1_lattice,
    fig4_lattice,
    fig5_lattice,
    fig7_lattice,
    fig8_lattice,
    fig9_lattice,
    m3,
    n5,
)
from repro.lp.cllp import ConditionalLLP, DegreeConstraint
from repro.lp.exact import (
    LPInfeasibleError,
    LPUnboundedError,
    cross_check_vertices,
    enumerate_vertices,
    minimize_by_enumeration,
    solve_exact_lp,
)
from repro.lp.llp import LatticeLinearProgram
from repro.lp.solver import (
    HAVE_SCIPY,
    LPError,
    lp_backend,
    solve_lp,
)
from repro.query.hypergraph import Hypergraph

import repro.lp.solver as solver_mod

requires_scipy = pytest.mark.skipif(
    not HAVE_SCIPY, reason="differential comparison needs the scipy extra"
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# The exact kernel on its own: simplex vs vertex enumeration
# ----------------------------------------------------------------------

def _random_program(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b_ub = [rng.randint(-2, 5) for _ in range(m)]
    costs = [rng.randint(0, 5) for _ in range(n)]  # c >= 0: bounded below
    return costs, a_ub, b_ub


@pytest.mark.parametrize("seed", range(40))
def test_simplex_matches_vertex_enumeration(seed):
    """Two independent exact engines, one optimum *and one vertex*: the
    simplex value must equal the brute-force minimum over enumerated
    vertices, and — canonical-vertex selection — the returned primal must
    be the lex-min optimal vertex, which is exactly what
    ``minimize_by_enumeration``'s ``(value, point)`` tie-break yields."""
    rng = random.Random(seed)
    costs, a_ub, b_ub = _random_program(rng)
    try:
        certificate = solve_exact_lp(costs, a_ub, b_ub)
    except LPInfeasibleError:
        assert enumerate_vertices(a_ub, b_ub) == []
        return
    assert certificate.verify()
    value, vertex = minimize_by_enumeration(costs, a_ub, b_ub)
    assert value == certificate.objective
    assert tuple(vertex) == certificate.x


@pytest.mark.parametrize("seed", range(25))
def test_vertex_enumerator_matches_flat_reference(seed):
    """The pruned DFS enumerator == the flat combinations scan."""
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    a_ub = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    b_ub = [rng.randint(-1, 4) for _ in range(m)]
    assert sorted(enumerate_vertices(a_ub, b_ub)) == sorted(
        cross_check_vertices(a_ub, b_ub)
    )


def test_unbounded_and_infeasible_are_classified():
    with pytest.raises(LPUnboundedError):
        solve_exact_lp([-1.0], a_ub=[[0.0]], b_ub=[1.0])
    with pytest.raises(LPInfeasibleError):
        solve_exact_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    # No constraints at all: x = 0 for c >= 0, unbounded otherwise.
    assert solve_exact_lp([2.0, 3.0]).objective == 0
    with pytest.raises(LPUnboundedError):
        solve_exact_lp([2.0, -3.0])


def test_certificate_rejects_tampering():
    certificate = solve_exact_lp(
        [3.0, 5.0], a_ub=[[-1.0, -1.0], [1.0, -1.0]], b_ub=[-2.0, 0.0]
    )
    assert certificate.verify()
    worse = replace(certificate, x=(Fraction(2), Fraction(2)))
    assert not worse.verify()  # feasible but not optimal: gap opens
    # The same vertex with its own objective is self-consistent: primal-
    # and dual-feasible, objective == costs · x.  Only the zero-gap check
    # can reject it (the optimum is 8, so the gap is 8).
    forged = replace(worse, objective=Fraction(16))
    assert forged.primal_feasible() and forged.dual_feasible()
    assert forged.duality_gap() == 8
    assert not forged.verify()
    infeasible = replace(certificate, x=(Fraction(0), Fraction(0)))
    assert not infeasible.verify()
    bad_dual = replace(certificate, y_ub=(Fraction(-1), certificate.y_ub[1]))
    assert not bad_dual.verify()


def _degenerate_cube_corner(n: int = 6):
    a_ub = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    a_ub += [[-1.0] * n]
    b_ub = [1.0] * n + [0.0]
    return a_ub, b_ub


def test_degenerate_program_terminates():
    """A fully degenerate cube corner (many ties) must not cycle."""
    n = 6
    a_ub, b_ub = _degenerate_cube_corner(n)
    certificate = solve_exact_lp([1.0] * n, a_ub, b_ub)
    assert certificate.objective == 0
    assert certificate.verify()


# ----------------------------------------------------------------------
# Canonical-vertex selection on hand-built degenerate programs
# ----------------------------------------------------------------------

def test_canonical_vertex_on_degenerate_cube_corner():
    """The fully degenerate cube corner, with a flat objective so the
    *whole cube* is the optimal face: the canonical solution must be its
    lex-min vertex — the origin — and two independent solves must agree
    on every field of the certificate."""
    n = 6
    a_ub, b_ub = _degenerate_cube_corner(n)
    first = solve_exact_lp([0.0] * n, a_ub, b_ub)
    second = solve_exact_lp([0.0] * n, a_ub, b_ub)
    assert first.x == tuple([Fraction(0)] * n)
    assert first == second  # identical certificate, not just objective
    # The original (unique-optimum) objective stays pinned at the origin.
    assert solve_exact_lp([1.0] * n, a_ub, b_ub).x == first.x


def test_canonical_vertex_is_lex_min_on_segment_face():
    """min x0 + x1 over the unit square with x0 + x1 >= 1: the optimal
    face is the whole segment from (1,0) to (0,1); the canonical vertex
    is its lex-min endpoint (0,1)."""
    a_ub = [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]
    b_ub = [-1.0, 1.0, 1.0]
    certificate = solve_exact_lp([1.0, 1.0], a_ub, b_ub)
    assert certificate.x == (Fraction(0), Fraction(1))
    assert certificate.verify()
    assert solve_exact_lp([1.0, 1.0], a_ub, b_ub) == certificate


def test_canonical_dual_is_lex_min_on_degenerate_dual_face():
    """max x0 + x1 s.t. x0 <= 1, x1 <= 1, x0 + x1 <= 2: the third row is
    redundant but binding, so the primal vertex (1,1) is degenerate and
    the dual optimal face is the segment {(1-t, 1-t, t) : t in [0,1]}.
    Its lex-min vertex is (0, 0, 1) — the canonical dual must pick it,
    deterministically."""
    first = solve_exact_lp([-1.0, -1.0], [[1, 0], [0, 1], [1, 1]], [1, 1, 2])
    second = solve_exact_lp([-1.0, -1.0], [[1, 0], [0, 1], [1, 1]], [1, 1, 2])
    assert first.x == (Fraction(1), Fraction(1))
    assert first.y_ub == (Fraction(0), Fraction(0), Fraction(1))
    assert first == second
    assert first.verify()


def test_cllp_dual_face_is_degenerate_and_canonical():
    """A CLLP whose explicit dual LP has a multi-vertex optimal face (the
    zero-cost s/m variables of Eq. (26)) — the trigger for the old CSMA
    carve-out.  The canonical solve must return the lex-min optimal
    vertex (cross-checked against exhaustive vertex enumeration) and two
    independent solves of the dual must agree exactly.  The diamond M3
    with equal cardinalities has a 3-vertex optimal dual face."""
    lattice = m3()
    inputs = {f"R{a}": a for a in lattice.coatoms}
    logs = {name: 3.0 for name in inputs}
    program = ConditionalLLP.from_cardinalities(lattice, inputs, logs)
    bounds = program.bounds_by_pair()
    degree_pairs = tuple(bounds)
    a_ub, b_ub, incomparable, cover_pairs = program._dual_skeleton(degree_pairs)
    n_c, n_s, n_m = len(degree_pairs), len(incomparable), len(cover_pairs)
    costs = [bounds[p] for p in degree_pairs] + [0.0] * (n_s + n_m)
    value, lex_min_vertex = minimize_by_enumeration(
        costs, a_ub.tolist(), b_ub.tolist()
    )
    # The optimal face genuinely has several vertices — the degeneracy the
    # canonical rule resolves (otherwise this instance proves nothing).
    cost_vec = [Fraction(v).limit_denominator() for v in costs]
    optimal_vertices = [
        p
        for p in enumerate_vertices(a_ub.tolist(), b_ub.tolist())
        if sum(c * x for c, x in zip(cost_vec, p)) == value
    ]
    assert len(optimal_vertices) >= 2
    # The certified canonical solve lands on the lex-min optimal vertex.
    certificate = solve_exact_lp(costs, a_ub.tolist(), b_ub.tolist())
    assert certificate.x == tuple(lex_min_vertex)
    assert certificate.objective == value
    # Two independent full dual solves agree exactly, component for
    # component — the property CSMA's restart budget now relies on.
    first = program.solve_dual()
    lattice._lp_memo.clear()  # defeat the lattice memo: a genuine re-solve
    solver_mod._SOLVE_CACHE.clear()
    second = program.solve_dual()
    assert (first.c, first.s, first.m) == (second.c, second.s, second.m)


# ----------------------------------------------------------------------
# Satellite 2: the dual-marginal sign convention, pinned by hand
# ----------------------------------------------------------------------

def _hand_solved_backends():
    backends = ["exact"]
    if HAVE_SCIPY:
        backends += ["scipy", "both"]
    return backends


@pytest.mark.parametrize("backend", _hand_solved_backends())
def test_dual_sign_convention_hand_solved_2x2(backend):
    """min 3x + 5y  s.t.  x + y >= 2,  x <= y,  x,y >= 0.

    Unique optimum x = y = 1 (objective 8) with both rows binding; solving
    ``c = A_ub^T lambda`` by hand gives raw ``<=``-marginals
    ``lambda = (-4, -1)``, so the package convention (negated marginals,
    binding rows weigh non-negatively) must report ``duals_ub == [4, 1]``.
    A scipy upgrade that flips HiGHS marginal signs — or an exact-backend
    regression — lands here before it can flip the chain-bound duals
    (cf. repro/lp/solver.py).
    """
    with lp_backend_forced(backend):
        solution = solve_lp(
            [3.0, 5.0], a_ub=[[-1.0, -1.0], [1.0, -1.0]], b_ub=[-2.0, 0.0]
        )
    assert solution.objective == pytest.approx(8.0, abs=1e-9)
    assert list(solution.x) == pytest.approx([1.0, 1.0], abs=1e-9)
    assert list(solution.duals_ub) == pytest.approx([4.0, 1.0], abs=1e-9)
    if backend != "scipy":
        certificate = solution.certificate
        assert certificate is not None and certificate.verify()
        assert certificate.y_ub == (Fraction(4), Fraction(1))
        assert certificate.objective == 8


@pytest.mark.parametrize("backend", _hand_solved_backends())
def test_dual_sign_convention_equality_row(backend):
    """min x + y  s.t.  x + 2y == 4,  x >= 1/2: pins the ``==``-row sign
    (duals_eq is the negated HiGHS marginal) alongside the ``<=`` row."""
    with lp_backend_forced(backend):
        solution = solve_lp(
            [1.0, 1.0],
            a_ub=[[-1.0, 0.0]],
            b_ub=[-0.5],
            a_eq=[[1.0, 2.0]],
            b_eq=[4.0],
        )
    assert solution.objective == pytest.approx(2.25, abs=1e-9)
    assert list(solution.duals_eq) == pytest.approx([-0.5], abs=1e-9)
    assert list(solution.duals_ub) == pytest.approx([0.5], abs=1e-9)


# ----------------------------------------------------------------------
# Satellite 1: randomized CLLP / LLP / edge-cover differentials
# ----------------------------------------------------------------------

_SMALL_LATTICES = {
    "b3": boolean_algebra("xyz"),
    "m3": m3(),
    "n5": n5(),
    "fig5": fig5_lattice()[0],
}


def _random_llp(lattice_key: str, rng: random.Random):
    if lattice_key == "fig5":
        lattice, inputs = fig5_lattice()
    elif lattice_key == "b3":
        lattice = _SMALL_LATTICES["b3"]
        inputs = {
            "R": lattice.index(frozenset("xy")),
            "S": lattice.index(frozenset("yz")),
            "T": lattice.index(frozenset("xz")),
        }
    else:
        lattice = _SMALL_LATTICES[lattice_key]
        inputs = {f"R{a}": a for a in lattice.coatoms}
    import math

    logs = {name: math.log2(rng.randint(2, 512)) for name in inputs}
    return lattice, inputs, logs


@requires_scipy
@pytest.mark.parametrize("lattice_key", sorted(_SMALL_LATTICES))
@pytest.mark.parametrize("seed", range(6))
def test_llp_exact_matches_scipy(lattice_key, seed):
    lattice, inputs, logs = _random_llp(lattice_key, random.Random(seed))
    with lp_backend_forced("scipy"):
        scipy_value, _ = LatticeLinearProgram(lattice, inputs, logs).solve_primal()
    with lp_backend_forced("exact"):
        program = LatticeLinearProgram(lattice, inputs, logs)
        exact_value, _ = program.solve_primal()
        solution = program.solve()
    assert exact_value == pytest.approx(scipy_value, abs=1e-7)
    assert solution.certificate is not None and solution.certificate.verify()
    # The dual certificate (output inequality) re-verifies exactly.
    assert solution.inequality.verify_certificate()
    assert solution.inequality.verify_on(solution.h_raw)


@requires_scipy
@pytest.mark.parametrize("lattice_key", sorted(_SMALL_LATTICES))
@pytest.mark.parametrize("seed", range(4))
def test_cllp_exact_matches_scipy(lattice_key, seed):
    rng = random.Random(100 + seed)
    lattice, inputs, logs = _random_llp(lattice_key, rng)
    program = ConditionalLLP.from_cardinalities(lattice, inputs, logs)
    # Sprinkle random genuine degree constraints (X < Y).
    pairs = [
        (x, y)
        for x in range(lattice.n)
        for y in range(lattice.n)
        if lattice.lt(x, y)
    ]
    for x, y in rng.sample(pairs, k=min(2, len(pairs))):
        program = program.with_constraint(
            DegreeConstraint(x, y, rng.randint(0, 6))
        )
    with lp_backend_forced("scipy"):
        scipy_value, _ = program.solve_primal()
        scipy_dual = program.solve_dual()
    with lp_backend_forced("exact"):
        exact_value, _ = program.solve_primal()
        exact_dual = program.solve_dual()
        solution = program.solve()
    assert exact_value == pytest.approx(scipy_value, abs=1e-7)
    assert solution.certificate is not None and solution.certificate.verify()
    # Both duals are exactly feasible and objective-equivalent.
    bounds = program.bounds_by_pair()
    assert exact_dual.is_feasible() and scipy_dual.is_feasible()
    assert float(exact_dual.objective(bounds)) == pytest.approx(
        float(scipy_dual.objective(bounds)), abs=1e-6
    )


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    n_vertices = rng.randint(2, 5)
    vertices = list(range(n_vertices))
    n_edges = rng.randint(2, 5)
    edges = {}
    for k in range(n_edges):
        size = rng.randint(1, n_vertices)
        edges[f"e{k}"] = rng.sample(vertices, size)
    return Hypergraph(vertices, edges)


@pytest.mark.parametrize("seed", range(30))
def test_edge_cover_vertices_match_reference_enumerator(seed):
    """``edge_cover_vertices`` (pruned enumerator) == the flat reference
    scan on the identical constraint system, vertex set for vertex set."""
    graph = _random_hypergraph(random.Random(seed))
    got = {
        tuple(point[name] for name in graph.edge_names)
        for point in graph.edge_cover_vertices()
    }
    if graph.isolated_vertices():
        assert got == set()
        return
    n = len(graph.edge_names)
    a_ub = [
        [-1 if v in graph.edges[name] else 0 for name in graph.edge_names]
        for v in graph.vertices
    ]
    b_ub = [-1] * len(graph.vertices)
    for i in range(n):
        row = [0] * n
        row[i] = 1
        a_ub.append(row)
        b_ub.append(1)
    expected = set(cross_check_vertices(a_ub, b_ub))
    assert got == expected
    # Every enumerated point is genuinely a fractional edge cover.
    for point in graph.edge_cover_vertices():
        assert graph.is_fractional_edge_cover(point)


@requires_scipy
@pytest.mark.parametrize("seed", range(20))
def test_edge_cover_number_exact_matches_scipy(seed):
    graph = _random_hypergraph(random.Random(500 + seed))
    if graph.isolated_vertices():
        return
    import math

    logs = {
        name: math.log2(random.Random(seed * 31 + k).randint(2, 128))
        for k, name in enumerate(graph.edge_names)
    }
    with lp_backend_forced("scipy"):
        scipy_value, scipy_weights = graph.fractional_edge_cover_number(logs)
    with lp_backend_forced("exact"):
        exact_value, exact_weights = graph.fractional_edge_cover_number(logs)
    assert float(exact_value) == pytest.approx(float(scipy_value), abs=1e-7)
    assert graph.is_fractional_edge_cover(exact_weights)
    assert graph.is_fractional_edge_cover(scipy_weights)


@pytest.mark.parametrize(
    "maker",
    [fig1_lattice, fig4_lattice, fig5_lattice, fig7_lattice, fig8_lattice,
     fig9_lattice],
    ids=["fig1", "fig4", "fig5", "fig7", "fig8", "fig9"],
)
def test_paper_lattice_lps_solve_exactly_with_certificates(maker):
    """Acceptance: every LLP/CLLP the paper-example lattices emit solves
    on the exact backend with a verified optimality certificate."""
    lattice, inputs = maker()
    logs = {name: 10.0 for name in inputs}
    with lp_backend_forced("exact"):
        llp = LatticeLinearProgram(lattice, inputs, logs).solve()
        assert llp.certificate is not None and llp.certificate.verify()
        assert llp.inequality.verify_certificate()
        cllp = ConditionalLLP.from_cardinalities(lattice, inputs, logs).solve()
        assert cllp.certificate is not None and cllp.certificate.verify()
        assert cllp.dual.is_feasible()
        assert cllp.objective == pytest.approx(llp.objective, abs=1e-9)


# ----------------------------------------------------------------------
# Satellite 3 support: the backend knob and its memos
# ----------------------------------------------------------------------

def test_backend_knob_validation():
    with lp_backend_forced("nonsense"):
        with pytest.raises(ValueError):
            lp_backend()
        with pytest.raises(ValueError):
            solve_lp([1.0], a_ub=[[1.0]], b_ub=[1.0])


def test_auto_always_resolves_exact():
    """``auto`` never routes to scipy: big programs (past the retired
    8-var/24-row cutoff) solve on the exact canonical backend too."""
    solver_mod._SOLVE_CACHE.clear()
    with lp_backend_forced("auto"):
        small = solve_lp([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        assert small.backend == "exact"
        assert small.certificate is not None
        n = 12  # > the old EXACT_MAX_VARS=8 cutoff
        big = solve_lp(
            [1.0] * n,
            a_ub=[[-1.0] * n] + [[1.0 if j == i else 0.0 for j in range(n)]
                                 for i in range(n)],
            b_ub=[-1.0] + [1.0] * n,
        )
        assert big.backend == "exact"
        assert big.certificate is not None and big.certificate.verify()


@requires_scipy
def test_cross_check_mode_returns_canonical_exact_vertex():
    """``both`` (and its alias ``scipy``) is cross-check mode: the caller
    gets the canonical exact solution — identical to a pure exact solve —
    and scipy runs alongside purely as a per-solve agreement assertion."""
    solver_mod._SOLVE_CACHE.clear()
    program = dict(a_ub=[[-1.0, -2.0]], b_ub=[-6.0])
    with lp_backend_forced("exact"):
        exact_solution = solve_lp([2.0, 3.0], **program)
    with lp_backend_forced("both"):
        both = solve_lp([2.0, 3.0], **program)
    with lp_backend_forced("scipy"):
        crossed = solve_lp([2.0, 3.0], **program)
    assert both.backend == "both"
    assert both.certificate is not None and both.certificate.verify()
    assert both.certificate == exact_solution.certificate
    assert list(both.x) == list(exact_solution.x)
    assert both.x_rational == exact_solution.x_rational
    assert both.objective_rational == both.certificate.objective
    assert crossed is both  # scipy and both resolve to one cross-check entry


def test_solve_cache_is_keyed_on_resolved_backend():
    """The byte memo keys on what the policy *resolves to*, so ``auto``
    and forced ``exact`` share one entry (they are the same solve)."""
    solver_mod._SOLVE_CACHE.clear()
    program = ([1.0, 1.0], [[-1.0, -1.0]], [-1.0])
    with lp_backend_forced("exact"):
        first = solve_lp(program[0], a_ub=program[1], b_ub=program[2])
        again = solve_lp(program[0], a_ub=program[1], b_ub=program[2])
    assert again is first  # memo hit within one policy
    with lp_backend_forced("auto"):
        auto_solution = solve_lp(program[0], a_ub=program[1], b_ub=program[2])
    assert auto_solution is first  # auto resolves to exact: same entry
    if HAVE_SCIPY:
        with lp_backend_forced("scipy"):
            crossed = solve_lp(program[0], a_ub=program[1], b_ub=program[2])
        # Cross-check mode re-solves once (distinct memo entry) but the
        # solution content is the same canonical vertex.
        assert crossed is not first
        assert crossed.backend == "both"
        assert crossed.x_rational == first.x_rational
        assert crossed.certificate == first.certificate


@requires_scipy
def test_lattice_memo_is_policy_free():
    """Canonical vertices made LLP/CLLP solutions backend-independent, so
    an in-process policy switch now *shares* the lattice memo entry
    (previously each policy solved and cached the program separately)."""
    lattice, inputs = fig5_lattice()
    logs = {name: 4.0 for name in inputs}
    with lp_backend_forced("scipy"):
        scipy_solution = LatticeLinearProgram(lattice, inputs, logs).solve()
    with lp_backend_forced("exact"):
        exact_solution = LatticeLinearProgram(lattice, inputs, logs).solve()
    assert exact_solution is scipy_solution  # one memo entry, all policies
    assert exact_solution.certificate is not None
    assert exact_solution.certificate.verify()


def test_lattice_memo_hits_across_auto_and_exact():
    """Regression (PR 8 satellite): ``auto`` and forced ``exact`` resolve
    to the same backend, so the same program must be solved once, not
    cached twice under two policy strings."""
    lattice, inputs = fig5_lattice()
    logs = {name: 6.0 for name in inputs}
    lattice._lp_memo.clear()
    solver_mod._SOLVE_CACHE.clear()
    with lp_backend_forced("auto"):
        auto_solution = LatticeLinearProgram(lattice, inputs, logs).solve()
    with lp_backend_forced("exact"):
        exact_solution = LatticeLinearProgram(lattice, inputs, logs).solve()
    assert exact_solution is auto_solution  # memo hit, no second solve
    assert auto_solution.certificate is not None
    # And at the byte-memo level too: exactly one solution object.
    with lp_backend_forced("auto"):
        first = solve_lp([1.0, 3.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])
    with lp_backend_forced("exact"):
        second = solve_lp([1.0, 3.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])
    assert second is first


# ----------------------------------------------------------------------
# Satellite 4: the importability split (scipy is optional)
# ----------------------------------------------------------------------

_NO_SCIPY_PROBE = textwrap.dedent(
    """
    import sys
    assert "scipy" not in sys.modules
    import repro.lp.solver as solver
    assert not solver.HAVE_SCIPY, "scipy import should have been blocked"
    # The full front door works on the exact backend alone.
    solution = solver.solve_lp(
        [3.0, 5.0], a_ub=[[-1.0, -1.0], [1.0, -1.0]], b_ub=[-2.0, 0.0]
    )
    assert solution.backend == "exact"
    assert solution.certificate is not None and solution.certificate.verify()
    assert solution.objective == 8.0
    assert [float(v) for v in solution.duals_ub] == [4.0, 1.0]
    # Forcing a scipy-dependent mode is a clear error, not a crash.
    import os
    for mode in ("scipy", "both"):
        os.environ["REPRO_LP_BACKEND"] = mode
        try:
            solver.solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
        except solver.LPError as exc:
            assert "scipy" in str(exc)
        else:
            raise AssertionError(f"{mode} mode should require scipy")
    # The lattice programs run end to end without scipy.
    os.environ["REPRO_LP_BACKEND"] = "auto"
    from repro.lattice.builders import fig5_lattice
    from repro.lp.llp import LatticeLinearProgram
    lattice, inputs = fig5_lattice()
    llp = LatticeLinearProgram(lattice, inputs, {n: 3.0 for n in inputs}).solve()
    assert llp.certificate is not None and llp.certificate.verify()
    print("NO-SCIPY-OK")
    """
)


def test_importability_split_without_scipy(tmp_path):
    """``repro.lp`` must import, solve and certify with scipy blocked —
    the exact backend is the dependency floor (setup.py's [scipy] extra
    is genuinely optional)."""
    blocker = tmp_path / "scipy.py"
    blocker.write_text('raise ImportError("scipy blocked for this test")\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{tmp_path}:{REPO_ROOT / 'src'}"
    env.pop("REPRO_LP_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "NO-SCIPY-OK" in proc.stdout


def test_have_scipy_reflects_this_interpreter():
    try:
        import scipy  # noqa: F401

        assert HAVE_SCIPY
    except ImportError:  # pragma: no cover - no-scipy CI job
        assert not HAVE_SCIPY

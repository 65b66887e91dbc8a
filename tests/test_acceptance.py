"""Acceptance suite.

Each test covers one exit criterion exactly as stated, with exact (integer)
comparisons throughout, and prints a single PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

from contextlib import contextmanager
from math import comb

from symprod import fixtures, lattice
from symprod.bridge import check_isomorphism
from symprod.quotient import (
    betti,
    ideal_degree_rows,
    ideal_generators,
    quotient_basis,
    verify_minimality,
)
from symprod.sympower import (
    BasisIndex,
    chi,
    dual_element,
    enumerate_basis,
    pair,
    structure_constants,
)
from symprod.tensors import Perm, act, elementary, symmetrize, tensor_multiply

from relation_lattices import ideal_fills_degree, relation_lattice_smith

GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_betti_rank_agreement():
    with criterion(1, "Betti/rank agreement"):
        for g, n in GRID:
            ring = fixtures.surface_ring(g)
            for s in range(2 * n + 1):
                b = betti(g, n, s)
                assert len(quotient_basis(g, n, s)) == b, (g, n, s)
                sym_rank = (1 if s == 0 else
                            len(enumerate_basis(ring, n, degree=s)))
                assert sym_rank == b, (g, n, s)


def test_criterion_2_torsion_freeness():
    with criterion(2, "torsion-freeness of the quotient"):
        for g, n in GRID:
            for s in range(2 * n + 1):
                invariants = relation_lattice_smith(g, n, s)
                assert all(d == 1 for d in invariants if d), (g, n, s, invariants)
            for s in range(2 * n + 1, 2 * n + 4):
                assert ideal_fills_degree(g, n, s), (g, n, s)


def test_criterion_3_minimal_presentations():
    with criterion(3, "minimal presentations"):
        expected_rank = {(2, 2): 4, (3, 2): 20, (3, 3): 15, (3, 4): 6}
        for (g, n), want in expected_rank.items():
            report = verify_minimality(g, n)
            assert report.rank_q0 == report.expected_rank == want == comb(2 * g, n + 1)
            if n % 2 == 0:
                assert report.extra_relation_outside is True, (g, n)
            assert all(flag for _, flag in report.degrees_equal), (g, n)
            assert report.ok, (g, n)


def test_criterion_4_stable_case():
    with criterion(4, "stable single-relation case"):
        for g, n in [(1, 2), (1, 3), (2, 3), (2, 4)]:
            assert n >= 2 * g - 1
            stable = ideal_generators(g, n, "stable")
            full = ideal_generators(g, n, "full")
            assert len(stable.polys) == 1
            for s in range(2 * n + 1):
                rows_s = ideal_degree_rows(stable, s)
                rows_f = ideal_degree_rows(full, s)
                assert lattice.lattice_equal(rows_s, rows_f), (g, n, s)


def test_criterion_5_integrality():
    with criterion(5, "integral structure constants"):
        for g, n in GRID:
            table = structure_constants(fixtures.surface_ring(g), n, 2 * n)
            for row in table.rows:
                for entry in row:
                    assert all(isinstance(c, int) for c in entry.values())
        for n in range(2, 6):
            structure_constants(fixtures.load_fixture("sphere2"), n, 2 * n)
            for k in (1, 2, 3):
                structure_constants(fixtures.hopf_ring(k), n, 4 * n)


def test_criterion_6_sphere_powers_are_truncated_polynomial():
    with criterion(6, "sphere powers are truncated polynomial rings"):
        for n in range(2, 6):
            ring = fixtures.load_fixture("sphere2")
            b = ring.position["b"]
            table = structure_constants(ring, n, 2 * n + 2)
            gamma = {p: BasisIndex((), ((b, p),), n - p) for p in range(1, n + 1)}
            eta = gamma[1]
            for p in range(2, n + 1):
                assert table.product(eta, gamma[p - 1]) == {gamma[p]: 1}, (n, p)
            # no analogue of the (n+1)-st power: top degree is 2n
            assert table.product(eta, gamma[n]) == {}
            assert all(idx.degree(ring) <= 2 * n for idx in table.basis)


def test_criterion_7_bridge_isomorphism():
    with criterion(7, "bridge unimodularity"):
        for g, n in GRID + [(5, 4)]:
            report = check_isomorphism(g, n)
            assert report.verdict == "isomorphism", (g, n)
            assert report.relations_vanish, (g, n)
            for d in report.degrees:
                assert d.quotient_rank == d.tensor_rank == betti(g, n, d.degree)
                assert d.unimodular, (g, n, d.degree)
        deg2 = next(d for d in check_isomorphism(1, 2).degrees if d.degree == 2)
        assert deg2.matrix == [[1, 0], [1, 1]]


def test_criterion_8_algebraic_property_suites():
    with criterion(8, "algebraic property suites"):
        ring = fixtures.surface_ring(2)
        # right action group law and multiplicative equivariance, exhaustive
        # over all permutation pairs for n <= 4 on fixed small supports
        supports = {
            2: (["a1", "a3"], ["b", None]),
            3: (["a1", "a2", "b"], ["a3", None, "a1"]),
            4: (["a1", "a2", "a3", None], ["b", "a4", None, "a1"]),
        }
        for n, (u_slots, v_slots) in supports.items():
            u = elementary(ring, u_slots)
            v = elementary(ring, v_slots)
            uv = tensor_multiply(u, v)
            t = u + 2 * v
            for sigma in Perm.all(n):
                for tau in Perm.all(n):
                    assert act(tau, act(sigma, t)) == act(sigma * tau, t)
                assert act(sigma, uv) == tensor_multiply(act(sigma, u), act(sigma, v))
            s = symmetrize(t)
            assert symmetrize(s) == s

        # duality: pairing in {0, +-1}, nonzero exactly on matching data
        for g, n in [(2, 2), (1, 3)]:
            r = fixtures.surface_ring(g)
            basis = enumerate_basis(r, n)
            for gamma in basis:
                for other in basis:
                    value = pair(r, gamma, dual_element(r, other))
                    assert value in (-1, 0, 1)
                    assert (value != 0) == (gamma == other)

        # recursion identities of the span elements, as tensor identities
        # and as integer rows of the structure table
        torus = fixtures.surface_ring(1)
        a1, a2, bb = torus.gen("a1"), torus.gen("a2"), torus.gen("b")
        assert (tensor_multiply(chi(torus, 2, [a1], []), chi(torus, 2, [a2], []))
                == chi(torus, 2, [], [bb]) + chi(torus, 2, [a1, a2], []))
        g2 = fixtures.surface_ring(2)
        e = {x: g2.gen(x) for x in ("a1", "a2", "a3", "b")}
        assert (tensor_multiply(chi(g2, 3, [e["a1"], e["a2"]], []),
                                chi(g2, 3, [e["a3"]], []))
                == -1 * chi(g2, 3, [e["a2"]], [e["b"]])
                + chi(g2, 3, [e["a1"], e["a2"], e["a3"]], []))

        def pos(r, name):
            return r.position[name]

        table = structure_constants(torus, 2, 4)
        xi1 = BasisIndex((pos(torus, "a1"),), (), 1)
        xi1p = BasisIndex((pos(torus, "a2"),), (), 1)
        eta = BasisIndex((), ((pos(torus, "b"), 1),), 1)
        both = BasisIndex((pos(torus, "a1"), pos(torus, "a2")), (), 0)
        assert table.product(xi1, xi1p) == {eta: 1, both: 1}

        table2 = structure_constants(g2, 3, 4)
        left = BasisIndex((pos(g2, "a1"), pos(g2, "a2")), (), 1)
        right = BasisIndex((pos(g2, "a3"),), (), 2)
        mixed = BasisIndex((pos(g2, "a2"),), ((pos(g2, "b"), 1),), 1)
        full = BasisIndex((pos(g2, "a1"), pos(g2, "a2"), pos(g2, "a3")), (), 0)
        assert table2.product(left, right) == {mixed: -1, full: 1}

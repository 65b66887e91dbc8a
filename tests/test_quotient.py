import random
from math import comb

import pytest

from symprod import lattice
from symprod.quotient import (
    ONE,
    Y,
    GeneratorSet,
    InvalidModeError,
    Monomial,
    NonHomogeneousError,
    PolyParseError,
    Polynomial,
    QuotientInvariantError,
    betti,
    format_poly,
    ideal_degree_rows,
    ideal_fills_degree,
    ideal_generators,
    ideals_equal_by_degree,
    monomial_mul,
    monomials_of_degree,
    monomials_of_weight,
    multiply_nf,
    normal_form,
    parse_poly,
    poly_vector,
    quotient_basis,
    relation_lattice_smith,
    relation_poly,
    verify_minimality,
)


def mono(xs=(), xp=(), q=0):
    return Monomial(tuple(xs), tuple(xp), q)


# -- monomials and arithmetic -------------------------------------------------

def test_monomial_type_and_weight():
    m = mono([1, 3], [2, 3], 4)
    assert m.abcq == (1, 1, 1, 4)
    assert m.weight == 1 + 1 + 2 + 4
    assert m.degree == 2 + 2 + 8


def test_monomial_mul_signs():
    # x'1 * x1 = -x1.x'1 (one odd transposition)
    got = monomial_mul(mono(xp=[1]), mono(xs=[1]))
    assert got == (mono([1], [1]), -1)
    # x1 * x'1 is already in canonical order
    assert monomial_mul(mono(xs=[1]), mono(xp=[1])) == (mono([1], [1]), 1)
    # exterior square dies
    assert monomial_mul(mono(xs=[1]), mono(xs=[1])) is None
    # y is central
    assert monomial_mul(Y, mono([1], [1])) == (mono([1], [1], 1), 1)


def test_polynomial_mul_anticommutes():
    x1 = Polynomial.monomial(mono(xs=[1]))
    xp1 = Polynomial.monomial(mono(xp=[1]))
    assert x1 * xp1 == -1 * (xp1 * x1)
    assert (x1 * x1).is_zero()


# -- relation polynomials ------------------------------------------------------

def test_relation_poly_no_paired_block_is_identity():
    m = mono(q=4)
    assert relation_poly(m) == Polynomial.monomial(m)
    m2 = mono([1], [2], 1)
    assert relation_poly(m2) == Polynomial.monomial(m2)


def test_relation_poly_single_bracket():
    # (y - x1 x'1) y = y^2 - x1.x'1.y
    got = relation_poly(mono([1], [1], 1))
    assert got == Polynomial({mono(q=2): 1, mono([1], [1], 1): -1})


def test_relation_poly_two_brackets():
    # (y - x1 x'1)(y - x2 x'2); the fully paired term picks up the
    # interleaving sign: x1.x'1.x2.x'2 = -x1.x2.x'1.x'2
    got = relation_poly(mono([1, 2], [1, 2], 0))
    want = Polynomial({
        mono(q=2): 1,
        mono([1], [1], 1): -1,
        mono([2], [2], 1): -1,
        mono([1, 2], [1, 2], 0): -1,
    })
    assert got == want


def test_relation_poly_max_weight_term_is_source():
    rng = random.Random(314)
    for _ in range(25):
        g = rng.randrange(1, 4)
        xs = tuple(sorted(rng.sample(range(1, g + 1), rng.randint(0, g))))
        xp = tuple(sorted(rng.sample(range(1, g + 1), rng.randint(0, g))))
        m = Monomial(xs, xp, rng.randrange(0, 3))
        rel = relation_poly(m)
        assert rel.degree() == m.degree
        heaviest = max(rel.terms, key=lambda t: t.weight)
        assert heaviest == m
        assert rel.terms[m] in (1, -1)
        for t in rel.terms:
            assert t == m or t.weight < m.weight


# -- generator sets ------------------------------------------------------------

def test_stable_single_generator():
    gens = ideal_generators(1, 3, "stable")
    assert gens.monomials == [mono([1], [1], 2)]
    # (y - x1 x'1) y^2
    assert gens.polys[0] == Polynomial({mono(q=3): 1, mono([1], [1], 2): -1})


def test_minimal_even_g2_n2():
    gens = ideal_generators(2, 2, "minimal_even")
    assert len(gens.polys) == comb(4, 3) + 1 == 5
    assert gens.monomials[-1] == mono([1], [1], 1)
    assert gens.polys[-1] == Polynomial({mono(q=2): 1, mono([1], [1], 1): -1})


def test_minimal_odd_g3_n3():
    gens = ideal_generators(3, 3, "minimal_odd")
    assert len(gens.polys) == comb(6, 4) == 15
    assert all(m.q == 0 for m in gens.monomials)


def test_full_mode_counts_weight():
    gens = ideal_generators(2, 2, "full")
    assert all(m.weight == 3 for m in gens.monomials)
    assert gens.monomials == monomials_of_weight(2, 3)


def test_minimal_set_of_wrong_size_is_a_typed_error(monkeypatch):
    monkeypatch.setattr("symprod.quotient.comb", lambda a, b: comb(a, b) + 1)
    with pytest.raises(QuotientInvariantError, match="expected C\\(4, 3\\) = 5"):
        ideal_generators(2, 2, "minimal_even")


def test_relation_leading_coefficient_not_unit_is_a_typed_error(monkeypatch):
    whole = relation_poly
    monkeypatch.setattr("symprod.quotient.relation_poly", lambda m: 2 * whole(m))
    with pytest.raises(QuotientInvariantError, match="leading coefficient -2, not"):
        normal_form(parse_poly("x1.x'1.y"), 1, 2)


def test_mode_validation():
    with pytest.raises(InvalidModeError):
        ideal_generators(2, 2, "stable")  # needs n >= 2g-1
    with pytest.raises(InvalidModeError):
        ideal_generators(3, 3, "minimal_even")  # parity mismatch
    with pytest.raises(InvalidModeError):
        ideal_generators(1, 2, "minimal_odd")  # outside 2..2g-2
    with pytest.raises(InvalidModeError):
        ideal_generators(2, 2, "bogus")


# -- normal forms ---------------------------------------------------------------

def test_normal_form_examples_g1_n2():
    assert normal_form(parse_poly("x1.x'1.y"), 1, 2) == parse_poly("y^2")
    assert normal_form(parse_poly("y^3"), 1, 2).is_zero()
    # degree <= n is untouched
    for text in ("y", "x1", "x1.x'1"):
        p = parse_poly(text)
        assert normal_form(p, 1, 2) == p


def test_normal_form_rejects_mixed_degree():
    with pytest.raises(NonHomogeneousError):
        normal_form(parse_poly("y + x1"), 1, 2)


def test_normal_form_rejects_foreign_index():
    with pytest.raises(ValueError):
        normal_form(parse_poly("x3"), 2, 2)


def test_normal_form_idempotent_and_supported_on_basis():
    rng = random.Random(999)
    for g, n in [(1, 2), (2, 2), (2, 3)]:
        for s in range(0, 2 * n + 1):
            monos = monomials_of_degree(g, s)
            support = set(quotient_basis(g, n, s))
            for _ in range(6):
                p = Polynomial({m: rng.randrange(-4, 5) for m in
                                rng.sample(monos, min(3, len(monos)))})
                nf = normal_form(p, g, n)
                assert normal_form(nf, g, n) == nf
                assert set(nf.terms) <= support


def test_normal_form_kills_generators_every_mode():
    cases = [(1, 2, ("full", "stable")),
             (2, 2, ("full", "minimal_even")),
             (2, 3, ("full", "stable")),
             (3, 3, ("full", "minimal_odd"))]
    for g, n, modes in cases:
        for mode in modes:
            for poly in ideal_generators(g, n, mode).polys:
                assert normal_form(poly, g, n).is_zero(), (g, n, mode)


def test_normal_form_kills_heavy_relations():
    # relations of every weight >= n+1, not only the generating weight
    g, n = 2, 2
    for w in range(n + 1, n + 4):
        for m in monomials_of_weight(g, w):
            assert normal_form(relation_poly(m), g, n).is_zero(), m


def test_top_degree_collapses_to_y_power():
    for g, n in [(1, 2), (2, 2)]:
        for m in monomials_of_degree(g, 2 * n):
            nf = normal_form(Polynomial.monomial(m), g, n)
            assert set(nf.terms) <= {Monomial((), (), n)}
        for m in monomials_of_degree(g, 2 * n + 1) + monomials_of_degree(g, 2 * n + 2):
            assert normal_form(Polynomial.monomial(m), g, n).is_zero()


def test_multiply_nf_examples_g1_n2():
    y = Polynomial.monomial(Y)
    assert multiply_nf(y, y, 1, 2) == parse_poly("y^2")
    assert multiply_nf(y, parse_poly("y^2"), 1, 2).is_zero()
    x1 = parse_poly("x1")
    assert multiply_nf(x1, x1, 1, 2).is_zero()


# -- Betti numbers and quotient basis -------------------------------------------

def test_betti_values():
    assert betti(2, 2, 2) == comb(4, 2) + comb(4, 0) == 7
    assert betti(2, 2, 0) == 1
    assert betti(1, 2, 3) == 2  # reflection of degree 1
    assert [betti(2, 2, k) for k in range(5)] == [1, 4, 7, 4, 1]
    with pytest.raises(ValueError):
        betti(2, 2, 5)


def test_betti_poincare_symmetry():
    for g, n in [(1, 2), (2, 3), (3, 2)]:
        for k in range(2 * n + 1):
            assert betti(g, n, k) == betti(g, n, 2 * n - k)


def test_quotient_basis_examples():
    assert quotient_basis(1, 2, 2) == [mono(q=1), mono([1], [1])]
    assert quotient_basis(1, 2, 4) == [mono(q=2)]
    assert quotient_basis(1, 2, 0) == [ONE]


def test_quotient_basis_counts_match_betti():
    for g, n in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for s in range(2 * n + 1):
            assert len(quotient_basis(g, n, s)) == betti(g, n, s), (g, n, s)


# -- lattice certification --------------------------------------------------------

def test_relation_lattice_torsion_free_small():
    for g, n in [(1, 2), (2, 2)]:
        for s in range(2 * n + 1):
            invariants = relation_lattice_smith(g, n, s)
            assert all(d == 1 for d in invariants if d), (g, n, s)


def test_ideal_fills_high_degrees():
    for g, n in [(1, 2), (2, 2)]:
        for s in (2 * n + 1, 2 * n + 2):
            assert ideal_fills_degree(g, n, s), (g, n, s)


def test_verify_minimality_g2_n2():
    report = verify_minimality(2, 2)
    assert report.case == "minimal_even"
    assert report.rank_q0 == report.expected_rank == 4
    assert report.extra_relation_outside is True
    assert all(flag for _, flag in report.degrees_equal)
    assert report.ok


def test_verify_minimality_redirects_to_stable():
    report = verify_minimality(2, 3)  # n = 2g-1 boundary
    assert report.case == "stable"
    assert report.ok


def test_stable_ideal_equals_full_g1_n2():
    stable = ideal_generators(1, 2, "stable")
    full = ideal_generators(1, 2, "full")
    assert all(flag for _, flag in ideals_equal_by_degree(stable, full, 1, 4))


def test_higher_q_generators_reduce_to_lower_q():
    # every full-mode generator with q >= 1 short of the stable one lies in
    # the lattice generated by the strictly lower-q generators
    for g, n in [(2, 2), (2, 3), (1, 3)]:
        full = ideal_generators(g, n, "full")
        by_q = {}
        for m, p in zip(full.monomials, full.polys):
            by_q.setdefault(m.q, []).append((m, p))
        q_min = n - 2 * g + 1 if n >= 2 * g - 1 else 0
        for q in sorted(by_q):
            if q == q_min and len(by_q[q]) == 1 and not by_q[q][0][0].abcq[0] \
                    and n >= 2 * g - 1 and by_q[q][0][0].abcq[2] == g:
                continue  # the stable generator itself
            for m, p in by_q[q]:
                if q == 0:
                    continue
                a, b, c, _ = m.abcq
                if a == 0 and b == 0 and q == 1 and n % 2 == 0 and 2 <= n <= 2 * g - 2:
                    continue  # the extra even-case generator is not reducible
                lower = GeneratorSet(
                    "lower",
                    [mm for qq in by_q if qq < q for mm, _ in by_q[qq]],
                    [pp for qq in by_q if qq < q for _, pp in by_q[qq]])
                deg = p.degree()
                rows = ideal_degree_rows(lower, g, deg)
                vec = poly_vector(p, monomials_of_degree(g, deg))
                assert lattice.lattice_membership(vec, rows), (g, n, m)


# -- text format -------------------------------------------------------------------

def test_format_examples():
    assert format_poly(parse_poly("y^2")) == "+1*y^2"
    assert format_poly(Polynomial({mono([1], [2], 4): 3})) == "+3*x1.x'2.y^4"
    assert format_poly(Polynomial()) == "0"
    assert format_poly(Polynomial({ONE: -2})) == "-2*1"


def test_parse_round_trip():
    rng = random.Random(2718)
    for _ in range(30):
        g = 3
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            xs = tuple(sorted(rng.sample(range(1, g + 1), rng.randint(0, 2))))
            xp = tuple(sorted(rng.sample(range(1, g + 1), rng.randint(0, 2))))
            terms[Monomial(xs, xp, rng.randrange(3))] = rng.choice([-3, -1, 1, 2])
        p = Polynomial(terms)
        assert parse_poly(format_poly(p)) == p


def test_parse_written_order_sign():
    assert parse_poly("x'1.x1") == parse_poly("-1*x1.x'1")
    assert parse_poly("x2.x1") == -1 * parse_poly("x1.x2")
    assert parse_poly("y.x1") == parse_poly("x1.y")


def test_parse_rejects_repeats_and_junk():
    with pytest.raises(PolyParseError):
        parse_poly("x1.x1")
    with pytest.raises(PolyParseError):
        parse_poly("x'2.x'2.y")
    with pytest.raises(PolyParseError):
        parse_poly("z3")
    with pytest.raises(PolyParseError):
        parse_poly("x1", g=0)
    with pytest.raises(PolyParseError):
        parse_poly("")
    # index beyond the configured genus
    with pytest.raises(PolyParseError):
        parse_poly("x4", g=3)

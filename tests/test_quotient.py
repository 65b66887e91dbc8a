import itertools
import random
import re
from math import comb

import pytest

from symprod import lattice, quotient
from symprod.quotient import (
    ONE,
    Y,
    GeneratorSet,
    InvalidModeError,
    MinimalityReport,
    Monomial,
    NonHomogeneousError,
    PolyParseError,
    Polynomial,
    QuotientInvariantError,
    betti,
    format_poly,
    ideal_bases,
    ideal_degree_rows,
    ideal_generators,
    ideals_equal_by_degree,
    monomial_mul,
    monomials_of_degree,
    multiply_nf,
    normal_form,
    parse_poly,
    quotient_basis,
    relation_poly,
    verify_minimality,
)
from symprod.quotient import _mask, _mask_relation_row, _parse_word

from relation_lattices import ideal_fills_degree, relation_lattice_smith


def mono(xs=(), xp=(), q=0):
    return Monomial(tuple(xs), tuple(xp), q)


# -- monomials and arithmetic -------------------------------------------------

def test_monomial_type_and_weight():
    m = mono([1, 3], [2, 3], 4)
    assert m.abcq == (1, 1, 1, 4)
    assert m.weight == 1 + 1 + 2 + 4
    assert m.degree == 2 + 2 + 8
    rng = random.Random(4242)
    for _ in range(300):
        g = rng.randrange(0, 8)
        xs = tuple(sorted(rng.sample(range(1, g + 1), rng.randint(0, g))))
        xp = tuple(sorted(rng.sample(range(1, g + 1), rng.randint(0, g))))
        m = Monomial(xs, xp, rng.randrange(0, 5))
        a, b, c, q = m.abcq
        assert m.weight == a + b + 2 * c + q, m


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


def monomial_mul_reference(m1, m2):
    """Reference `monomial_mul`: in the global variable order (unprimed
    by index, then primed by index) count the pairs of a variable of m1
    after a variable of m2."""
    if set(m1.xs) & set(m2.xs) or set(m1.xp) & set(m2.xp):
        return None
    w1 = [(0, i) for i in m1.xs] + [(1, i) for i in m1.xp]
    w2 = [(0, i) for i in m2.xs] + [(1, i) for i in m2.xp]
    inversions = sum(1 for u in w1 for v in w2 if u > v)
    prod = Monomial(tuple(sorted(m1.xs + m2.xs)),
                    tuple(sorted(m1.xp + m2.xp)), m1.q + m2.q)
    return prod, (-1 if inversions % 2 else 1)


def test_monomial_mul_matches_pairwise_inversions_g_le_3():
    cases = 0
    for g in range(4):
        monomials = [m for s in range(5) for m in monomials_of_degree_reference(g, s)]
        for m1 in monomials:
            for m2 in monomials:
                assert monomial_mul(m1, m2) == monomial_mul_reference(m1, m2), (m1, m2)
                cases += 1
    assert cases == 3 ** 2 + 9 ** 2 + 28 ** 2 + 80 ** 2


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


def relation_poly_reference(m):
    """Reference `relation_poly`: base * prod_k (y - x_k x'_k) expanded one
    bracket at a time through the general `Polynomial` product."""
    paired = sorted(set(m.xs) & set(m.xp))
    base = Monomial(tuple(i for i in m.xs if i not in paired),
                    tuple(j for j in m.xp if j not in paired), m.q)
    poly = Polynomial.monomial(base)
    for k in paired:
        bracket = Polynomial({Y: 1, Monomial((k,), (k,), 0): -1})
        poly = poly * bracket
    return poly


def monomials_of_weight_reference(g, w):
    """Every monomial of weight w, in `Monomial.sort_key` order: every pair
    of index subsets, kept when its weight is at most w, with q making up
    the rest."""
    out = []
    indices = range(1, g + 1)
    for xs_size in range(g + 1):
        for xs in itertools.combinations(indices, xs_size):
            for xp_size in range(g + 1):
                for xp in itertools.combinations(indices, xp_size):
                    m0 = Monomial(xs, xp, 0)
                    q = w - m0.weight
                    if q >= 0:
                        out.append(Monomial(xs, xp, q))
    out.sort(key=lambda m: m.sort_key)
    return out


def monomials_of_degree_reference(g, s):
    """Reference `monomials_of_degree`: every xs, then every xp of a size
    leaving an even degree for y."""
    out = []
    indices = range(1, g + 1)
    for xs_size in range(min(g, s) + 1):
        for xs in itertools.combinations(indices, xs_size):
            rest = s - xs_size
            for xp_size in range(min(g, rest) + 1):
                if (rest - xp_size) % 2:
                    continue
                for xp in itertools.combinations(indices, xp_size):
                    out.append(Monomial(xs, xp, (rest - xp_size) // 2))
    out.sort(key=lambda m: m.sort_key)
    return out


def test_monomials_of_degree_match_reference_g_le_6():
    for g in range(7):
        for s in range(2 * g + 5):
            assert monomials_of_degree(g, s) == monomials_of_degree_reference(g, s), (g, s)


def written(p):
    # p's terms in the order format_poly writes them
    return sorted(p.terms.items(), key=lambda term: term[0].sort_key)


def test_closed_forms_match_references_g_le_5():
    # the same list, and for each monomial the same terms, in the order
    # format_poly writes them: `relations` writes a row as it is
    cases = 0
    for g in range(6):
        for w in range(2 * g + 3):
            for m in monomials_of_weight_reference(g, w):
                reference = written(relation_poly_reference(m))
                got = list(relation_poly(m).terms.items())
                assert got == reference, m
                # the row verify reads, also in a wider mask layout
                for layout in (g, g + 1):
                    row = list(_mask_relation_row(_mask(m, layout), layout).items())
                    assert row == [(_mask(t, layout), c) for t, c in reference], (m, layout)
                cases += 1
    assert cases == 10467


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
    assert gens.monomials == monomials_of_weight_reference(2, 3)


def test_minimal_set_of_wrong_size_is_a_typed_error(monkeypatch):
    monkeypatch.setattr("symprod.quotient.comb", lambda a, b: comb(a, b) + 1)
    with pytest.raises(QuotientInvariantError, match="expected C\\(4, 3\\) = 5"):
        ideal_generators(2, 2, "minimal_even")


def test_relation_leading_coefficient_not_unit_is_a_typed_error(monkeypatch):
    whole = quotient._mask_relation_row
    monkeypatch.setattr("symprod.quotient._mask_relation_row",
                        lambda mask, g: {t: 2 * c for t, c in whole(mask, g).items()})
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


def test_ideal_generators_match_references_g_le_6():
    # every valid mode from n = 2 to the first stable n; the minimal modes
    # are the full set's q = 0 relations (plus y times the first n/2
    # blocks in the even case), in the full set's order
    for g in range(1, 7):
        for n in range(2, max(2 * g, 3)):
            full = monomials_of_weight_reference(g, n + 1)
            for mode in valid_modes(g, n):
                gens = ideal_generators(g, n, mode)
                if mode == "full":
                    expected = full
                elif mode == "stable":
                    expected = [mono(range(1, g + 1), range(1, g + 1), n - 2 * g + 1)]
                else:
                    expected = [m for m in full if m.q == 0]
                    if mode == "minimal_even":
                        expected.append(mono(range(1, n // 2 + 1), range(1, n // 2 + 1), 1))
                assert gens.monomials == expected, (g, n, mode)
                assert [list(p.terms.items()) for p in gens.polys] == [
                    written(relation_poly_reference(m)) for m in expected], (g, n, mode)


def test_ideal_generators_use_no_general_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("general polynomial product called")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr("symprod.quotient.monomial_mul", refuse)
    built = 0
    for g in range(1, 7):
        for n in range(2, max(2 * g, 3)):
            for mode in valid_modes(g, n):
                assert ideal_generators(g, n, mode).polys
                built += 1
    assert built == 62


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
        for m in monomials_of_weight_reference(g, w):
            assert normal_form(relation_poly(m), g, n).is_zero(), m


def test_top_degree_collapses_to_y_power():
    for g, n in [(1, 2), (2, 2)]:
        for m in monomials_of_degree(g, 2 * n):
            nf = normal_form(Polynomial.monomial(m), g, n)
            assert set(nf.terms) <= {Monomial((), (), n)}
        for m in monomials_of_degree(g, 2 * n + 1) + monomials_of_degree(g, 2 * n + 2):
            assert normal_form(Polynomial.monomial(m), g, n).is_zero()


def normal_form_reference(f, g, n):
    """Reference `normal_form`: rewrite the maximal (weight, sort_key)
    monomial of weight >= n+1 until none is left."""
    work = dict(f.terms)
    while True:
        heavy = [m for m in work if m.weight >= n + 1]
        if not heavy:
            return Polynomial(work)
        target = max(heavy, key=lambda m: (m.weight,) + m.sort_key)
        if not set(target.xs) & set(target.xp):
            del work[target]
            continue
        rel = relation_poly(target)
        scale = -work[target] * rel.terms[target]
        for m, c in rel.terms.items():
            work[m] = work.get(m, 0) + scale * c
            if not work[m]:
                del work[m]


def test_normal_form_matches_reference_random():
    rng = random.Random(8080)
    cases = 0
    for g in range(1, 6):
        for n in range(2, 6):
            for s in range(n + 1, 2 * n + 3):
                monos = monomials_of_degree(g, s)
                for _ in range(3):
                    p = Polynomial({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in
                                    rng.sample(monos, min(rng.randrange(1, 12), len(monos)))})
                    assert normal_form(p, g, n) == normal_form_reference(p, g, n), (g, n, p)
                    cases += 1
    assert cases == 5 * sum(3 * (n + 2) for n in range(2, 6))


def test_normal_form_matches_reference_on_many_terms():
    p = Polynomial({m: 1 for m in monomials_of_degree(8, 6)[:300]})
    got = normal_form(p, 8, 4)
    assert got == normal_form_reference(p, 8, 4)
    assert not got.is_zero()


@pytest.mark.parametrize("text", ["y^1000000000000",
                                  "x1.x'1.y^1000000000000-3*x2.x'2.y^1000000000000"])
def test_normal_form_skips_weights_no_term_has(text):
    # weight 10^12 is one rewrite step, not 10^12 empty ones
    p = parse_poly(text)
    got = normal_form(p, 2, 2)
    assert got.is_zero() and got == normal_form_reference(p, 2, 2)


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


def test_betti_names_the_negative_argument():
    with pytest.raises(ValueError, match=r"^need g >= 0, got g=-2$"):
        betti(-2, 2, 0)
    with pytest.raises(ValueError, match=r"^need n >= 0, got n=-1$"):
        betti(1, -1, 0)
    # the sphere gives CP^n, n = 0 a point, n = 1 the surface itself
    assert [betti(0, 3, k) for k in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    assert betti(0, 0, 0) == betti(4, 0, 0) == 1
    assert [betti(3, 1, k) for k in range(3)] == [1, 6, 1]


def test_betti_poincare_symmetry():
    for g, n in [(1, 2), (2, 3), (3, 2)]:
        for k in range(2 * n + 1):
            assert betti(g, n, k) == betti(g, n, 2 * n - k)


def test_quotient_basis_examples():
    assert quotient_basis(1, 2, 2) == [mono(q=1), mono([1], [1])]
    assert quotient_basis(1, 2, 4) == [mono(q=2)]
    assert quotient_basis(1, 2, 0) == [ONE]


def quotient_basis_reference(g, n, s):
    """Reference `quotient_basis`: every monomial of degree s, filtered."""
    monomials = monomials_of_degree_reference(g, s)
    if s <= n:
        return monomials
    if s == 2 * n:
        return [m for m in monomials if m == Monomial((), (), n)]
    return [m for m in monomials if m.weight <= n]


def test_quotient_basis_matches_weight_filter_g_le_5():
    for g in range(6):
        for n in range(7):
            for s in range(2 * n + 1):
                assert quotient_basis(g, n, s) == quotient_basis_reference(g, n, s), (g, n, s)


def test_quotient_basis_counts_match_betti(monkeypatch):
    # and only the monomials it returns are built
    built = []
    check = Monomial.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    for g in range(5):
        for n in range(6):
            for s in range(2 * n + 1):
                built.clear()
                basis = quotient_basis(g, n, s)
                assert len(built) == len(basis) == betti(g, n, s), (g, n, s)


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
        # below, the quotient has positive rank, so the ideal falls short
        for s in range(2 * n + 1):
            assert not ideal_fills_degree(g, n, s), (g, n, s)


def reference_rows_by_generator(polys, g, s):
    """Per generator, its degree-s spanning rows through the general
    `Polynomial` product: the generator times each monomial of the
    complementary degree, zero products dropped, columns in
    `monomials_of_degree(g, s)` order."""
    pos = {m: i for i, m in enumerate(monomials_of_degree(g, s))}
    multipliers = {}
    out = []
    for poly in polys:
        rows = []
        d = poly.degree()
        if d is not None and d <= s:
            if s - d not in multipliers:
                multipliers[s - d] = [Polynomial.monomial(m)
                                      for m in monomials_of_degree(g, s - d)]
            for factor in multipliers[s - d]:
                product = factor * poly
                if not product.is_zero():
                    row = [0] * len(pos)
                    for mm, c in product.terms.items():
                        row[pos[mm]] = c
                    rows.append(row)
        out.append(rows)
    return out


def ideal_degree_rows_reference(gens, g, s):
    """Reference `ideal_degree_rows`: the rows of each generator in turn."""
    return [row for rows in reference_rows_by_generator(gens.polys, g, s) for row in rows]


class PolynomialGenerators(GeneratorSet):
    """Generators that need not be relations: the homogeneous polynomials
    `polys`, each row keyed by `_mask(t, g)`, named by the (degree, mask)
    pairs `pairs` (or left unnamed)."""

    def __init__(self, g, polys, pairs=()):
        super().__init__("given", g, list(pairs))
        self.polys = polys

    def rows(self):
        return [(p.degree(), {_mask(m, self.g): c for m, c in p.terms.items()})
                for p in self.polys]


def valid_modes(g, n):
    modes = ["full"]
    if n >= 2 * g - 1:
        modes.append("stable")
    if 2 <= n <= 2 * g - 2:
        modes.append("minimal_odd" if n % 2 else "minimal_even")
    return modes


def test_ideal_degree_rows_match_reference():
    # every valid mode's generators are full-mode generators, so the
    # reference runs once per full generator and degree, and a mode's
    # expected rows are its generators' rows in generator order
    cases = 0
    for g in range(1, 5):
        for n in range(2, 6):
            full = ideal_generators(g, n, "full")
            by_degree = [dict(zip(full.monomials, reference_rows_by_generator(full.polys, g, s)))
                         for s in range(2 * n + 3)]
            full_polys = dict(zip(full.monomials, full.polys))
            for mode in valid_modes(g, n):
                gens = ideal_generators(g, n, mode)
                assert all(full_polys[m] == p for m, p in zip(gens.monomials, gens.polys))
                for s, rows_of in enumerate(by_degree):
                    expected = [row for m in gens.monomials for row in rows_of[m]]
                    assert ideal_degree_rows(gens, s) == expected, (g, n, mode, s)
                    cases += 1
    assert cases == 320


def test_ideal_degree_rows_match_reference_random_polys():
    # generators beyond the relation polynomials: mixed signs, unpaired
    # variables in any order, y powers
    rng = random.Random(77)
    g = 3
    for _ in range(20):
        polys = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(0, 5)
            pool = monomials_of_degree(g, d)
            polys.append(Polynomial({rng.choice(pool): rng.choice((-3, -1, 1, 2))
                                     for _ in range(rng.randrange(1, 5))}))
        gens = PolynomialGenerators(g, polys)
        for s in range(8):
            assert ideal_degree_rows(gens, s) == ideal_degree_rows_reference(gens, g, s)


def test_ideal_degree_rows_builds_no_monomial(monkeypatch):
    # columns and multipliers are enumerated as masks, and the generators
    # are read as their closed-form rows
    built = []
    post_init = Monomial.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    gens = ideal_generators(4, 4, "minimal_even")
    monkeypatch.setattr(Monomial, "__post_init__", counting)
    for s in range(9):
        ideal_degree_rows(gens, s)
    assert built == []


def test_ideal_degree_rows_work_counts_g4_n4():
    # (row count, rank) per degree s = 0..8: the counts are deterministic,
    # so a change that duplicates or drops spanning rows fails here
    expected = {
        "full": [(0, 0)] * 5 + [(56, 56), (398, 98), (1336, 120), (2898, 127)],
        "minimal_even": [(0, 0)] * 5 + [(56, 56), (329, 98), (888, 120), (1517, 127)],
    }
    for mode, counts in expected.items():
        gens = ideal_generators(4, 4, mode)
        for s, (n_rows, rank) in enumerate(counts):
            rows = ideal_degree_rows(gens, s)
            assert (len(rows), lattice.rank(rows)) == (n_rows, rank), (mode, s)


def reference_basis(gens, g, s):
    """The Hermite basis of the spanning rows of `ideal_degree_rows`, with
    their columns re-keyed from positions in `monomials_of_degree(g, s)`
    to monomial masks, the keys of `ideal_bases`."""
    masks = [_mask(m, g) for m in monomials_of_degree(g, s)]
    rows = ideal_degree_rows(gens, s)
    return lattice.hermite_rows({masks[j]: v for j, v in enumerate(row) if v} for row in rows)


def keys_are_degree_masks(basis, g, s):
    # every column of a propagated basis is the mask of a degree-s monomial
    masks = {_mask(m, g) for m in monomials_of_degree(g, s)}
    return all(key in masks for row in basis for key in row)


def test_ideal_bases_match_reference():
    # the propagated basis of each degree is the Hermite form of that
    # degree's spanning rows, two degrees past the top of the quotient
    cases = 0
    for g in range(1, 5):
        for n in range(2, 6):
            for mode in valid_modes(g, n):
                gens = ideal_generators(g, n, mode)
                bases = ideal_bases(gens, 2 * n + 2)
                assert len(bases) == 2 * n + 3
                for s, basis in enumerate(bases):
                    assert keys_are_degree_masks(basis, g, s), (g, n, mode, s)
                    assert basis == reference_basis(gens, g, s), (g, n, mode, s)
                    cases += 1
    assert cases == 320


def test_ideal_bases_match_reference_random_polys():
    # the generator sets of the spanning-row test: mixed signs, unpaired
    # variables in any order, y powers
    rng = random.Random(77)
    g = 3
    for _ in range(20):
        polys = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(0, 5)
            pool = monomials_of_degree(g, d)
            polys.append(Polynomial({rng.choice(pool): rng.choice((-3, -1, 1, 2))
                                     for _ in range(rng.randrange(1, 5))}))
        gens = PolynomialGenerators(g, polys)
        for s, basis in enumerate(ideal_bases(gens, 7)):
            assert keys_are_degree_masks(basis, g, s), s
            assert basis == reference_basis(gens, g, s), s


def test_ideals_equal_by_degree_rejects_sets_of_two_layouts():
    # masks laid out for g = 3 and g = 2 name different monomials
    with pytest.raises(ValueError, match="laid out for g=3 and g=2"):
        ideals_equal_by_degree(ideal_generators(3, 2, "full"),
                               ideal_generators(2, 2, "full"), 3)


def without(gens, i):
    return GeneratorSet("cut", gens.g, gens.pairs[:i] + gens.pairs[i + 1:])


def test_ideals_equal_by_degree_failing_flags_match_reference():
    # a generating set short of one generator spans a smaller ideal; the
    # degrees where that shows must be the degrees where the spanning rows'
    # lattices differ
    full_34 = ideal_generators(3, 4, "full")
    minimal_34 = ideal_generators(3, 4, "minimal_even")
    full_24 = ideal_generators(2, 4, "full")
    stable_24 = ideal_generators(2, 4, "stable")
    cases = [
        (without(minimal_34, 0), full_34, 3, 8, [5]),
        (without(minimal_34, len(minimal_34.polys) - 1), full_34, 3, 8, [6, 8]),
        (stable_24, without(full_24, 0), 2, 8, [6]),
    ]
    for a, b, g, top, failing in cases:
        flags = ideals_equal_by_degree(a, b, top)
        reference = [(s, lattice.lattice_equal(ideal_degree_rows(a, s),
                                               ideal_degree_rows(b, s)))
                     for s in range(top + 1)]
        assert flags == reference
        assert [s for s, flag in flags if not flag] == failing


def test_ideal_bases_work_counts_g4_n4(monkeypatch):
    # (rows handed to the Hermite form, rank) per degree s = 0..8; the
    # spanning rows of `test_ideal_degree_rows_work_counts_g4_n4` number
    # 56/398/1336/2898 (full) and 56/329/888/1517 (minimal_even) at s = 5..8
    expected = {
        "full": [(0, 0)] * 5 + [(56, 56), (398, 98), (580, 120), (630, 127)],
        "minimal_even": [(0, 0)] * 5 + [(56, 56), (329, 98), (524, 120), (602, 127)],
    }
    hermite_rows = lattice.hermite_rows
    seen = []

    def counting(rows):
        rows = list(rows)
        basis = hermite_rows(rows)
        seen.append((len(rows), len(basis)))
        return basis

    monkeypatch.setattr(lattice, "hermite_rows", counting)
    for mode, counts in expected.items():
        seen.clear()
        ideal_bases(ideal_generators(4, 4, mode), 8)
        assert seen == counts, mode


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


def verify_minimality_reference(g, n):
    # three propagations: q0's bases, and the full and minimal (or stable)
    # sets' bases compared degree by degree
    full = quotient.ideal_generators(g, n, "full")
    if n >= 2 * g - 1:
        stable = quotient.ideal_generators(g, n, "stable")
        return MinimalityReport(
            g, n, "stable",
            degrees_equal=ideals_equal_by_degree(stable, full, 2 * n))
    mode = "minimal_odd" if n % 2 else "minimal_even"
    minimal = quotient.ideal_generators(g, n, mode)
    q0 = GeneratorSet("q0", g, [p for p, m in zip(minimal.pairs, minimal.monomials)
                                if m.q == 0])
    q0_bases = ideal_bases(q0, n + 2 if mode == "minimal_even" else n + 1)
    report = MinimalityReport(
        g, n, mode,
        rank_q0=len(q0_bases[n + 1]),
        expected_rank=comb(2 * g, n + 1),
        degrees_equal=ideals_equal_by_degree(minimal, full, 2 * n))
    if mode == "minimal_even":
        extra = {_mask(m, g): c for m, c in minimal.polys[-1].terms.items()}
        report.extra_relation_outside = not lattice.all_in_lattice([extra], q0_bases[n + 2])
    return report


def test_verify_minimality_matches_reference():
    cases = [(g, n) for g in range(1, 5) for n in range(2, 2 * g + 2)] + [(5, 4), (5, 5)]
    for g, n in cases:
        report = verify_minimality(g, n)
        assert report == verify_minimality_reference(g, n), (g, n)
        assert report.ok, (g, n)
    assert len(cases) == 2 + 4 + 6 + 8 + 2


def test_verify_minimality_builds_no_polynomial(monkeypatch):
    # the minimal_even, minimal_odd and stable branches read the rows of
    # the closed form only: the same reports with relation_poly and the
    # Polynomial constructor refused
    cases = [(4, 4), (4, 5), (3, 5)]
    expected = [verify_minimality(g, n) for g, n in cases]
    assert [r.case for r in expected] == ["minimal_even", "minimal_odd", "stable"]

    def refuse(*args):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(quotient, "relation_poly", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    assert [verify_minimality(g, n) for g, n in cases] == expected


def two_sided_calls(monkeypatch):
    # count the fallbacks to the two-sided comparison
    calls = []
    two_sided = quotient.ideals_equal_by_degree

    def counting(a, b, top):
        calls.append((a.g, top))
        return two_sided(a, b, top)

    monkeypatch.setattr(quotient, "ideals_equal_by_degree", counting)
    return calls


def patch_generators(monkeypatch, mode, replace):
    # ideal_generators with mode's set passed through replace
    real = quotient.ideal_generators

    def patched(g, n, m):
        gens = real(g, n, m)
        return replace(gens) if m == mode else gens

    monkeypatch.setattr(quotient, "ideal_generators", patched)


def test_verify_minimality_one_sided_when_it_passes(monkeypatch):
    calls = two_sided_calls(monkeypatch)
    for g, n in [(3, 4), (3, 3), (2, 4), (4, 5)]:
        report = verify_minimality(g, n)
        assert report.degrees_equal == [(s, True) for s in range(2 * n + 1)]
    assert calls == []


@pytest.mark.parametrize("cut, failing, rank_q0, extra_outside",
                         [(0, [5], 5, True), (6, [6, 8], 6, False)])
def test_verify_minimality_falls_back_when_a_generator_is_missing(
        monkeypatch, cut, failing, rank_q0, extra_outside):
    # the (3,4) minimal set short of its first generator, then of its extra
    # one: each spans a smaller ideal, and the flags are the two-sided ones
    full = ideal_generators(3, 4, "full")
    short = without(ideal_generators(3, 4, "minimal_even"), cut)
    assert len(short.polys) == comb(6, 5)
    patch_generators(monkeypatch, "minimal_even", lambda gens: short)
    calls = two_sided_calls(monkeypatch)
    report = verify_minimality(3, 4)
    assert calls == [(3, 8)]
    assert report.degrees_equal == ideals_equal_by_degree(short, full, 8)
    assert [s for s, flag in report.degrees_equal if not flag] == failing
    assert (report.rank_q0, report.extra_relation_outside) == (rank_q0, extra_outside)
    assert not report.ok


def test_verify_minimality_two_sided_when_not_a_subset(monkeypatch):
    # the stable set against the full set short of its first generator,
    # which is the stable one: I_stable is not inside that ideal, although
    # every generator of that set reduces to zero against the stable bases
    stable_24 = ideal_generators(2, 4, "stable")
    cut_24 = without(ideal_generators(2, 4, "full"), 0)
    assert stable_24.monomials[0] not in cut_24.monomials
    patch_generators(monkeypatch, "full", lambda gens: cut_24)
    calls = two_sided_calls(monkeypatch)
    report = verify_minimality(2, 4)
    assert calls == [(2, 8)]
    assert report.degrees_equal == ideals_equal_by_degree(stable_24, cut_24, 8)
    assert [s for s, flag in report.degrees_equal if not flag] == [6]


def test_verify_minimality_compares_relations_not_just_monomials(monkeypatch):
    # the stable monomial with the constant 1 as its relation: the whole
    # ring, so it holds every full generator, yet no degree of the full
    # ideal up to 2n is everything
    stable = ideal_generators(2, 4, "stable")
    unit = PolynomialGenerators(2, [Polynomial.monomial(ONE)], stable.pairs)
    full_24 = ideal_generators(2, 4, "full")
    patch_generators(monkeypatch, "stable", lambda gens: unit)
    calls = two_sided_calls(monkeypatch)
    report = verify_minimality(2, 4)
    assert calls == [(2, 8)]
    assert report.degrees_equal == ideals_equal_by_degree(unit, full_24, 8)
    assert not any(flag for _, flag in report.degrees_equal)


def test_verify_minimality_work_counts(monkeypatch):
    # (Hermite forms, rows handed to them) per `verify`: one propagation
    # of the minimal or stable set, plus q0's degree n+2 step for even n;
    # the three propagations of the reference take 25/3,559, 29/3,620,
    # 25/515 and 22/488, and 35/132,736 at (6,6)
    expected = {(4, 4): (10, 1839), (4, 5): (11, 1691), (3, 4): (10, 245),
                (3, 5): (11, 216), (6, 6): (14, 68216)}
    reference = {(4, 4): (25, 3559), (4, 5): (29, 3620), (3, 4): (25, 515),
                 (3, 5): (22, 488)}
    hermite_rows = lattice.hermite_rows
    seen = []

    def counting(rows):
        rows = list(rows)
        seen.append(len(rows))
        return hermite_rows(rows)

    monkeypatch.setattr(lattice, "hermite_rows", counting)
    for (g, n), counts in expected.items():
        seen.clear()
        verify_minimality(g, n)
        assert (len(seen), sum(seen)) == counts, (g, n)
    for (g, n), counts in reference.items():
        seen.clear()
        verify_minimality_reference(g, n)
        assert (len(seen), sum(seen)) == counts, (g, n)


def test_verify_minimality_g6_n6_hermite_work(monkeypatch):
    # the figures `lattice`'s docstring quotes: 14 Hermite forms over
    # 68,216 input rows, and no entry of their output wider than 4 bits
    hermite_rows = lattice.hermite_rows
    seen = []

    def counting(rows):
        rows = list(rows)
        basis = hermite_rows(rows)
        widest = max((abs(v).bit_length() for row in basis for v in row.values()), default=0)
        seen.append((len(rows), widest))
        return basis

    monkeypatch.setattr(lattice, "hermite_rows", counting)
    assert verify_minimality(6, 6).ok
    assert len(seen) == 14
    assert sum(n_rows for n_rows, _ in seen) == 68216
    assert max(widest for _, widest in seen) == 4


def test_stable_ideal_equals_full_g1_n2():
    stable = ideal_generators(1, 2, "stable")
    full = ideal_generators(1, 2, "full")
    assert all(flag for _, flag in ideals_equal_by_degree(stable, full, 4))


def poly_vector(p, basis):
    """p's coefficients as a dense vector over the monomial list basis."""
    pos = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in p.terms.items():
        vec[pos[m]] = c
    return vec


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
                lower = GeneratorSet("lower", g, [
                    pair for pair, mm in zip(full.pairs, full.monomials) if mm.q < q])
                deg = p.degree()
                rows = ideal_degree_rows(lower, deg)
                vec = poly_vector(p, monomials_of_degree(g, deg))
                assert lattice.lattice_membership(vec, rows), (g, n, m)


# -- text format -------------------------------------------------------------------

def test_format_examples():
    assert format_poly(parse_poly("y^2")) == "+1*y^2"
    assert format_poly(Polynomial({mono([1], [2], 4): 3})) == "+3*x1.x'2.y^4"
    assert format_poly(Polynomial()) == "0"
    assert format_poly(Polynomial({ONE: -2})) == "-2*1"
    # mixed degrees, in `Monomial.sort_key` order
    assert format_poly(parse_poly("x1.x'1.y + y + x1")) == "+1*x1+1*y+1*x1.x'1.y"
    assert (format_poly(parse_poly("x'2 - 3*x1.x'1.y + y + x1 + x2.x1 - 2*y^2 + 1"))
            == "+1*1+1*x'2+1*x1+1*y-1*x1.x2-2*y^2-3*x1.x'1.y")


def format_poly_reference(p):
    """Reference `format_poly`: the terms in `Monomial.sort_key` order."""
    if p.is_zero():
        return "0"
    bits = []
    for m in sorted(p.terms, key=lambda m: m.sort_key):
        c = p.terms[m]
        bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*{m.word()}")
    return "".join(bits)


def test_format_poly_matches_sort_key_writer_on_mixed_degrees():
    rng = random.Random(3141)
    monomials = [m for s in range(7) for m in monomials_of_degree_reference(3, s)]
    for _ in range(300):
        p = Polynomial({m: rng.choice([-3, -1, 1, 2])
                        for m in rng.sample(monomials, rng.randint(0, 12))})
        assert format_poly(p) == format_poly_reference(p), p.terms


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


def parse_poly_reference(text, g=None):
    """Reference `parse_poly`: add each parsed term with `Polynomial`
    addition, one new polynomial per term."""
    s = text.replace(" ", "")
    if s[0] not in "+-":
        s = "+" + s
    poly = Polynomial()
    for piece in re.findall(r"[+-][^+-]+", s):
        sign = 1 if piece[0] == "+" else -1
        body = piece[1:]
        if "*" in body:
            coeff, word = body.split("*", 1)
        elif body.isdigit():
            coeff, word = body, "1"
        else:
            coeff, word = "1", body
        m, word_sign = _parse_word(word, g, piece)
        poly = poly + Polynomial.monomial(m, sign * int(coeff) * word_sign)
    return poly


def test_parse_builds_one_dict(monkeypatch):
    # cancelling terms, a term re-added after cancelling (it moves to the
    # end), and reordered words
    texts = ["x1 + x2 - x1", "x1 - x1 + 2*x1", "x1 + x2 - x1 + 3*x1",
             "x'2.x1 + x1.x'2 + y", "x1.x'2 - x'2.x1 + x1.x'2",
             "3*x2.x1 - 2*x1.x2 + x1.x2 + y^2 - y^2 + 0*x3 + 1",
             "-x'1.x2.x1 + y.x1 - x1.y + x2.x1.x'1"]
    rng = random.Random(1212)
    for _ in range(40):
        words = ["x1", "x2", "x'1", "x'2", "x3.x'3", "y"]
        pieces = []
        for _ in range(rng.randrange(1, 8)):
            word = ".".join(rng.sample(words, rng.randint(1, 3)))
            pieces.append(f"{rng.choice('+-')}{rng.randrange(0, 4)}*{word}")
        texts.append("".join(pieces))
    expected = [list(parse_poly_reference(t).terms.items()) for t in texts]

    def refuse(*args):
        raise AssertionError("Polynomial.__add__ called")

    monkeypatch.setattr(Polynomial, "__add__", refuse)
    for text, want in zip(texts, expected):
        assert list(parse_poly(text).terms.items()) == want, text


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

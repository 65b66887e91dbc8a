"""The integer product kernel against the tensor oracle and its reference.

The oracle multiplies realized basis elements as rational tensors and
expands the product greedily (``realize``, ``tensor_multiply``,
``expand``); the kernel must reproduce it exactly, entry order included.
The reference is the kernel without its first-slot blocks and rows
(``oracles.IndexProductReference``); the kernel must give its dicts too,
key order included, on the same inputs and at larger sizes.
"""

import itertools
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import IndexProductReference

from symprod import fixtures
from symprod.bridge import SurfacePowerMap
from symprod.quotient import Monomial, Polynomial, _mask, monomials_of_degree, quotient_basis
from symprod.rings import Generator, Ring
from symprod.sympower import (
    IndexProduct,
    NotSymmetricError,
    TheoremViolationError,
    enumerate_basis,
    expand,
    realize,
    structure_constants,
)
from symprod.tensors import sym_element, tensor_multiply


def oracle_entries(ring, n, max_degree):
    basis = [i for i in enumerate_basis(ring, n) if i.degree(ring) <= max_degree]
    realized = {i: realize(ring, i) for i in basis}
    entries = {}
    for i in basis:
        for j in basis:
            if i.degree(ring) + j.degree(ring) > max_degree:
                continue
            combo = expand(tensor_multiply(realized[i], realized[j]))
            assert all(c.denominator == 1 for c in combo.values())
            entries[(i, j)] = {k: int(c) for k, c in combo.items()}
    return entries


def assert_same_entries(got, want):
    assert got == want
    assert list(got) == list(want)
    assert all(list(got[key]) == list(want[key]) for key in want)


def assert_same_table(ring, n, max_degree):
    table = structure_constants(ring, n, max_degree)
    assert_same_entries(table.entries, oracle_entries(ring, n, max_degree))
    assert_matches_reference(table)


def assert_matches_reference(table, pairs=None):
    """Every entry of the table (or those of ``pairs``) equals the
    reference kernel's product, key order included."""
    reference = IndexProductReference(table.ring)
    pairs = list(table.entries) if pairs is None else pairs
    assert_same_entries({key: table.entries[key] for key in pairs},
                        {(i, j): reference(i, j) for i, j in pairs})


# the torus with a2*a1 = +b: its generators do not commute up to sign, so
# the table cannot mirror (i, j) into (j, i) and must match the oracle anyway
NONCOMMUTATIVE_TORUS = Ring(
    [Generator("a1", 1), Generator("a2", 1), Generator("b", 2)],
    {("a1", "a2"): {"b": 1}, ("a2", "a1"): {"b": 1}}, name="noncommutative_torus")

GRID = [
    (fixtures.torus_ring(), 2, 4),
    (fixtures.torus_ring(), 3, 6),
    (fixtures.surface_ring(2), 2, 4),
    (fixtures.surface_ring(2), 3, 6),
    (fixtures.surface_ring(3), 2, 4),
    (fixtures.sphere2_ring(), 4, 8),
    (fixtures.hopf_ring(1), 3, 12),
    (fixtures.hopf_ring(2), 2, 8),
    (fixtures.hopf_ring(3), 3, 12),
    (fixtures.sullivan_ring(1), 2, 6),
    (fixtures.sullivan_ring(2), 3, 5),
    (fixtures.sullivan_ring(3), 2, 6),
    (fixtures.s2xs2_ring(), 3, 12),
    (fixtures.cp2_conn_cp2bar_ring(), 3, 12),
    (NONCOMMUTATIVE_TORUS, 2, 4),
    (NONCOMMUTATIVE_TORUS, 3, 6),
]


@pytest.mark.parametrize("ring,n,max_degree", GRID,
                         ids=[f"{r.name}-n{n}-d{d}" for r, n, d in GRID])
def test_kernel_table_equals_oracle_on_fixture_grid(ring, n, max_degree):
    assert_same_table(ring, n, max_degree)


@pytest.mark.parametrize("g,n", [(g, n) for g in (1, 2, 3) for n in (2, 3, 4)])
def test_bridge_coordinates_equal_expanded_images(g, n):
    fmap = SurfacePowerMap(g, n)
    for s in range(2 * n + 1):
        for m in quotient_basis(g, n, s):
            p = Polynomial.monomial(m)
            want = {k: int(c) for k, c in expand(fmap.image(p)).items()}
            assert fmap.row_coordinates({_mask(m, g): 1}, s) == want, (m, s)
            if s:
                basis = enumerate_basis(fmap.ring, n, degree=s)
                assert fmap.coordinates(m, s) == [want.get(k, 0) for k in basis]


@pytest.mark.parametrize("g,n", [(g, n) for g in (1, 2, 3) for n in (2, 3, 4)])
def test_surface_chains_equal_reference_chains(g, n):
    # the bridge multiplies through ``__call__``, one product at a time
    fmap, reference_map = SurfacePowerMap(g, n), SurfacePowerMap(g, n)
    reference_map._kernel = IndexProductReference(reference_map.ring)
    for s in range(2 * n + 1):
        for m in monomials_of_degree(g, s):
            got = fmap.row_coordinates({_mask(m, g): 1}, s)
            want = reference_map.row_coordinates({_mask(m, g): 1}, s)
            assert (got, list(got)) == (want, list(want)), m


@pytest.mark.parametrize("ring,n,max_degree", [
    (fixtures.surface_ring(2), 6, 12),
    (fixtures.surface_ring(3), 4, 8),
], ids=["surface_g2-n6-d12", "surface_g3-n4-d8"])
def test_pinned_tables_equal_reference(ring, n, max_degree):
    # the tables whose JSON digests test_goldens pins; the mirrored half
    # is the other order of a pair checked here
    table = structure_constants(ring, n, max_degree)
    index = {idx: a for a, idx in enumerate(table.basis)}
    assert_matches_reference(table, [(i, j) for i, j in table.entries
                                      if index[i] <= index[j]])


def test_chained_products_equal_tensor_products():
    # the spot check multiplies images by continuing one chain with the
    # other monomial's generators
    g, n = 2, 3
    fmap = SurfacePowerMap(g, n)
    pool = [m for s in range(1, n + 1) for m in monomials_of_degree(g, s)]

    def image(m):
        return fmap.image(Polynomial.monomial(m))

    for m1, m2 in itertools.islice(itertools.product(pool, pool), 0, None, 37):
        direct = tensor_multiply(image(m1), image(m2))
        want = {k: int(c) for k, c in expand(direct).items()}
        got = fmap.times(fmap.row_coordinates({_mask(m1, g): 1}, m1.degree),
                         fmap.generator_indices(_mask(m2, g), m2.q))
        assert got == want, (m1, m2)


def test_spread_classes_are_basis_elements():
    fmap = SurfacePowerMap(2, 3)

    def spread(m):
        [idx] = fmap.generator_indices(_mask(m, 2), m.q)
        return realize(fmap.ring, idx)

    def chi(name):
        return sym_element(fmap.ring, 3, [fmap.ring.gen(name)])

    # x2 -> chi[a2], x'1 -> chi[a_{1+g}] = chi[a3], y -> chi[b]
    assert spread(Monomial((2,), (), 0)) == chi("a2")
    assert spread(Monomial((), (1,), 0)) == chi("a3")
    assert spread(Monomial((), (), 1)) == chi("b")


def test_remainder_of_pad_division_is_a_theorem_violation(monkeypatch):
    # Dropping one arrangement from every orbit, as a sign or orbit bug
    # would, leaves chi[b] * chi[b] in Sym^3 S^2 at half an integer.
    from symprod import sympower
    whole = sympower.signed_arrangements
    monkeypatch.setattr(sympower, "signed_arrangements",
                        lambda ring, slots: list(whole(ring, slots))[:-1])
    with pytest.raises(TheoremViolationError,
                       match=r"1/2 in chi\[b\] \* chi\[b\] at chi\[b\^2\]"):
        structure_constants(fixtures.sphere2_ring(), 3, 6)


def test_kernel_rejects_products_breaking_degree_parity():
    # products that change degree parity break the equivariance of the
    # tensor product, which the oracle reports as a non-invariant product
    ring = Ring([Generator("u", 2), Generator("a", 1)],
                {("u", "a"): {"u": -1}, ("a", "a"): {"u": 3}})
    with pytest.raises(NotSymmetricError):
        oracle_entries(ring, 2, 4)
    with pytest.raises(NotSymmetricError, match="wrong degree parity"):
        IndexProduct(ring)


def test_kernel_rejects_arity_mismatch():
    ring = fixtures.torus_ring()
    product = IndexProduct(ring)
    i = enumerate_basis(ring, 2)[0]
    j = enumerate_basis(ring, 3)[0]
    with pytest.raises(ValueError):
        product(i, j)


# -- one product per unordered pair -------------------------------------------

@pytest.mark.parametrize("ring,n,max_degree,calls,entries", [
    (fixtures.surface_ring(2), 4, 8, 623, 1219),
    (fixtures.torus_ring(), 2, 4, 14, 24),
    # no graded commutativity: every ordered pair goes through the kernel
    (NONCOMMUTATIVE_TORUS, 2, 4, 24, 24),
    (NONCOMMUTATIVE_TORUS, 3, 6, 60, 60),
], ids=["surface_g2-n4-d8", "torus-n2-d4", "noncommutative-n2-d4", "noncommutative-n3-d6"])
def test_kernel_calls_per_table(monkeypatch, ring, n, max_degree, calls, entries):
    # a graded-commutative table multiplies each unordered pair once; a
    # table asks the kernel for whole rows, so count the products in each
    counted = 0
    row = IndexProduct.row

    def counting(self, i, js):
        nonlocal counted
        counted += len(js)
        return row(self, i, js)

    monkeypatch.setattr(IndexProduct, "row", counting)
    table = structure_constants(ring, n, max_degree)
    assert (counted, len(table.entries)) == (calls, entries)


# -- random valid presentations ----------------------------------------------

def exterior_ring(degrees) -> Ring:
    """Free graded-commutative ring on generators of the given degrees with
    every square zero; its generators are the nonempty subset products."""
    subsets = [s for r in range(1, len(degrees) + 1)
               for s in itertools.combinations(range(len(degrees)), r)]

    def name(s):
        return "e" + "_".join(map(str, s))

    products = {}
    for s in subsets:
        for t in subsets:
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t
                             if a > b and degrees[a] % 2 and degrees[b] % 2)
            products[(name(s), name(t))] = {
                name(tuple(sorted(s + t))): -1 if inversions % 2 else 1}
    gens = [Generator(name(s), sum(degrees[i] for i in s)) for s in subsets]
    return Ring(gens, products, name="exterior")


presentations = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(exterior_ring),
    st.builds(fixtures.hopf_ring, st.integers(1, 5), st.integers(1, 2)),
    st.builds(fixtures.sullivan_ring, st.integers(1, 5)),
)


@settings(max_examples=40, deadline=timedelta(seconds=2), derandomize=True,
          database=None)
@given(ring=presentations, n=st.integers(2, 3), cut=st.floats(0.25, 1.0))
def test_kernel_equals_oracle_on_random_presentations(ring, n, cut):
    assert ring.validate().ok
    top = n * max(g.degree for g in ring.generators)
    max_degree = max(1, int(cut * top))
    if n == 3 and len(ring.generators) > 4:
        max_degree = min(max_degree, 5)
    assert_same_table(ring, n, max_degree)

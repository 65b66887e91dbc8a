import dataclasses
import pickle
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from symprod import fixtures
from symprod.rings import load_ring, ring_from_dict
from symprod.sympower import (
    BasisIndex,
    NotSymmetricError,
    chi,
    dual_element,
    enumerate_basis,
    expand,
    index_to_dict,
    pair,
    realize,
    structure_constants,
    table_to_dict,
)
from symprod.tensors import Perm, TensorElement, act, elementary, tensor_multiply

from oracles import expand_via_pairing, index_from_dict, table_entries, table_from_dict
from test_rings import SHIPPED


def idx(ring, odd=(), even=(), pad=0):
    return BasisIndex(
        tuple(ring.position[name] for name in odd),
        tuple((ring.position[name], m) for name, m in even),
        pad,
    )


def brute_realize(ring, index):
    """Oracle: (1/pad!) * sum over the whole group of the sorted tensor."""
    n = index.arity
    base = TensorElement(ring, n, {index.sorted_slots(ring): Fraction(1)})
    total = TensorElement.zero(ring, n)
    for sigma in Perm.all(n):
        total = total + act(sigma, base)
    return Fraction(1, factorial(index.pad)) * total


@pytest.fixture
def torus():
    return fixtures.surface_ring(1)


@pytest.fixture
def sphere():
    return fixtures.load_fixture("sphere2")


# -- basis enumeration -----------------------------------------------------

def test_enumerate_sphere_n3(sphere):
    basis = enumerate_basis(sphere, 3)
    assert basis == [idx(sphere, even=[("b", 1)], pad=2),
                     idx(sphere, even=[("b", 2)], pad=1),
                     idx(sphere, even=[("b", 3)], pad=0)]
    assert [b.degree(sphere) for b in basis] == [2, 4, 6]


def test_enumerate_torus_degree1(torus):
    basis = enumerate_basis(torus, 2, degree=1)
    assert basis == [idx(torus, odd=["a1"], pad=1), idx(torus, odd=["a2"], pad=1)]


def test_enumerate_degree0_empty(torus):
    assert enumerate_basis(torus, 2, degree=0) == []


def test_enumerate_torus_counts_per_degree(torus):
    # ranks of the invariant subring for the torus square: 1,2,2,2,1
    counts = [len(enumerate_basis(torus, 2, degree=d)) for d in range(5)]
    assert counts == [0, 2, 2, 2, 1]


def test_enumerate_counts_match_closed_formula():
    # rank in degree k is sum of C(2g, k - 2i), reflected around degree n
    from math import comb

    def closed_form(g, n, k):
        if k > n:
            k = 2 * n - k
        return sum(comb(2 * g, k - 2 * i) for i in range(k // 2 + 1))

    for g in (1, 2, 3):
        ring = fixtures.surface_ring(g)
        for n in (2, 3, 4, 5):
            for k in range(1, 2 * n + 1):
                assert len(enumerate_basis(ring, n, degree=k)) \
                    == closed_form(g, n, k), (g, n, k)


def macdonald_counts(ring, n):
    """{d: coefficient of u^n t^d, d >= 1} in Macdonald's Poincare series
    prod_{k odd} (1 + t^k u)^{b_k} / prod_{k even} (1 - t^k u)^{b_k}, where
    b_k counts the generators of degree k and b_0 = 1 is the unit."""
    series = {(0, 0): 1}  # (power of u, power of t) -> coefficient, cut at u^n
    for k in [0] + [g.degree for g in ring.generators]:
        top = 1 if k % 2 else n  # 1 + t^k u, or 1/(1 - t^k u) = sum_j (t^k u)^j
        grown = Counter()
        for (m, d), c in series.items():
            for j in range(min(top, n - m) + 1):
                grown[m + j, d + j * k] += c
        series = grown
    return {d: c for (m, d), c in series.items() if m == n and d >= 1}


MACDONALD_RINGS = {path.name: (lambda path=path: load_ring(path)) for path in SHIPPED}
MACDONALD_RINGS.update({
    # family members no file ships, and a re-ingested symmetric square
    "surface_g4": lambda: fixtures.surface_ring(4),
    "hopf_2_m2": lambda: fixtures.hopf_ring(1, 2),
    "sullivan_mu_4": lambda: fixtures.sullivan_ring(4),
    "sym2_surface_g2": lambda: ring_from_dict(table_to_dict(
        structure_constants(fixtures.load_fixture("surface_g2"), 2, 4))),
})


@pytest.mark.parametrize("name", MACDONALD_RINGS)
def test_basis_counts_are_macdonalds_poincare_series(name):
    ring = MACDONALD_RINGS[name]()
    for n in range(2, 7):
        counts = Counter(index.degree(ring) for index in enumerate_basis(ring, n))
        assert counts == macdonald_counts(ring, n), (name, n)


# -- realization -----------------------------------------------------------

def test_realize_spread_class(torus):
    got = realize(torus, idx(torus, odd=["a1"], pad=1))
    assert got == elementary(torus, ["a1", None]) + elementary(torus, [None, "a1"])


def test_realize_double_even_block(sphere):
    got = realize(sphere, idx(sphere, even=[("b", 2)]))
    assert got == 2 * elementary(sphere, ["b", "b"])


def test_realize_even_block_with_pad(sphere):
    got = realize(sphere, idx(sphere, even=[("b", 2)], pad=1))
    want = 2 * (elementary(sphere, ["b", "b", None])
                + elementary(sphere, ["b", None, "b"])
                + elementary(sphere, [None, "b", "b"]))
    assert got == want


def test_realize_matches_group_sum_oracle():
    g2 = fixtures.surface_ring(2)
    sull = fixtures.sullivan_ring(2)
    cases = [
        (g2, idx(g2, odd=["a1", "a3"], pad=1)),
        (g2, idx(g2, odd=["a2"], even=[("b", 1)], pad=0)),
        (g2, idx(g2, even=[("b", 2)], pad=1)),
        (g2, idx(g2, odd=["a1", "a2", "a4"], pad=1)),
        (sull, idx(sull, odd=["a1"], even=[("g2", 2)], pad=1)),
        (sull, idx(sull, odd=["a2", "a3"], even=[("w", 1)], pad=0)),
    ]
    for ring, index in cases:
        assert realize(ring, index) == brute_realize(ring, index)


def test_realize_always_integral():
    for ring in (fixtures.surface_ring(2), fixtures.sullivan_ring(3)):
        for n in (2, 3):
            for index in enumerate_basis(ring, n):
                t = realize(ring, index)
                assert t.is_integral(), index
                assert t.is_symmetric(), index
                lead = t.terms[index.sorted_slots(ring)]
                assert lead == index.leading_multiplier


# -- duals and pairing -------------------------------------------------------

def test_dual_examples(torus, sphere):
    d = dual_element(torus, idx(torus, odd=["a1"], pad=1))
    assert d.coefficient == 1
    d2 = dual_element(sphere, idx(sphere, even=[("b", 2)]))
    assert d2.coefficient == Fraction(1, 2)
    sull = fixtures.sullivan_ring(1)
    d3 = dual_element(sull, idx(sull, odd=["a1"], even=[("g1", 1)], pad=1))
    assert d3.coefficient == 1


def test_pair_matching_and_mismatched(torus, sphere):
    i1 = idx(torus, odd=["a1"], pad=1)
    i2 = idx(torus, odd=["a2"], pad=1)
    assert pair(torus, i1, dual_element(torus, i1)) == 1
    assert pair(torus, i1, dual_element(torus, i2)) == 0
    # <2 b(x)b, (1/2) dual b (x) dual b> = 1
    i3 = idx(sphere, even=[("b", 2)])
    assert pair(sphere, i3, dual_element(sphere, i3)) == 1
    with pytest.raises(ValueError, match="pairing across different tensor arities"):
        pair(torus, i1, dual_element(torus, idx(torus, odd=["a1"], pad=2)))


def test_pair_exhaustive_duality():
    for ring, n in [(fixtures.surface_ring(2), 2), (fixtures.load_fixture("sphere2"), 3),
                    (fixtures.sullivan_ring(2), 2)]:
        basis = enumerate_basis(ring, n)
        for gamma in basis:
            for other in basis:
                value = pair(ring, gamma, dual_element(ring, other))
                assert value in (-1, 0, 1)
                assert (value != 0) == (gamma == other)


# -- expansion ---------------------------------------------------------------

def test_expand_round_trips_basis():
    ring = fixtures.surface_ring(2)
    for index in enumerate_basis(ring, 3):
        assert expand(realize(ring, index)) == {index: 1}


def test_expand_square_on_sphere(sphere):
    t = elementary(sphere, ["b", None]) + elementary(sphere, [None, "b"])
    assert expand(tensor_multiply(t, t)) == {idx(sphere, even=[("b", 2)]): 1}


def test_expand_torus_product_of_spread_classes(torus):
    xi1 = realize(torus, idx(torus, odd=["a1"], pad=1))
    xi1p = realize(torus, idx(torus, odd=["a2"], pad=1))
    got = expand(tensor_multiply(xi1, xi1p))
    assert got == {idx(torus, even=[("b", 1)], pad=1): 1,
                   idx(torus, odd=["a1", "a2"]): 1}


def test_expand_rejects_non_invariant(torus):
    with pytest.raises(NotSymmetricError):
        expand(elementary(torus, ["a1", None]))


def test_expand_matches_pairing_route():
    ring = fixtures.surface_ring(2)
    basis = enumerate_basis(ring, 2)
    combos = [
        realize(ring, basis[0]) + 3 * realize(ring, basis[4]),
        tensor_multiply(realize(ring, idx(ring, odd=["a1"], pad=1)),
                        realize(ring, idx(ring, odd=["a3"], pad=1))),
    ]
    for t in combos:
        assert expand(t) == expand_via_pairing(t, basis)


def test_expand_handles_unit_component(torus):
    t = TensorElement.unit(torus, 2) + realize(torus, idx(torus, odd=["a1"], pad=1))
    combo = expand(t)
    unit_index = BasisIndex((), (), 2)
    assert combo[unit_index] == 1
    assert combo[idx(torus, odd=["a1"], pad=1)] == 1


# -- span-element recursion identities ---------------------------------------

def test_recursion_two_odds_merge(torus):
    # chi(a1)*chi(a2) = chi(|a1a2) + chi(a1,a2|), with a1 a2 = b
    a1, a2, b = torus.gen("a1"), torus.gen("a2"), torus.gen("b")
    lhs = tensor_multiply(chi(torus, 2, [a1], []), chi(torus, 2, [a2], []))
    rhs = chi(torus, 2, [], [b]) + chi(torus, 2, [a1, a2], [])
    assert lhs == rhs


def test_recursion_odd_joins_even_list():
    # genus 2, n=3, k=1, s=1: chi(a1|b)*chi(a3|) = chi(|a1a3, b) + chi(a1, b*a3|b)
    # with a1 a3 = b and b a3 = 0
    ring = fixtures.surface_ring(2)
    a1, a3, b = ring.gen("a1"), ring.gen("a3"), ring.gen("b")
    lhs = tensor_multiply(chi(ring, 3, [a1], [b]), chi(ring, 3, [a3], []))
    rhs = chi(ring, 3, [], [b, b]) + chi(ring, 3, [a1, a3], [b])
    assert lhs == rhs


def test_recursion_alternating_signs():
    # genus 2, n=3, k=2, s=0:
    # chi(a1,a2|)*chi(a3|) = -chi(a2|a1a3) + chi(a1|a2a3) + chi(a1,a2,a3|)
    # and a1 a3 = b, a2 a3 = 0
    ring = fixtures.surface_ring(2)
    a1, a2, a3, b = (ring.gen(x) for x in ("a1", "a2", "a3", "b"))
    lhs = tensor_multiply(chi(ring, 3, [a1, a2], []), chi(ring, 3, [a3], []))
    rhs = -1 * chi(ring, 3, [a2], [b]) + chi(ring, 3, [a1, a2, a3], [])
    assert lhs == rhs


def test_recursion_even_absorbs_odd():
    # 3-form ring, n=2, k=0, s=1: chi(|g1)*chi(a1|) = chi(g1*a1|) + chi(a1|g1)
    ring = fixtures.sullivan_ring(2)
    a1, g1, w = ring.gen("a1"), ring.gen("g1"), ring.gen("w")
    lhs = tensor_multiply(chi(ring, 2, [], [g1]), chi(ring, 2, [a1], []))
    rhs = chi(ring, 2, [w], []) + chi(ring, 2, [a1], [g1])
    assert lhs == rhs


def test_recursion_append_even(torus):
    # k=1 gaining an even argument: chi(a1|)*chi(|b) = chi(a1*b|) + chi(a1|b)
    # and a1 b = 0 on the torus
    a1, b = torus.gen("a1"), torus.gen("b")
    lhs = tensor_multiply(chi(torus, 2, [a1], []), chi(torus, 2, [], [b]))
    assert lhs == chi(torus, 2, [a1], [b])


def test_chi_of_basis_generators_matches_realize():
    ring = fixtures.surface_ring(2)
    cases = [
        (idx(ring, odd=["a1"], pad=2), [ring.gen("a1")], []),
        (idx(ring, odd=["a1", "a4"], pad=1), [ring.gen("a1"), ring.gen("a4")], []),
        (idx(ring, even=[("b", 2)], pad=1), [], [ring.gen("b"), ring.gen("b")]),
    ]
    for index, odds, evens in cases:
        assert chi(ring, 3, odds, evens) == realize(ring, index)


# -- structure tables ---------------------------------------------------------

def test_sphere_table_is_truncated_polynomial_ring(sphere):
    n = 3
    table = structure_constants(sphere, n, 2 * n + 2)
    eta = idx(sphere, even=[("b", 1)], pad=n - 1)
    for p in range(2, n + 1):
        lower = idx(sphere, even=[("b", p - 1)], pad=n - p + 1)
        assert table.product(eta, lower) == {idx(sphere, even=[("b", p)], pad=n - p): 1}
    # the power beyond the top degree vanishes
    top = idx(sphere, even=[("b", n)])
    assert table.product(eta, top) == {}


def test_table_entry_torus(torus):
    table = structure_constants(torus, 2, 4)
    got = table.product(idx(torus, odd=["a1"], pad=1), idx(torus, odd=["a2"], pad=1))
    assert got == {idx(torus, even=[("b", 1)], pad=1): 1,
                   idx(torus, odd=["a1", "a2"]): 1}


def test_table_alternating_entry_surface_g2():
    ring = fixtures.surface_ring(2)
    table = structure_constants(ring, 3, 4)
    got = table.product(idx(ring, odd=["a1", "a2"], pad=1),
                        idx(ring, odd=["a3"], pad=2))
    assert got == {idx(ring, odd=["a2"], even=[("b", 1)], pad=1): -1,
                   idx(ring, odd=["a1", "a2", "a3"]): 1}


def test_table_result_keys_are_the_basis_objects():
    # a stored result is keyed by basis position, and ``product`` maps each
    # key to the table's own basis index, not an equal copy
    ring = fixtures.surface_ring(2)
    table = structure_constants(ring, 4, 8)
    members = {id(b) for b in table.basis}
    keys = [k for row in table.rows for entry in row for k in entry]
    assert keys and all(type(k) is int and 0 <= k < len(table.basis) for k in keys)
    products = table_entries(table)
    assert all(id(k) in members for i, j in products for k in table.product(i, j))


def test_table_graded_commutativity(torus):
    table = structure_constants(torus, 2, 4)
    for (i, j), entry in table_entries(table).items():
        di, dj = i.degree(torus), j.degree(torus)
        sign = -1 if (di % 2 and dj % 2) else 1
        mirrored = {k: sign * c for k, c in table.product(j, i).items()}
        assert entry == mirrored


def test_table_integrality_hopf():
    for k in (1, 2, 3):
        ring = fixtures.hopf_ring(k)
        table = structure_constants(ring, 3, 12)
        u = idx(ring, even=[("u", 1)], pad=2)
        uu = table.product(u, u)
        # chi(u)^2 = 2 chi(u^2 block) + 2k chi(v): check integrality shape
        assert all(isinstance(c, int) for c in uu.values())
        assert uu[idx(ring, even=[("u", 2)], pad=1)] == 1
        assert uu[idx(ring, even=[("v", 1)], pad=2)] == 2 * k


def test_unit_tensor_times_basis(torus):
    one = TensorElement.unit(torus, 2)
    for index in enumerate_basis(torus, 2):
        t = realize(torus, index)
        assert tensor_multiply(one, t) == t


def test_table_json_round_trip(sphere):
    table = structure_constants(sphere, 2, 4)
    doc = table_to_dict(table)
    again = table_from_dict(sphere, doc)
    assert again == table
    # the emitted dialect re-ingests as a ring presentation and validates
    ring = ring_from_dict(doc)
    assert ring.validate().ok


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.name)
def test_shipped_table_reingests_and_validates(path):
    table = structure_constants(load_ring(path), 2, 4)
    assert ring_from_dict(table_to_dict(table)).validate().ok


def test_index_json_round_trip(torus):
    for index in enumerate_basis(torus, 3):
        doc = index_to_dict(torus, index)
        assert index_from_dict(torus, doc) == index
        assert set(doc) == {"odd", "even", "pad"}


def test_index_hash_is_the_field_tuple_hash():
    ring = fixtures.surface_ring(2)
    for index in enumerate_basis(ring, 4):
        assert hash(index) == hash((index.odd, index.even, index.pad))
        twin = BasisIndex(tuple(list(index.odd)), tuple(list(index.even)), index.pad)
        assert twin == index and hash(twin) == hash(index)
        again = pickle.loads(pickle.dumps(index))
        assert again == index and hash(again) == hash(index)
    index = idx(ring, odd=["a1"], even=[("b", 1)], pad=2)
    moved = dataclasses.replace(index, pad=1)
    assert moved == idx(ring, odd=["a1"], even=[("b", 1)], pad=1)
    assert hash(moved) == hash((moved.odd, moved.even, 1))
    with pytest.raises(ValueError):
        dataclasses.replace(index, pad=-1)
    with pytest.raises(ValueError, match=r"odd positions must strictly increase: \(1, 0\)"):
        BasisIndex((1, 0), (), 0)
    with pytest.raises(ValueError, match="even positions must strictly increase"):
        BasisIndex((), ((4, 1), (4, 2)), 0)

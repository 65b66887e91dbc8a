"""The integer product kernel against the tensor oracle and its reference.

The oracle multiplies realized basis elements as rational tensors and
expands the product greedily (``realize``, ``tensor_multiply``,
``expand``); the kernel must reproduce it exactly, entry order included.
The reference is the kernel without its first-slot blocks and rows
(``oracles.IndexProductReference``); the kernel must give its dicts too,
key order included, on the same inputs and at larger sizes.  The kernel
keys a result by position in its basis, and the oracles by basis index:
``oracles.table_entries`` maps a table's rows back through its basis.
"""

import itertools
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import IndexProductReference, table_entries

from symprod import fixtures, sympower
from symprod.bridge import SurfacePowerMap
from symprod.cli import table_json
from symprod.quotient import Monomial, Polynomial, _mask, monomials_of_degree, quotient_basis
from symprod.rings import Generator, Ring, RingSpecError, ring_from_dict
from symprod.sympower import (
    IndexProduct,
    InternalInconsistencyError,
    NotSymmetricError,
    TheoremViolationError,
    enumerate_basis,
    expand,
    realize,
    structure_constants,
    table_to_dict,
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
    assert_same_entries(table_entries(table), oracle_entries(ring, n, max_degree))
    assert_matches_reference(table)


def assert_matches_reference(table, pairs=None):
    """Every entry of the table (or those of ``pairs``) equals the
    reference kernel's product, key order included."""
    reference = IndexProductReference(table.ring)
    entries = table_entries(table)
    pairs = list(entries) if pairs is None else pairs
    assert_same_entries({key: entries[key] for key in pairs},
                        {(i, j): reference(i, j) for i, j in pairs})


# the torus with a2*a1 = +b: its generators do not commute up to sign, so
# the table cannot mirror (i, j) into (j, i) and must match the oracle anyway
NONCOMMUTATIVE_TORUS = Ring(
    [Generator("a1", 1), Generator("a2", 1), Generator("b", 2)],
    {("a1", "a2"): {"b": 1}, ("a2", "a1"): {"b": 1}}, name="noncommutative_torus")

# Sym^2(surface_g2) up to degree 4 as `sym-table --format json` writes it,
# read back as a ring: its generator products have several terms, which no
# shipped ring's do
SYM2_SURFACE_G2 = ring_from_dict(json.loads(table_json(
    structure_constants(fixtures.surface_ring(2), 2, 4))))

GRID = [
    (fixtures.surface_ring(1), 2, 4),
    (fixtures.surface_ring(1), 3, 6),
    (fixtures.surface_ring(2), 2, 4),
    (fixtures.surface_ring(2), 3, 6),
    (fixtures.surface_ring(3), 2, 4),
    (fixtures.load_fixture("sphere2"), 4, 8),
    (fixtures.hopf_ring(1), 3, 12),
    (fixtures.hopf_ring(2), 2, 8),
    (fixtures.hopf_ring(3), 3, 12),
    (fixtures.sullivan_ring(1), 2, 6),
    (fixtures.sullivan_ring(2), 3, 5),
    (fixtures.sullivan_ring(3), 2, 6),
    (fixtures.load_fixture("s2xs2"), 3, 12),
    (fixtures.load_fixture("cp2_conn_cp2bar"), 3, 12),
    (NONCOMMUTATIVE_TORUS, 2, 4),
    (NONCOMMUTATIVE_TORUS, 3, 6),
    (SYM2_SURFACE_G2, 2, 4),
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
            got = fmap.row_coordinates({_mask(m, g): 1}, s)
            assert {fmap._basis[k]: c for k, c in got.items()} == want, (m, s)
            if s:
                basis = enumerate_basis(fmap.ring, n, degree=s)
                assert fmap.coordinates(m, s) == [want.get(k, 0) for k in basis]


@pytest.mark.parametrize("g,n", [(g, n) for g in (1, 2, 3) for n in (2, 3, 4)])
def test_surface_chains_equal_reference_chains(g, n):
    # the bridge multiplies through ``__call__``, one product at a time,
    # by basis position; the reference's results are mapped to positions
    fmap, reference_map = SurfacePowerMap(g, n), SurfacePowerMap(g, n)
    reference, basis = IndexProductReference(reference_map.ring), reference_map._basis
    position = {idx: k for k, idx in enumerate(basis)}
    reference_map._kernel = lambda a, b: {
        position[k]: c for k, c in reference(basis[a], basis[b]).items()}
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
    assert_matches_reference(table, [(i, j) for i, j in table_entries(table)
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
        assert {fmap._basis[k]: c for k, c in got.items()} == want, (m1, m2)


def test_spread_classes_are_basis_elements():
    fmap = SurfacePowerMap(2, 3)

    def spread(m):
        [k] = fmap.generator_indices(_mask(m, 2), m.q)
        return realize(fmap.ring, fmap._basis[k])

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
        structure_constants(fixtures.load_fixture("sphere2"), 3, 6)


def test_kernel_rejects_products_breaking_degree_parity():
    # products that change degree parity break the equivariance of the
    # tensor product, which the oracle reports as a non-invariant product
    ring = Ring([Generator("u", 2), Generator("a", 1)],
                {("u", "a"): {"u": -1}, ("a", "a"): {"u": 3}})
    with pytest.raises(NotSymmetricError):
        oracle_entries(ring, 2, 4)
    with pytest.raises(RingSpecError, match=r"degree additivity fails for u\*a"):
        IndexProduct(ring, enumerate_basis(ring, 2))


def test_kernel_rejects_arity_mismatch():
    ring = fixtures.surface_ring(1)
    pairs, triples = enumerate_basis(ring, 2), enumerate_basis(ring, 3)
    with pytest.raises(ValueError, match="arities differ"):
        IndexProduct(ring, pairs + triples)


def skipped_by_slots(ring, i, j):
    """Whether some slot of i multiplies every slot of j to zero, read off
    the ring's generator products."""
    right = set(j.sorted_slots(ring))
    return any(all(not ring.gen_product(s, t) for t in right)
               for s in set(i.sorted_slots(ring)))


def test_products_skipped_by_their_slots_are_zero(monkeypatch):
    # the kernel's products for the table of Sym^2(Sym^2 surface_g2) up to
    # degree 8: most are 0, and most of those have a slot that kills every
    # slot of the partner
    pairs = []
    row = IndexProduct.row

    def recording(self, a, bs):
        out = row(self, a, bs)
        pairs.extend(((a, b), result) for b, result in zip(bs, out))
        return out

    monkeypatch.setattr(IndexProduct, "row", recording)
    ring = SYM2_SURFACE_G2
    basis = structure_constants(ring, 2, 8).basis
    skipped = {(a, b) for (a, b), _ in pairs if skipped_by_slots(ring, basis[a], basis[b])}
    assert (len(pairs), sum(not result for _, result in pairs), len(skipped)) == (
        6270, 4751, 3857)
    assert all(not result for pair, result in pairs if pair in skipped)
    reference = IndexProductReference(ring)
    assert all(reference(basis[a], basis[b]) == {} for a, b in skipped)
    # and the kernel answers them without enumerating any orbit
    monkeypatch.undo()

    def refusing(ring, slots):
        raise AssertionError(f"orbit of {slots} enumerated")

    monkeypatch.setattr(sympower, "signed_arrangements", refusing)
    product = IndexProduct(ring, basis)
    assert all(product(a, b) == {} for a, b in skipped)
    with pytest.raises(AssertionError, match="enumerated"):
        product(*next(pair for pair, _ in pairs if pair not in skipped))


def test_arrangements_agreeing_off_the_left_units_are_walked_once():
    # chi[a1] in Sym^6 surface_g2 has five unit slots: the arrangements
    # of a right class that agree on the first slot give one term, so the
    # orbit kept for it holds one arrangement per first slot; a left class
    # with two units keeps one per arrangement of its other four slots
    ring = fixtures.surface_ring(2)
    basis = enumerate_basis(ring, 6)
    product, reference = IndexProduct(ring, basis), IndexProductReference(ring)
    lefts = [basis.index(sympower.BasisIndex((0,), (), 5)),
             basis.index(sympower.BasisIndex((0, 1, 2), ((4, 1),), 2))]
    for a in lefts:
        for b in range(len(basis)):
            got, want = product(a, b), reference(basis[a], basis[b])
            want = {basis.index(k): c for k, c in want.items()}
            assert (got, list(got)) == (want, list(want)), (a, b)
    # orbits are kept by the number of slots walked, one term per run of
    # arrangements that agree on those slots: of 8,762 and 7,946
    # arrangements, 251 and 4,516 terms are walked
    for prefix, counts in [(1, (71, 8762, 251)), (4, (63, 7946, 4516))]:
        kept = product._orbits[prefix]
        arrangements = {j: [b for b, _ in sympower.signed_arrangements(
            ring, basis[j].sorted_slots(ring))] for j in kept}
        walked = {j: sum(len(block) for _, block in blocks) for j, blocks in kept.items()}
        assert all(walked[j] == len({b[:prefix] for b in arrangements[j]}) for j in kept)
        assert (len(kept), sum(map(len, arrangements.values())),
                sum(walked.values())) == counts


def test_product_outside_the_kernel_basis_is_an_internal_inconsistency():
    # chi[a1] * chi[a2] in Sym^2 of the torus is chi[b] + chi[a1,a2], both
    # of degree 2; a basis cut at degree 1 holds neither, and the kernel
    # names the first missing class it meets instead of building it
    ring = fixtures.surface_ring(1)
    basis = enumerate_basis(ring, 2, degree=1)
    product = IndexProduct(ring, basis)
    with pytest.raises(InternalInconsistencyError,
                       match=r"chi\[a1\] \* chi\[a2\] has a term \['b', '1'\] outside"):
        product(0, 1)
    assert product(0, 0) == {}


# -- one product per unordered pair -------------------------------------------

@pytest.mark.parametrize("ring,n,max_degree,calls,entries", [
    (fixtures.surface_ring(2), 4, 8, 623, 1219),
    (fixtures.surface_ring(1), 2, 4, 14, 24),
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
    assert (counted, sum(map(len, table.rows))) == (calls, entries)


# -- the table by basis position -----------------------------------------------

@pytest.mark.parametrize("ring,n,max_degree", [
    (fixtures.surface_ring(2), 4, 8),
    (NONCOMMUTATIVE_TORUS, 3, 6),
], ids=["surface_g2-n4-d8", "noncommutative-n3-d6"])
def test_rows_hold_the_table_by_basis_position(ring, n, max_degree):
    table = structure_constants(ring, n, max_degree)
    basis, rows = table.basis, table.rows
    degrees = [idx.degree(ring) for idx in basis]
    assert len(rows) == len(basis)
    for a, row in enumerate(rows):
        # one entry per partner within the bound, a prefix of the basis
        assert len(row) == sum(degrees[a] + d <= max_degree for d in degrees)
    shared = [(a, b) for a, row in enumerate(rows) for b in range(a)
              if b < len(row) and row[b] is rows[b][a]]
    if ring.commutativity_violations():
        # both orders are multiplied, and no entry is shared
        assert shared == []
        assert len({id(e) for row in rows for e in row}) == sum(map(len, rows))
    else:
        for a, row in enumerate(rows):
            for b in range(min(a, len(row))):
                if degrees[a] * degrees[b] % 2:
                    assert row[b] == {k: -c for k, c in rows[b][a].items()}
                    assert list(row[b]) == list(rows[b][a])
                else:
                    assert row[b] is rows[b][a]
    # results are keyed by basis position; ``product`` reads the same
    # entry by basis index, its keys mapped through the basis in order
    assert all(0 <= k < len(basis) for row in rows for entry in row for k in entry)
    for a, row in enumerate(rows):
        for b, entry in enumerate(row):
            got = table.product(basis[a], basis[b])
            want = {basis[k]: c for k, c in entry.items()}
            assert (got, list(got)) == (want, list(want))
            assert all(got_key is basis[k] for got_key, k in zip(got, entry))
    assert not hasattr(table, "entries")


@pytest.mark.parametrize("ring,n,max_degree,enumerations,kept", [
    (fixtures.surface_ring(2), 4, 8, 46, 129),
    (fixtures.sullivan_ring(2), 3, 9, 87, 174),
], ids=["surface_g2-n4-d8", "sullivan_mu_2-n3-d9"])
def test_kernel_enumerates_each_orbit_once(monkeypatch, ring, n, max_degree, enumerations,
                                           kept):
    # a right index's arrangements are enumerated on its first product
    # only, and its orbit is kept once per prefix of the left indices
    # that reach it: the signs of a left index's odd slots are in its rows
    counted = 0
    whole = sympower.signed_arrangements
    rights = set()
    lefts = set()
    kernels = []
    row = IndexProduct.row

    def counting(ring, slots):
        nonlocal counted
        counted += 1
        return whole(ring, slots)

    def recording(self, i, js):
        if self not in kernels:
            kernels.append(self)
        lefts.add(i)
        rights.update(js)
        return row(self, i, js)

    monkeypatch.setattr(sympower, "signed_arrangements", counting)
    monkeypatch.setattr(IndexProduct, "row", recording)
    basis = structure_constants(ring, n, max_degree).basis
    assert counted == enumerations == len(rights)
    [product] = kernels
    prefixes = {len(basis[i].sorted_slots(ring)) - basis[i].pad if basis[i].pad > 1 else n
                for i in lefts}
    assert set(product._orbits) == prefixes
    assert sum(map(len, product._orbits.values())) == kept


# -- multi-term slot products -------------------------------------------------

@pytest.mark.parametrize("n,max_degree", [(2, 8), (3, 6)])
def test_multi_term_products_equal_reference(n, max_degree):
    assert any(len(combo) > 1 for combo in SYM2_SURFACE_G2.products.values())
    table = structure_constants(SYM2_SURFACE_G2, n, max_degree)
    assert_matches_reference(table)
    assert table_json(table) == json.dumps(table_to_dict(table), indent=2, sort_keys=True)


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

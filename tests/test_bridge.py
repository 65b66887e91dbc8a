import json

import pytest

from symprod import bridge, quotient, sympower
from symprod.bridge import (
    SurfacePowerMap,
    check_isomorphism,
    multiplicativity_spot_check,
    report_to_dict,
    surface_power_map,
)
from symprod.cli import main
from symprod.fixtures import surface_ring
from symprod.quotient import (
    GeneratorSet,
    InvalidModeError,
    Monomial,
    Polynomial,
    _mask,
    betti,
    ideal_generators,
    monomials_of_degree,
    relation_poly,
)
from symprod.rings import add_terms
from symprod.sympower import BasisIndex, IndexProduct

from oracles import report_from_dict
from query_references import spot_check_draws_reference


def test_surface_ring_structure():
    g2 = surface_ring(2)
    assert g2.validate().ok
    a1, a2, a3, b = (g2.gen(x) for x in ("a1", "a2", "a3", "b"))
    assert a1 * a3 == b
    assert a3 * a1 == -b
    assert (a1 * a2).is_zero()
    assert (a1 * b).is_zero()


def test_g1_n2_degree2_matrix():
    report = check_isomorphism(1, 2)
    deg2 = next(d for d in report.degrees if d.degree == 2)
    # quotient basis [y, x1.x'1] against tensor basis [spread(b), chi(a1,a2)]
    assert deg2.matrix == [[1, 0], [1, 1]]
    assert deg2.unimodular
    assert report.degrees[0].matrix == [[1]]
    assert report.verdict == "isomorphism"


def test_g2_n2_ranks_and_unimodularity():
    report = check_isomorphism(2, 2)
    ranks = [d.quotient_rank for d in report.degrees]
    assert ranks == [1, 4, 7, 4, 1]
    assert [d.tensor_rank for d in report.degrees] == ranks
    assert all(d.unimodular for d in report.degrees)
    assert all(all(inv == 1 for inv in d.smith) for d in report.degrees)
    assert report.relations_vanish


def test_ranks_match_betti_formula():
    report = check_isomorphism(1, 3)
    for d in report.degrees:
        assert d.quotient_rank == d.tensor_rank == betti(1, 3, d.degree)


def test_relations_vanish_full_mode():
    for g, n in [(1, 2), (2, 2)]:
        assert check_isomorphism(g, n).relations_vanish


def test_partial_report_with_cutoff():
    report = check_isomorphism(1, 2, max_degree=2)
    assert report.partial
    assert report.verdict == "partial"
    assert [d.degree for d in report.degrees] == [0, 1, 2]


def test_multiplicativity_spot_check():
    assert multiplicativity_spot_check(1, 2, samples=10, seed=7)
    assert multiplicativity_spot_check(2, 2, samples=10, seed=11)


def test_image_of_written_order_is_canonical():
    # x1.x'1 maps to chi[a1] * chi[a2] in that order
    fmap = SurfacePowerMap(1, 2)
    from symprod.tensors import sym_element, tensor_multiply
    ring = fmap.ring
    direct = tensor_multiply(sym_element(ring, 2, [ring.gen("a1")]),
                             sym_element(ring, 2, [ring.gen("a2")]))
    assert fmap.image(Polynomial.monomial(Monomial((1,), (1,), 0))) == direct


def test_report_json_round_trip():
    report = check_isomorphism(1, 2)
    doc = report_to_dict(report)
    again = report_from_dict(doc)
    assert report_to_dict(again) == doc
    assert again.verdict == report.verdict


def test_report_to_dict_shares_each_matrix():
    # a shallow copy: a deep copy would double every matrix in memory
    report = check_isomorphism(2, 2)
    doc = report_to_dict(report)
    for k, d in enumerate(report.degrees):
        assert doc["degrees"][k]["matrix"] is d.matrix


def test_bad_g_is_named_before_a_bad_max_degree():
    with pytest.raises(ValueError, match="need g >= 1 and n >= 2, got g=0, n=3"):
        check_isomorphism(0, 3, max_degree=-1)


def test_bridge_paths_build_no_oracle_tensors(monkeypatch):
    # only the oracle image builds spread-class tensors; the kernel paths
    # must never build one
    def refuse(*args, **kwargs):
        raise AssertionError("spread-class tensor built")

    monkeypatch.setattr("symprod.bridge.sym_element", refuse)
    assert check_isomorphism(2, 3).verdict == "isomorphism"
    assert multiplicativity_spot_check(2, 3, samples=10, seed=5)


@pytest.mark.parametrize("g,n,pairs", [(2, 4, 83), (3, 4, 233), (4, 3, 337), (2, 5, 91)])
def test_one_map_per_run_computes_each_product_once(monkeypatch, g, n, pairs):
    # every degree, the relation check and the spot check share one map:
    # one kernel call per distinct (index, generator) pair and one
    # enumeration of the tensor-power basis per run
    calls = {"kernel": 0, "basis": 0}
    kernel, enumerate_basis = IndexProduct.__call__, bridge.enumerate_basis

    def count_kernel(self, i, j):
        calls["kernel"] += 1
        return kernel(self, i, j)

    def count_basis(*args, **kwargs):
        calls["basis"] += 1
        return enumerate_basis(*args, **kwargs)

    monkeypatch.setattr(IndexProduct, "__call__", count_kernel)
    monkeypatch.setattr(bridge, "enumerate_basis", count_basis)
    surface_power_map.cache_clear()
    assert check_isomorphism(g, n).verdict == "isomorphism"
    assert multiplicativity_spot_check(g, n, seed=0)
    fmap = surface_power_map(g, n)
    assert calls == {"kernel": pairs, "basis": 1}
    assert len(fmap._products) == pairs


@pytest.mark.parametrize("g,n,steps", [(2, 4, 85), (3, 4, 212), (4, 3, 321), (2, 5, 104)])
def test_one_map_per_run_images_each_monomial_once(monkeypatch, g, n, steps):
    # a stored image is its prefix's times one spread class: one chain step
    # per monomial imaged, plus the steps of the spot check's continued
    # chains (chaining every image from the unit took 298, 992, 1335 and
    # 411 steps); and every kernel result is keyed by a position in the
    # map's basis, so no index is rebuilt from its slots
    calls = {"steps": 0, "from_slots": 0}
    times, from_slots = SurfacePowerMap.times, sympower.index_from_sorted_slots

    def count_steps(self, vec, gens):
        calls["steps"] += len(gens)
        return times(self, vec, gens)

    def count_from_slots(*args):
        calls["from_slots"] += 1
        return from_slots(*args)

    monkeypatch.setattr(SurfacePowerMap, "times", count_steps)
    monkeypatch.setattr(sympower, "index_from_sorted_slots", count_from_slots)
    surface_power_map.cache_clear()
    assert check_isomorphism(g, n).verdict == "isomorphism"
    assert multiplicativity_spot_check(g, n, seed=0)
    assert calls == {"steps": steps, "from_slots": 0}


@pytest.mark.parametrize("g,n", [(g, n) for g in (1, 2, 3) for n in (2, 3, 4)])
def test_stored_images_equal_chains_from_the_unit(g, n):
    fmap = SurfacePowerMap(g, n)
    unit = fmap._basis.index(BasisIndex((), (), n))
    assert unit == 0
    for s in range(2 * n + 1):
        for m in monomials_of_degree(g, s):
            got = fmap.row_coordinates({_mask(m, g): 1}, s)
            want = fmap.times({unit: 1}, fmap.generator_indices(_mask(m, g), m.q))
            assert (got, list(got)) == (want, list(want)), m


def test_runs_reusing_the_map_give_identical_output(capsys):
    # the CLI run reuses the map check_isomorphism built, and the third run
    # builds a new one: a caller changing a stored image would show as a
    # difference between them
    surface_power_map.cache_clear()
    runs = []
    for g, n in [(3, 4), (2, 4), (3, 4)]:
        report = report_to_dict(check_isomorphism(g, n))
        spot = multiplicativity_spot_check(g, n)
        assert main(["bridge", "--g", str(g), "--n", str(n), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {**report, "multiplicative_spot_check": spot}
        runs.append((report, spot, out))
    assert runs[0] == runs[2]
    assert runs[0][0]["verdict"] == "isomorphism"


def _valid_modes():
    for g in (1, 2, 3):
        for n in (2, 3, 4, 5):
            for mode in ("full", "stable", "minimal_odd", "minimal_even"):
                try:
                    ideal_generators(g, n, mode)
                except InvalidModeError:
                    continue
                yield g, n, mode
    yield 4, 3, "full"


def chained_coordinates(fmap, p):
    """Basis coordinates of image(p), each term's chain of spread classes
    multiplied out from the unit, with no stored image read."""
    unit = fmap._basis.index(BasisIndex((), (), fmap.n))
    out = {}
    for m, c in p.terms.items():
        chain = fmap.times({unit: 1}, fmap.generator_indices(_mask(m, fmap.g), m.q))
        add_terms(out, chain.items(), c)
    return out


@pytest.mark.parametrize("g,n,mode", _valid_modes())
def test_relation_rows_map_like_decoded_relations(g, n, mode):
    # a relation's image vanishes, so each term is compared on its own too
    gens = ideal_generators(g, n, mode)
    fmap = SurfacePowerMap(g, n)
    nonzero = 0
    for m, (d, row) in zip(gens.monomials, gens.rows()):
        poly = relation_poly(m)
        assert fmap.row_coordinates(row, d) == chained_coordinates(fmap, poly) == {}
        for (t, c), (term, coeff) in zip(row.items(), poly.terms.items(), strict=True):
            got = fmap.row_coordinates({t: c}, d)
            assert got == chained_coordinates(fmap, Polynomial.monomial(term, coeff))
            nonzero += bool(got)
    assert nonzero


def test_relation_check_builds_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("relation decoded as a polynomial")

    monkeypatch.setattr(quotient, "relation_poly", refuse)
    monkeypatch.setattr(GeneratorSet, "polys", property(refuse))
    report = check_isomorphism(3, 4)
    assert report.relations_vanish and report.verdict == "isomorphism"


def test_relation_row_missing_a_term_does_not_vanish(monkeypatch):
    # the first term of a row with a paired block has weight <= n, a
    # quotient-basis monomial whose image is nonzero
    rows = GeneratorSet.rows

    def drop_one_term(self):
        out = list(rows(self))
        k = next(k for k, (_, row) in enumerate(out) if len(row) > 1)
        d, row = out[k]
        out[k] = (d, dict(list(row.items())[1:]))
        return out

    monkeypatch.setattr(GeneratorSet, "rows", drop_one_term)
    report = check_isomorphism(3, 4)
    assert report.relations_vanish is False
    assert report.verdict == "mismatch"


@pytest.mark.parametrize("g,n", [(2, 4), (3, 4), (4, 3), (2, 5)])
def test_spot_check_draws_what_a_pool_of_monomials_gives(monkeypatch, g, n):
    # the pool of (degree, mask) pairs has the length and order of the
    # monomial pool, so seeds 0..9 draw the same pairs, and only those
    # are decoded
    drawn = []
    decode = bridge._monomial

    def recording(mask, layout, d):
        drawn.append(decode(mask, layout, d))
        return drawn[-1]

    monkeypatch.setattr(bridge, "_monomial", recording)
    for seed in range(10):
        drawn.clear()
        assert multiplicativity_spot_check(g, n, seed=seed)
        assert list(zip(drawn[::2], drawn[1::2])) == spot_check_draws_reference(g, n, 8, seed)


def test_coordinates_reject_an_index_past_g():
    # masks lay x'_1 out at bit g, so x_{g+1} or a bit >= 2g would name
    # another generator's image
    fmap = SurfacePowerMap(2, 3)
    with pytest.raises(ValueError, match="exceeds g=2"):
        fmap.coordinates(Monomial((3,), (), 0), 1)
    with pytest.raises(ValueError, match="past x'2"):
        fmap.row_coordinates({1 << 4: 1}, 1)


def test_coordinates_reject_a_monomial_of_another_degree():
    # a row is read by its degree's positions in the map's basis, so a
    # monomial of another degree would land at positions of the wrong row
    fmap = SurfacePowerMap(2, 3)
    assert fmap.coordinates(Monomial((1,), (), 0), 1) == [1, 0, 0, 0]
    with pytest.raises(ValueError, match="degree 1 read in degree 2"):
        fmap.coordinates(Monomial((1,), (), 0), 2)
    assert fmap.coordinates(Monomial((), (), 0), 0) == [1]

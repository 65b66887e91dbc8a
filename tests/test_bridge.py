from symprod.bridge import (
    SurfacePowerMap,
    check_isomorphism,
    multiplicativity_spot_check,
    pool_size,
    report_from_dict,
    report_to_dict,
)
from symprod.fixtures import surface_ring
from symprod.quotient import Monomial, Polynomial, betti


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
    # x1.x'1 maps to xi_1 * xi'_1 in that order
    fmap = SurfacePowerMap(1, 2)
    from symprod.tensors import tensor_multiply
    direct = tensor_multiply(fmap.xi[1], fmap.xi_prime[1])
    assert fmap.image(Polynomial.monomial(Monomial((1,), (1,), 0))) == direct


def test_report_json_round_trip():
    report = check_isomorphism(1, 2)
    doc = report_to_dict(report)
    again = report_from_dict(doc)
    assert report_to_dict(again) == doc
    assert again.verdict == report.verdict


def test_pool_size_clamps_to_tasks_and_cpus():
    # computed only; no pool is started with these values
    assert pool_size(10**9, 9, 2) == 2
    assert pool_size(10**9, 3, 10**6) == 3
    assert pool_size(4, 10**9, 10**6) == 4
    assert pool_size(10**9, 10**9, None) == 1
    assert pool_size(0, 9, 8) == 1
    assert pool_size(-5, 9, 8) == 1

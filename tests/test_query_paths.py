"""The query commands' fast paths against their references: `normal_form`
on masks, the `relations` document from the rows, `enumerate_basis`
filtering before it builds, and relation generators kept as masks."""

import os
import random

import pytest

from symprod import bridge, quotient, sympower
from symprod.cli import json_text, main
from symprod.fixtures import packaged_fixture_dir
from symprod.quotient import (
    Polynomial,
    betti,
    format_poly,
    ideal_generators,
    monomials_of_degree,
    normal_form,
    parse_poly,
)
from symprod.rings import load_ring
from symprod.sympower import enumerate_basis

from query_references import (
    enumerate_basis_reference,
    format_row,
    generator_monomials_reference,
    mask_relation_row_reference,
    normal_form_reference,
    relations_doc_reference,
)
from test_quotient import valid_modes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_same_normal_form(p, g, n):
    got, expected = normal_form(p, g, n), normal_form_reference(p, g, n)
    assert got == expected, (g, n, format_poly(p))
    assert format_poly(got) == format_poly(expected), (g, n, format_poly(p))


def test_normal_form_matches_relation_poly_loop_random():
    # 2,000 homogeneous inputs with g, n <= 6, of every degree up to 2n + 2
    rng = random.Random(1818)
    monomials = {}
    for _ in range(2000):
        g, n = rng.randrange(1, 7), rng.randrange(2, 7)
        s = rng.randrange(2 * n + 3)
        if (g, s) not in monomials:
            monomials[g, s] = monomials_of_degree(g, s)
        pool = monomials[g, s]
        p = Polynomial({m: rng.choice((-3, -2, -1, 1, 2, 3))
                        for m in rng.sample(pool, min(rng.randrange(1, 9), len(pool)))})
        assert_same_normal_form(p, g, n)


def test_normal_form_matches_relation_poly_loop_edges():
    for g in range(4):
        for n in range(2, 6):
            assert_same_normal_form(Polynomial(), g, n)
            assert normal_form(Polynomial(), g, n).is_zero()
            assert_same_normal_form(parse_poly("y^1000000000000"), g, n)
            # weight <= n is returned as it is
            for s in range(2 * n + 1):
                light = {m: 1 for m in monomials_of_degree(g, s) if m.weight <= n}
                assert_same_normal_form(Polynomial(light), g, n)
    # past the top degree 2n the loop ends once the work is empty
    assert_same_normal_form(parse_poly("y^3"), 1, 2)
    assert_same_normal_form(parse_poly("x1.x'1.y^2-x1.x'1.x2.x'2.y"), 2, 2)


def test_normal_form_cost_does_not_grow_with_g():
    # g = 10^6 on a term of index 1: the masks are laid out for the
    # indices the input has
    p = parse_poly("x1.x'1.y")
    assert normal_form(p, 10 ** 6, 2) == normal_form(p, 1, 2) == parse_poly("y^2")
    assert_same_normal_form(p, 10 ** 6, 2)


def test_relations_json_matches_format_poly_of_relation_poly(capsys):
    cases = 0
    for g in range(1, 7):
        for n in range(2, max(2 * g, 3)):
            for mode in valid_modes(g, n):
                code, out, _ = run(capsys, "relations", "--g", str(g), "--n", str(n),
                                   "--mode", mode, "--format", "json")
                assert code == 0
                assert out == json_text(relations_doc_reference(g, n, mode)) + "\n", (g, n, mode)
                cases += 1
    assert cases == 62


def test_relations_text_matches_the_reference_document(capsys):
    # the text writer prints the reference document's items, one per line
    for g in range(1, 5):
        for n in range(2, max(2 * g, 3)):
            for mode in valid_modes(g, n):
                doc = relations_doc_reference(g, n, mode)
                lines = [f"{doc['count']} generators ({doc['mode']})"] + [
                    f"{item['poly']}    [from {item['monomial']}]" for item in doc["generators"]]
                code, out, _ = run(capsys, "relations", "--g", str(g), "--n", str(n),
                                   "--mode", mode)
                assert (code, out) == (0, "\n".join(lines) + "\n"), (g, n, mode)


def test_format_row_is_format_poly_of_the_decoded_row():
    rng = random.Random(2024)
    for g, s in [(1, 4), (3, 5), (4, 6), (6, 3)]:
        pool = monomials_of_degree(g, s)
        for layout in (g, g + 2):
            assert format_row({}, layout, s) == format_poly(Polynomial()) == "0"
            for _ in range(20):
                p = Polynomial({m: rng.choice((-5, -1, 1, 7))
                                for m in rng.sample(pool, min(6, len(pool)))})
                row = {quotient._mask(m, layout): c for m, c in p.terms.items()}
                assert format_row(row, layout, s) == format_poly(p), (g, s, layout)


def test_mask_relation_row_is_the_closed_form_in_written_order():
    # every mask at g <= 4 and 2,000 random ones at g = 5..12: the same dict
    # as the closed form in subset order, its keys in format_poly's order
    rng = random.Random(2323)
    cases = [(g, mask) for g in range(5) for mask in range(1 << 2 * g)]
    cases += [(g, rng.getrandbits(2 * g)) for g in (rng.randrange(5, 13) for _ in range(2000))]
    for g, mask in cases:
        row = quotient._mask_relation_row(mask, g)
        assert row == mask_relation_row_reference(mask, g), (g, mask)
        d = mask.bit_count()
        assert list(row) == sorted(row, key=lambda t: quotient._monomial(t, g, d).sort_key), (g, mask)
    assert len(cases) == 1 + 4 + 16 + 64 + 256 + 2000


def test_generator_sets_keep_the_enumerated_monomials_g_le_5():
    # every valid mode at g <= 5, n <= 6: the monomials the enumerator built
    # as `Monomial`s, their (degree, mask) pairs and the subset-order closed
    # form's rows
    for g in range(1, 6):
        for n in range(2, 7):
            for mode in valid_modes(g, n):
                gens = ideal_generators(g, n, mode)
                expected = generator_monomials_reference(g, n, mode)
                assert gens.monomials == expected, (g, n, mode)
                masks = [(m.degree, quotient._mask(m, g)) for m in expected]
                assert gens.pairs == masks, (g, n, mode)
                assert gens.rows() == [(d, mask_relation_row_reference(mask, g))
                                       for d, mask in masks], (g, n, mode)


def test_relations_and_the_bridge_build_no_relation_monomial(capsys, monkeypatch):
    built = []
    post_init = quotient.Monomial.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(quotient.Monomial, "__post_init__", counting)
    for fmt in ("json", "text"):
        code, out, _ = run(capsys, "relations", "--g", "6", "--n", "4",
                           "--mode", "minimal_even", "--format", fmt)
        assert code == 0 and out
    assert built == []
    # the bridge builds the quotient-basis monomials of degree 0..2n alone
    assert bridge.check_isomorphism(3, 4).verdict == "isomorphism"
    assert len(built) == sum(betti(3, 4, s) for s in range(0, 9))


FIXTURES = sorted(name for name in os.listdir(packaged_fixture_dir()) if name.endswith(".ring"))


@pytest.mark.parametrize("name", FIXTURES)
def test_enumerate_basis_matches_build_then_filter(name):
    ring = load_ring(os.path.join(packaged_fixture_dir(), name))
    for n in range(2, 5):
        everything = enumerate_basis_reference(ring, n)
        assert enumerate_basis(ring, n) == everything, (name, n)
        top = max(idx.degree(ring) for idx in everything)
        for d in range(2 * top + 2):
            got = enumerate_basis(ring, n, degree=d)
            expected = enumerate_basis_reference(ring, n, degree=d)
            assert len(got) == len(expected), (name, n, d)
            for a, b in zip(got, expected):
                assert a == b, (name, n, d)


def test_enumerate_basis_builds_only_the_indices_it_keeps(monkeypatch):
    ring = load_ring(os.path.join(packaged_fixture_dir(), "surface_g3.ring"))
    built = []
    post_init = sympower.BasisIndex.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(sympower.BasisIndex, "__post_init__", counting)
    for d in range(7):
        built.clear()
        assert len(enumerate_basis(ring, 3, degree=d)) == len(built)


QUERIES = [
    ("nf", "--g", "4", "--n", "4", "x1.x2.x'1.x'2.y+3*x3.x'3.y^2-x1.x2.x'3.x'4.y"),
    ("nf", "--g", "4", "--n", "4", "x1.x'1.x2.x'2.x3.x'3.x4.x'4", "--format", "json"),
    ("nf", "--g", "3", "--n", "5", "x1.x'1.x2.x'2.x3.x'3.y+y^4-2*x1.x'1.y^3"),
    ("nf", "--g", "3", "--n", "5", "x1.x'1.x2.x'2.x3.x'3.y^2", "--format", "json"),
    ("relations", "--g", "4", "--n", "4"),
    ("relations", "--g", "4", "--n", "4", "--mode", "minimal_even", "--format", "json"),
    ("relations", "--g", "3", "--n", "5", "--format", "json"),
    ("relations", "--g", "3", "--n", "5", "--mode", "stable"),
]


def test_queries_decode_no_relation_and_multiply_nothing(capsys, monkeypatch):
    # nf and relations read the closed form's rows: the same output with
    # relation_poly and the general product refused
    expected = [run(capsys, *argv) for argv in QUERIES]
    assert all(code == 0 and out for code, out, _ in expected)

    def refuse(*args):
        raise AssertionError("a relation was decoded or a product taken")

    monkeypatch.setattr(quotient, "relation_poly", refuse)
    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    assert [run(capsys, *argv) for argv in QUERIES] == expected


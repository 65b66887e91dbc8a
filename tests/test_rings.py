import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import fixtures
from symprod.rings import (
    Generator,
    MalformedElementError,
    Ring,
    RingSpecError,
    add_terms,
    ring_from_dict,
    ring_to_dict,
)


@pytest.fixture
def torus():
    return fixtures.torus_ring()


def test_torus_validates(torus):
    assert torus.validate().ok


def test_broken_commutativity_detected():
    # same torus but with a2*a1 = +b: graded commutativity fails
    gens = [Generator("a1", 1), Generator("a2", 1), Generator("b", 2)]
    bad = Ring(gens, {("a1", "a2"): {"b": 1}, ("a2", "a1"): {"b": 1}})
    report = bad.validate()
    assert not report.ok
    assert report.first.invariant == "graded commutativity"
    assert set(report.first.witness) == {"a1", "a2"}


def test_hopf_validates_for_every_k():
    for k in range(1, 6):
        assert fixtures.hopf_ring(k).validate().ok


def test_all_shipped_fixtures_validate():
    for name, ctor in fixtures.BUILTIN.items():
        report = ctor().validate()
        assert report.ok, (name, [str(v) for v in report.violations])


def test_fixture_files_match_constructors():
    for name, ctor in fixtures.BUILTIN.items():
        assert fixtures.load_fixture(name) == ctor()


def test_torus_multiplication(torus):
    a1, a2, b = torus.gen("a1"), torus.gen("a2"), torus.gen("b")
    assert a1 * a2 == b
    assert a2 * a1 == -b
    assert (a1 * a1).is_zero()
    assert (b * b).is_zero()


def test_unit_law(torus):
    one = torus.one()
    for name in ("a1", "a2", "b"):
        x = torus.gen(name)
        assert one * x == x
        assert x * one == x
    mixed = torus.element({"a1": 3, "b": Fraction(1, 2)})
    assert one * mixed == mixed


def test_hopf_square():
    ring = fixtures.hopf_ring(1)
    u, v = ring.gen("u"), ring.gen("v")
    assert u * u == 2 * v
    ring3 = fixtures.hopf_ring(3)
    assert ring3.gen("u") * ring3.gen("u") == 6 * ring3.gen("v")


def test_sullivan_triple_product():
    for s in (1, 2, 3):
        ring = fixtures.sullivan_ring(s)
        a1, a2, a3, w = (ring.gen(n) for n in ("a1", "a2", "a3", "w"))
        assert a1 * a2 * a3 == s * w
        assert (a1 * a2) * a3 == a1 * (a2 * a3)


def test_graded_commutativity_property():
    # multiply(a,b) = (-1)^{|a||b|} multiply(b,a) on all generator pairs
    for name in ("torus", "surface_g2", "sullivan_mu_2", "s2xs2", "hopf_4"):
        ring = fixtures.BUILTIN[name]()
        for gi in ring.generators:
            for gj in ring.generators:
                a, b = ring.gen(gi.name), ring.gen(gj.name)
                sign = -1 if (gi.degree % 2 and gj.degree % 2) else 1
                assert a * b == sign * (b * a), (name, gi.name, gj.name)


def test_associativity_exhaustive_on_fixtures():
    for name in ("surface_g2", "sullivan_mu_3", "cp2_conn_cp2bar"):
        ring = fixtures.BUILTIN[name]()
        gens = [ring.gen(g.name) for g in ring.generators]
        for a in gens:
            for b in gens:
                ab = a * b
                for c in gens:
                    assert ab * c == a * (b * c)


def test_is_integral(torus):
    b = torus.gen("b")
    assert b.is_integral()
    assert not (Fraction(1, 2) * b).is_integral()
    assert (3 * torus.gen("a1") - 7 * torus.gen("a2")).is_integral()


def test_element_degree(torus):
    assert torus.gen("a1").degree() == 1
    assert (torus.gen("a1") + torus.gen("b")).degree() is None
    assert torus.zero().degree() is None
    assert torus.one().degree() == 0


def test_cross_ring_multiplication_rejected(torus):
    other = fixtures.torus_ring()
    with pytest.raises(MalformedElementError):
        torus.multiply(torus.gen("a1"), other.gen("a1"))


def test_generator_ordering_odd_then_even():
    ring = fixtures.sullivan_ring(1)
    degrees = [g.degree for g in ring.generators]
    # odd degrees first within parity class, sorted by degree
    odd = [d for d in degrees if d % 2]
    even = [d for d in degrees if d % 2 == 0]
    assert degrees == odd + even
    assert odd == sorted(odd) and even == sorted(even)


def test_json_round_trip(torus):
    doc = ring_to_dict(torus)
    again = ring_from_dict(json.loads(json.dumps(doc)))
    assert again == torus
    assert ring_to_dict(again) == doc


def test_parser_rejects_duplicate_generator():
    doc = {"generators": [{"name": "u", "degree": 2}, {"name": "u", "degree": 2}]}
    with pytest.raises(RingSpecError, match="duplicate generator"):
        ring_from_dict(doc)


def test_parser_rejects_non_integer_coefficient():
    doc = {
        "generators": [{"name": "u", "degree": 2}, {"name": "v", "degree": 4}],
        "products": [{"left": "u", "right": "u",
                      "result": [{"gen": "v", "coeff": 1.5}]}],
    }
    with pytest.raises(RingSpecError, match="coeff"):
        ring_from_dict(doc)


def test_parser_rejects_unknown_generator():
    doc = {
        "generators": [{"name": "u", "degree": 2}],
        "products": [{"left": "u", "right": "zz", "result": []}],
    }
    with pytest.raises(RingSpecError, match="zz"):
        ring_from_dict(doc)


def test_parser_rejects_degree_zero():
    with pytest.raises(RingSpecError, match="degree"):
        ring_from_dict({"generators": [{"name": "e", "degree": 0}]})


VALID_SPEC = {
    "name": "t",
    "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1},
                   {"name": "v", "degree": 2}],
    "products": [{"left": "a", "right": "b", "result": [{"gen": "v", "coeff": 1}]},
                 {"left": "b", "right": "a", "result": [{"gen": "v", "coeff": -1}]}],
}


def _field_paths(node, path=()):
    """Key paths to every value inside node, node itself first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _field_paths(value, path + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.sampled_from(["a", "b", "v"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(
                          st.sampled_from(["name", "degree", "left", "right",
                                           "result", "gen", "coeff"])
                          | st.text(max_size=3),
                          children, max_size=3)),
    max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_field_paths(VALID_SPEC))), value=json_values)
def test_parser_returns_a_ring_or_a_spec_error(path, value):
    doc = copy.deepcopy(VALID_SPEC)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        ring = ring_from_dict(doc)
    except RingSpecError:
        return
    assert isinstance(ring, Ring)


def test_add_terms_deletes_a_cancelled_key():
    acc = {"x": 2, "y": 1}
    add_terms(acc, [("x", -2), ("z", 3)])
    assert acc == {"y": 1, "z": 3}


def test_add_terms_re_added_key_goes_to_the_end():
    acc = {"x": 1, "y": 1}
    add_terms(acc, [("x", -1), ("x", 4)])
    assert list(acc.items()) == [("y", 1), ("x", 4)]


def test_add_terms_scale_multiplies_each_value():
    acc = {"x": 1}
    add_terms(acc, {"x": 2, "y": -3}.items(), scale=-2)
    assert acc == {"x": -3, "y": 6}
    assert add_terms({"x": 6}, [("x", 3)], scale=-2) == {}


def test_add_terms_fraction_and_int_values():
    acc = {"x": Fraction(1, 2)}
    add_terms(acc, [("x", Fraction(1, 2)), ("y", 2)], scale=Fraction(1, 3))
    assert acc == {"x": Fraction(2, 3), "y": Fraction(2, 3)}
    assert all(isinstance(v, Fraction) for v in acc.values())
    ints = add_terms({}, [("x", 2), ("x", 3)])
    assert ints == {"x": 5} and type(ints["x"]) is int
    add_terms(acc, [("x", -2), ("y", -2)], scale=Fraction(1, 3))
    assert acc == {}


def test_add_terms_returns_the_same_dict():
    acc = {}
    assert add_terms(acc, [("x", 1)]) is acc
    assert add_terms(acc, []) is acc

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import fixtures
from symprod.rings import (
    Element,
    Generator,
    MalformedElementError,
    Ring,
    RingSpecError,
    ValidationReport,
    Violation,
    add_terms,
    load_ring,
    ring_from_dict,
    ring_to_dict,
)

# every shipped spec file, so a new one is covered with no test edit
SHIPPED = sorted(Path(fixtures.packaged_fixture_dir()).glob("*.ring"))

# the shipped files that are instances of a family builder
FAMILY_FILES = {
    "torus": lambda: fixtures.surface_ring(1),
    "surface_g2": lambda: fixtures.surface_ring(2),
    "surface_g3": lambda: fixtures.surface_ring(3),
    "hopf_2": lambda: fixtures.hopf_ring(1),
    "hopf_4": lambda: fixtures.hopf_ring(2),
    "hopf_6": lambda: fixtures.hopf_ring(3),
    "sullivan_mu_1": lambda: fixtures.sullivan_ring(1),
    "sullivan_mu_2": lambda: fixtures.sullivan_ring(2),
    "sullivan_mu_3": lambda: fixtures.sullivan_ring(3),
}


@pytest.fixture
def torus():
    return fixtures.surface_ring(1)


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


def test_broken_degree_additivity_detected():
    # u*u = w with |w| = 10, not 2 + 2; the parity still adds up
    bad = Ring([Generator("u", 2), Generator("w", 10)], {("u", "u"): {"w": 1}})
    assert [vars(v) for v in bad.degree_violations()] == [
        {"invariant": "degree additivity", "witness": ("u", "u"),
         "detail": "term w has degree 10, expected 4"}]
    assert bad.validate().violations[:1] == bad.degree_violations()
    assert not bad.commutativity_violations()
    for path in SHIPPED:
        assert load_ring(path).degree_violations() == [], path.name


def test_hopf_validates_for_every_k():
    for k in range(1, 6):
        assert fixtures.hopf_ring(k).validate().ok


def test_all_shipped_fixtures_validate():
    assert len(SHIPPED) >= 12
    for path in SHIPPED:
        report = load_ring(path).validate()
        assert report.ok, (path.name, [str(v) for v in report.violations])


def test_fixture_files_match_constructors():
    for name, ctor in FAMILY_FILES.items():
        ring = ctor()
        assert fixtures.load_fixture(name) == ring
        # byte for byte: the one way a family file is written
        written = json.dumps(ring_to_dict(ring), indent=2) + "\n"
        path = Path(fixtures.packaged_fixture_dir()) / f"{name}.ring"
        assert path.read_bytes() == written.encode(), name
    for build, message in [(fixtures.surface_ring, "genus must be >= 1"),
                           (fixtures.hopf_ring, "need k >= 1 and m >= 1"),
                           (fixtures.sullivan_ring, "form strength s must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            build(0)


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
        ring = fixtures.load_fixture(name)
        for gi in ring.generators:
            for gj in ring.generators:
                a, b = ring.gen(gi.name), ring.gen(gj.name)
                sign = -1 if (gi.degree % 2 and gj.degree % 2) else 1
                assert a * b == sign * (b * a), (name, gi.name, gj.name)


def test_associativity_exhaustive_on_fixtures():
    for name in ("surface_g2", "sullivan_mu_3", "cp2_conn_cp2bar"):
        ring = fixtures.load_fixture(name)
        gens = [ring.gen(g.name) for g in ring.generators]
        for a in gens:
            for b in gens:
                ab = a * b
                for c in gens:
                    assert ab * c == a * (b * c)


def validate_reference(ring):
    """`Ring.validate` with associativity checked on `Element`s: every
    generator triple multiplied through `Ring.multiply`."""
    violations = ring.degree_violations() + ring.commutativity_violations()
    n = len(ring.generators)
    for i in range(n):
        if ring.slot_degree(i) % 2 and ring.products.get((i, i)):
            violations.append(Violation(
                "odd square", (ring.slot_name(i),), f"{ring.slot_name(i)}^2 is nonzero"))
    gens = [Element(ring, {i: Fraction(1)}) for i in range(n)]
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            left = ring.multiply(gi, gj)
            for k, gk in enumerate(gens):
                if ring.multiply(left, gk) != ring.multiply(gi, ring.multiply(gj, gk)):
                    violations.append(Violation(
                        "associativity",
                        (ring.slot_name(i), ring.slot_name(j), ring.slot_name(k)),
                        "(g_i g_j) g_k != g_i (g_j g_k)"))
    return ValidationReport(violations)


def random_presentation(rng, size):
    """A presentation with random products: most break some axiom."""
    gens = [Generator(f"g{i}", rng.randint(1, 4)) for i in range(size)]
    products = {}
    for left in gens:
        for right in gens:
            if rng.random() < 0.5:
                products[(left.name, right.name)] = {
                    rng.choice(gens).name: rng.choice([-2, -1, 1, 2])
                    for _ in range(rng.randint(1, 2))}
    return Ring(gens, products, name=f"random_{size}")


def test_validate_matches_the_element_reference(monkeypatch):
    rng = random.Random(20261022)
    rings = ([fixtures.load_fixture(name) for name in ("surface_g2", "sullivan_mu_2", "hopf_4")]
             + [random_presentation(rng, rng.randint(2, 5)) for _ in range(12)])
    want = [validate_reference(ring) for ring in rings]
    assert sum(len(report.violations) for report in want) > 200

    def banned(*args):
        raise AssertionError("validate multiplied Elements")

    monkeypatch.setattr(Ring, "multiply", banned)
    monkeypatch.setattr(Element, "__init__", banned)
    for ring, report in zip(rings, want):
        assert ring.validate() == report, ring.name


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
    other = fixtures.surface_ring(1)
    with pytest.raises(MalformedElementError):
        torus.multiply(torus.gen("a1"), other.gen("a1"))


def test_cross_ring_addition_rejected():
    # positions of two presentations are not one ring's: a1 of the torus
    # and b of the sphere both sit at position 0
    a1 = fixtures.surface_ring(1).gen("a1")
    b = fixtures.load_fixture("sphere2").gen("b")
    for combine in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(MalformedElementError, match="different presentation"):
            combine(a1, b)


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
    # the constructor takes exact numbers, and only integers among them
    gens = [Generator("u", 2), Generator("v", 4)]
    for coeff in (Fraction(1, 2), 1.5):
        with pytest.raises(RingSpecError, match=r"non-integer structure constant .* 'u'\*'u'"):
            Ring(gens, {("u", "u"): {"v": coeff}})


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

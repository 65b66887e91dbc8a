"""Finite presentations of graded-commutative rings with integer constants.

A presentation lists homogeneous generators of degree >= 1 together with a
table expressing each product of two generators as an integer combination
of generators.  The degree-0 unit is implicit.  Element coefficients are
exact rationals; the integral lattice is the set of elements with integer
coefficients only.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction


def add_terms(acc: dict, pairs, scale=1) -> dict:
    """Add scale * v into acc[k] for each (k, v) of pairs, in place.

    A key whose sum reaches zero is deleted, so acc holds nonzero values
    only; a key added again after cancelling goes to the end.  Returns acc.
    """
    for k, v in pairs:
        v = acc.get(k, 0) + scale * v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


class RingSpecError(ValueError):
    """Malformed ring description (bad JSON field, unknown generator, ...)."""


class MalformedElementError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


@dataclass(frozen=True)
class Violation:
    invariant: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"{self.invariant} at {self.witness}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


class Ring:
    """A graded ring presentation.

    Generators are reordered at construction: odd-degree ones first (by
    degree, then given order), then even-degree ones likewise, so basis
    enumeration downstream is deterministic.  ``products`` maps a pair of
    generator names to a {name: int} combination; omitted pairs are zero.
    """

    def __init__(self, generators, products, name: str = ""):
        gens = [g if isinstance(g, Generator) else Generator(*g) for g in generators]
        seen = set()
        for g in gens:
            if g.degree < 1:
                raise RingSpecError(f"generator {g.name!r} has degree {g.degree} < 1")
            if g.name in seen:
                raise RingSpecError(f"duplicate generator name {g.name!r}")
            seen.add(g.name)
        odds = [g for g in gens if g.degree % 2 == 1]
        evens = [g for g in gens if g.degree % 2 == 0]
        odds.sort(key=lambda g: g.degree)
        evens.sort(key=lambda g: g.degree)
        self.name = name
        self.generators: tuple[Generator, ...] = tuple(odds + evens)
        self.position = {g.name: i for i, g in enumerate(self.generators)}
        self.unit_slot = len(self.generators)
        self._degrees = [g.degree for g in self.generators] + [0]
        # by slot: 1 for an odd generator, 0 for an even one or the unit
        self.odd_flags = [d % 2 for d in self._degrees]
        self.products: dict[tuple[int, int], dict[int, int]] = {}
        for (left, right), combo in products.items():
            i, j = self._pos(left), self._pos(right)
            entry = {}
            for gen_name, coeff in combo.items():
                if int(coeff) != coeff:
                    raise RingSpecError(
                        f"non-integer structure constant {coeff!r} in "
                        f"product {left!r}*{right!r}")
                if coeff:
                    entry[self._pos(gen_name)] = int(coeff)
            if entry:
                self.products[(i, j)] = entry

    def _pos(self, name: str) -> int:
        try:
            return self.position[name]
        except KeyError:
            raise RingSpecError(f"unknown generator {name!r}") from None

    # -- basic queries -------------------------------------------------

    @property
    def odd_positions(self) -> list[int]:
        return [i for i, g in enumerate(self.generators) if g.degree % 2 == 1]

    @property
    def even_positions(self) -> list[int]:
        return [i for i, g in enumerate(self.generators) if g.degree % 2 == 0]

    def slot_degree(self, slot: int) -> int:
        return self._degrees[slot]

    def slot_name(self, slot: int) -> str:
        return "1" if slot == self.unit_slot else self.generators[slot].name

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return (self.generators == other.generators
                and self.products == other.products)

    def __repr__(self):
        label = self.name or f"{len(self.generators)} generators"
        return f"Ring({label})"

    # -- elements ------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self.unit_slot: Fraction(1)})

    def gen(self, name: str) -> "Element":
        return Element(self, {self._pos(name): Fraction(1)})

    def element(self, combo: dict[str, int | Fraction]) -> "Element":
        terms = {}
        for name, coeff in combo.items():
            slot = self.unit_slot if name == "1" else self._pos(name)
            if coeff:
                terms[slot] = Fraction(coeff)
        return Element(self, terms)

    def gen_product(self, i: int, j: int) -> dict[int, int]:
        """Structure-constant row for generator positions i, j (unit aware)."""
        if i == self.unit_slot:
            return {j: 1}
        if j == self.unit_slot:
            return {i: 1}
        return self.products.get((i, j), {})

    def multiply(self, a: "Element", b: "Element") -> "Element":
        if a.ring is not self or b.ring is not self:
            raise MalformedElementError("elements from a different presentation")
        terms: dict[int, Fraction] = {}
        for i, ca in a.terms.items():
            for j, cb in b.terms.items():
                add_terms(terms, self.gen_product(i, j).items(), ca * cb)
        return Element(self, terms)

    # -- validation ----------------------------------------------------

    def commutativity_violations(self) -> list[Violation]:
        """Ordered generator pairs (i, j) whose product(j, i) is not
        (-1)^(|i||j|) product(i, j); an odd square must therefore vanish."""
        violations = []
        n = len(self.generators)
        deg = self._degrees
        for i in range(n):
            for j in range(n):
                ij = self.products.get((i, j), {})
                ji = self.products.get((j, i), {})
                sign = -1 if (deg[i] % 2 and deg[j] % 2) else 1
                if ji != {k: sign * c for k, c in ij.items()}:
                    violations.append(Violation(
                        "graded commutativity", (self.slot_name(i), self.slot_name(j)),
                        f"product({self.slot_name(j)},{self.slot_name(i)}) != "
                        f"{'-' if sign < 0 else ''}product({self.slot_name(i)},{self.slot_name(j)})"))
        return violations

    def degree_violations(self) -> list[Violation]:
        """Generator products with a term whose degree is not the factors' sum."""
        violations = []
        deg = self._degrees
        for (i, j), combo in self.products.items():
            want = deg[i] + deg[j]
            for k in combo:
                if deg[k] != want:
                    violations.append(Violation(
                        "degree additivity", (self.slot_name(i), self.slot_name(j)),
                        f"term {self.slot_name(k)} has degree {deg[k]}, expected {want}"))
        return violations

    def validate(self) -> ValidationReport:
        """Check the structure-constant table against the graded ring axioms."""
        violations = self.degree_violations() + self.commutativity_violations()
        n = len(self.generators)
        deg = self._degrees

        for i in range(n):
            if deg[i] % 2 and self.products.get((i, i)):
                violations.append(Violation(
                    "odd square", (self.slot_name(i),),
                    f"{self.slot_name(i)}^2 is nonzero"))

        products = self.products
        for i, j, k in itertools.product(range(n), repeat=3):
            left, right = {}, {}
            for m, c in products.get((i, j), {}).items():
                add_terms(left, products.get((m, k), {}).items(), c)
            for m, c in products.get((j, k), {}).items():
                add_terms(right, products.get((i, m), {}).items(), c)
            if left != right:
                violations.append(Violation(
                    "associativity",
                    (self.slot_name(i), self.slot_name(j), self.slot_name(k)),
                    "(g_i g_j) g_k != g_i (g_j g_k)"))
        return ValidationReport(violations)


class Element:
    """Sparse rational combination of generators and the unit."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[int, Fraction]):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if other.ring is not self.ring:
            raise MalformedElementError("elements from a different presentation")
        return Element(self.ring, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return Element(self.ring, {k: v * Fraction(scalar) for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.ring.multiply(self, other)
        return self.__rmul__(other)

    def __neg__(self):
        return (-1) * self

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        """True iff every coefficient is an integer."""
        return all(v.denominator == 1 for v in self.terms.values())

    def degree(self) -> int | None:
        """Common degree of all terms, or None if mixed or zero."""
        degs = {self.ring.slot_degree(k) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*{self.ring.slot_name(k)}")
        return "".join(bits)


# -- JSON ring-spec format ----------------------------------------------
#
# {"name": "...",
#  "generators": [{"name": "a1", "degree": 1}, ...],
#  "products": [{"left": "a1", "right": "a2",
#                "result": [{"gen": "b", "coeff": 1}]}, ...]}
#
# Omitted products are zero; coefficients are decimal integers.

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, kind: type, what: str):
    """value, if it has the JSON type kind (true and false are no integers)."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise RingSpecError(f"{what} must be {_KINDS[kind]}, got {value!r}")


def ring_from_dict(doc: dict) -> Ring:
    _typed(doc, dict, "ring spec")
    if "generators" not in doc:
        raise RingSpecError("missing field 'generators'")
    generators = []
    for item in _typed(doc["generators"], list, "field 'generators'"):
        if not isinstance(item, dict) or "name" not in item or "degree" not in item:
            raise RingSpecError(f"bad generator entry {item!r}: need 'name' and 'degree'")
        name = _typed(item["name"], str, f"generator {item!r}: field 'name'")
        generators.append(Generator(name, _typed(
            item["degree"], int, f"generator {name!r}: field 'degree'")))
    products = {}
    for item in _typed(doc.get("products", []), list, "field 'products'"):
        _typed(item, dict, "product entry")
        for field in ("left", "right", "result"):
            if field not in item:
                raise RingSpecError(f"product entry missing field {field!r}: {item!r}")
        key = tuple(_typed(item[field], str, f"product entry {item!r}: field {field!r}")
                    for field in ("left", "right"))
        combo = {}
        for t in _typed(item["result"], list, f"product entry {item!r}: field 'result'"):
            if not isinstance(t, dict) or "gen" not in t or "coeff" not in t:
                raise RingSpecError(f"bad product term {t!r}: need 'gen' and 'coeff'")
            gen = _typed(t["gen"], str, f"product term {t!r}: field 'gen'")
            combo[gen] = combo.get(gen, 0) + _typed(
                t["coeff"], int, f"product term {t!r}: field 'coeff'")
        if key in products:
            raise RingSpecError(f"duplicate product entry {key[0]!r}*{key[1]!r}")
        products[key] = combo
    return Ring(generators, products, name=_typed(doc.get("name", ""), str, "field 'name'"))


def ring_to_dict(ring: Ring) -> dict:
    doc = {
        "name": ring.name,
        "generators": [{"name": g.name, "degree": g.degree} for g in ring.generators],
        "products": [],
    }
    for (i, j) in sorted(ring.products):
        combo = ring.products[(i, j)]
        doc["products"].append({
            "left": ring.slot_name(i),
            "right": ring.slot_name(j),
            "result": [{"gen": ring.slot_name(k), "coeff": combo[k]}
                       for k in sorted(combo)],
        })
    return doc


def load_ring(path) -> Ring:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:  # a directory, or no permission to read
        raise RingSpecError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise RingSpecError(f"{path}: not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise RingSpecError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    return ring_from_dict(doc)

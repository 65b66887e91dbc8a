"""Test-side readers and cross-checks that no program path runs: reading
a written structure table or bridge report back into its object,
expanding an invariant tensor by dual pairings instead of elimination, and
the integer orbit kernel without its fast path.
`test_sympower.py`, `test_cli.py`, `test_bridge.py` and `test_kernel.py`
import them."""

from fractions import Fraction
from math import factorial

from symprod.bridge import BridgeReport, DegreeMatrix
from symprod.rings import Ring
from symprod.sympower import (
    BasisIndex,
    NotSymmetricError,
    StructureTable,
    TheoremViolationError,
    dual_element,
    index_from_sorted_slots,
)
from symprod.tensors import (
    TensorElement,
    has_repeated_odd,
    signed_arrangements,
    sorted_slots_with_sign,
)


def expand_via_pairing(t: TensorElement, candidates) -> dict[BasisIndex, Fraction]:
    """Cross-check expansion: read coefficients off dual pairings.

    With the slotwise pairing convention, the coefficient of an index is
    the value of t against its dual element.
    """
    ring = t.ring
    out = {}
    for idx in candidates:
        dual = dual_element(ring, idx)
        c = t.terms.get(dual.slots, Fraction(0)) * dual.coefficient
        if c:
            out[idx] = c
    return out


def index_from_dict(ring: Ring, doc: dict) -> BasisIndex:
    odd = tuple(ring.position[name] for name in doc["odd"])
    even = tuple((ring.position[name], int(m)) for name, m in doc["even"])
    return BasisIndex(odd, even, int(doc["pad"]))


def table_from_dict(ring: Ring, doc: dict) -> StructureTable:
    table = StructureTable.__new__(StructureTable)
    table.ring = ring
    table.n = int(doc["n"])
    table.max_degree = int(doc["max_degree"])
    by_label = {}
    basis = []
    for item in doc["generators"]:
        idx = index_from_dict(ring, item["index"])
        by_label[item["name"]] = idx
        basis.append(idx)
    table.basis = basis
    table.entries = {}
    for item in doc["products"]:
        entry = {by_label[t["gen"]]: int(t["coeff"]) for t in item["result"]}
        table.entries[(by_label[item["left"]], by_label[item["right"]])] = entry
    return table


def report_from_dict(doc: dict) -> BridgeReport:
    report = BridgeReport(doc["g"], doc["n"], doc["mode"],
                          max_degree=doc["max_degree"])
    report.relations_vanish = doc["relations_vanish"]
    for item in doc["degrees"]:
        report.degrees.append(DegreeMatrix(
            degree=item["degree"],
            quotient_rank=item["quotient_rank"],
            tensor_rank=item["tensor_rank"],
            matrix=[list(map(int, row)) for row in item["matrix"]],
            unimodular=item["unimodular"],
            smith=list(map(int, item["smith"])),
        ))
    return report


class IndexProductReference:
    """The orbit kernel without first-slot blocks or rows, kept as the
    fast path's reference: every arrangement of j's orbit is walked, and
    each product is one call.
    Exact integer product of two basis indices, in basis coordinates.

    Calling ``IndexProductReference(ring)(i, j)`` gives the coordinates of
    realize(i) * realize(j), ordered by sorted slot tuple, as ``expand``
    orders them.  With e_i the sorted elementary tensor of i, the
    realization of i is (1/pad_i!) times the sum of e_i acted on by every
    permutation, and the product is equivariant, so the product is
    (1/pad_i!) times the sum over the group of T = e_i * realize(j) acted
    on.  The coefficient of an index k is the product's value at
    sorted_slots(k) over leading_multiplier(k); the stabilizer of that
    arrangement has pad_k! * leading_multiplier(k) elements, hence

        c_k = pad_k! / pad_i! * (sum of sgn(t) * T[t] over the terms t of
              T that sort to sorted_slots(k)),

    sgn(t) being the Koszul sign of sorting t.  A term repeating an odd
    generator sums to zero over the group and is dropped.  One product
    costs |orbit of j| slotwise products instead of |orbit of i| * |orbit
    of j| rational terms and an expansion; the division by pad_i! is the
    integrality certificate.  The slot-product table, the orbits and the
    sorted forms are cached per instance.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        slots = range(ring.unit_slot + 1)
        self._odd = [ring.slot_degree(s) % 2 for s in slots]
        # The product of tensors is equivariant only if products of
        # generators add degree parities.
        for (a, b), combo in ring.products.items():
            for k in combo:
                if self._odd[k] != (self._odd[a] + self._odd[b]) % 2:
                    raise NotSymmetricError(
                        f"product {ring.slot_name(a)}*{ring.slot_name(b)} has a "
                        f"term {ring.slot_name(k)} of the wrong degree parity, "
                        "so products of invariant tensors are not invariant")
        self._mul = [[tuple(ring.gen_product(a, b).items()) for b in slots]
                     for a in slots]
        self._orbits: dict[tuple[BasisIndex, int], list[tuple[tuple[int, ...], int]]] = {}
        self._sorted: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {}
        self._indices: dict[tuple[int, ...], BasisIndex] = {}

    def __call__(self, i: BasisIndex, j: BasisIndex) -> dict[BasisIndex, int]:
        a = i.sorted_slots(self.ring)
        orbit = self._orbit(j, len(i.odd))
        if len(a) != len(orbit[0][0]):
            raise ValueError(f"index arities differ: {i.arity} vs {j.arity}")
        rows = [self._mul[s] for s in a]
        acc: dict[tuple[int, ...], int] = {}
        for b, coeff in orbit:
            terms = [((), coeff)]
            for row, s in zip(rows, b):
                combo = row[s]
                if not combo:
                    break
                if len(combo) == 1:
                    (t, v), = combo
                    terms = [(pref + (t,), c * v) for pref, c in terms]
                else:
                    terms = [(pref + (t,), c * v)
                             for pref, c in terms for t, v in combo]
            else:
                for slots, c in terms:
                    hit = self._sort(slots)
                    if hit is not None:
                        key, sign = hit
                        acc[key] = acc.get(key, 0) + sign * c
        out = {}
        den = factorial(i.pad)
        for key in sorted(acc):
            total = acc[key]
            if not total:
                continue
            k = self._index(key)
            num = factorial(k.pad) * total
            c, rem = divmod(num, den)
            if rem:
                ring = self.ring
                raise TheoremViolationError(
                    f"non-integer structure constant {Fraction(num, den)} in "
                    f"{i.label(ring)} * {j.label(ring)} at {k.label(ring)}")
            out[k] = c
        return out

    def _orbit(self, j: BasisIndex, odd_left: int) -> list[tuple[tuple[int, ...], int]]:
        """The terms b of realize(j), with integer coefficients times the
        interchange sign of e * b for an e whose first ``odd_left`` slots
        are its odd ones: (-1)^(sum over p < q of |b_p| |e_q|) counts, for
        each odd b_p, the odd slots of e after position p."""
        orbit = self._orbits.get((j, odd_left))
        if orbit is None:
            lead = j.leading_multiplier
            odd = self._odd
            orbit = []
            for b, sign in signed_arrangements(self.ring, j.sorted_slots(self.ring)):
                flips = sum(odd_left - 1 - p for p in range(odd_left - 1) if odd[b[p]])
                orbit.append((b, -lead * sign if flips % 2 else lead * sign))
            self._orbits[(j, odd_left)] = orbit
        return orbit

    def _sort(self, slots: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
        """Sorted slots and Koszul sign, or None if an odd slot repeats."""
        try:
            return self._sorted[slots]
        except KeyError:
            pass
        key, sign = sorted_slots_with_sign(self.ring, slots)
        hit = None if has_repeated_odd(self.ring, key) else (key, sign)
        self._sorted[slots] = hit
        return hit

    def _index(self, key: tuple[int, ...]) -> BasisIndex:
        idx = self._indices.get(key)
        if idx is None:
            idx = self._indices[key] = index_from_sorted_slots(self.ring, key)
        return idx

"""Integral basis and structure constants of the invariant subring of a
signed n-fold tensor power.

A basis element is indexed by a strictly increasing tuple of odd
generators, a multiset of even generators, and a unit padding count.  Its
realization is (1/r!) * sum over sigma of the sorted elementary tensor
acted on by sigma; the coefficient of the sorted arrangement is the
product of the even multiplicities' factorials, and all coefficients are
integers.  Products of basis elements expand integrally in the basis
again; a non-integer coefficient here is a hard error, never a valid
outcome.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .rings import Ring, RingSpecError, add_terms
from .tensors import (
    TensorElement,
    has_repeated_odd,
    signed_arrangements,
    sorted_slots_with_sign,
    sym_element,
)


class NotSymmetricError(ValueError):
    pass


class InternalInconsistencyError(RuntimeError):
    """The expansion hit a tensor no symmetric element can contain; this
    signals a sign bug upstream, not bad input."""


class TheoremViolationError(RuntimeError):
    """A structure constant came out non-integral."""


@dataclass(frozen=True)
class BasisIndex:
    """Combinatorial index of a basis element.

    odd: strictly increasing generator positions of odd degree.
    even: ((position, multiplicity), ...) with positions strictly increasing.
    pad: number of unit slots; the tensor arity is len(odd) + sum(mults) + pad.
    """
    odd: tuple[int, ...]
    even: tuple[tuple[int, int], ...]
    pad: int

    def __post_init__(self):
        if list(self.odd) != sorted(set(self.odd)):
            raise ValueError(f"odd positions must strictly increase: {self.odd}")
        positions = [p for p, _ in self.even]
        if positions != sorted(set(positions)):
            raise ValueError(f"even positions must strictly increase: {self.even}")
        if any(m < 1 for _, m in self.even) or self.pad < 0:
            raise ValueError("multiplicities must be >= 1 and pad >= 0")
        # indices key every table, orbit and label cache: hash them once,
        # to the value the generated __hash__ would give
        object.__setattr__(self, "_hash", hash((self.odd, self.even, self.pad)))

    def __hash__(self):
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.odd) + sum(m for _, m in self.even) + self.pad

    @property
    def is_unit(self) -> bool:
        return not self.odd and not self.even

    @property
    def leading_multiplier(self) -> int:
        """Coefficient of the sorted arrangement in the realization."""
        out = 1
        for _, m in self.even:
            out *= factorial(m)
        return out

    def degree(self, ring: Ring) -> int:
        return (sum(ring.slot_degree(p) for p in self.odd)
                + sum(m * ring.slot_degree(p) for p, m in self.even))

    def sorted_slots(self, ring: Ring) -> tuple[int, ...]:
        slots = list(self.odd)
        for p, m in self.even:
            slots.extend([p] * m)
        slots.extend([ring.unit_slot] * self.pad)
        return tuple(slots)

    def label(self, ring: Ring) -> str:
        if self.is_unit:
            return "chi[1]"
        parts = [ring.slot_name(p) for p in self.odd]
        parts += [ring.slot_name(p) + (f"^{m}" if m > 1 else "")
                  for p, m in self.even]
        return "chi[" + ",".join(parts) + "]"


def index_from_sorted_slots(ring: Ring, slots: tuple[int, ...]) -> BasisIndex:
    """Read the basis index off an ascending slot tuple."""
    if tuple(sorted(slots)) != slots:
        raise InternalInconsistencyError(f"slot tuple not sorted: {slots}")
    odd = []
    even: list[tuple[int, int]] = []
    pad = 0
    for slot, group in itertools.groupby(slots):
        count = sum(1 for _ in group)
        if slot == ring.unit_slot:
            pad = count
        elif ring.slot_degree(slot) % 2:
            if count > 1:
                raise InternalInconsistencyError(
                    f"odd generator repeated in {slots}")
            odd.append(slot)
        else:
            even.append((slot, count))
    return BasisIndex(tuple(odd), tuple(even), pad)


def enumerate_basis(ring: Ring, n: int, degree: int | None = None) -> list[BasisIndex]:
    """All basis indices for the n-th power (unit excluded), sorted by
    (degree, odd part, even part, pad); optionally filtered by degree.

    Candidates are raw (odd, even, pad) tuples with their degree read off
    `ring.slot_degree`; a `BasisIndex` is built only for the ones kept."""
    if n < 2:
        raise ValueError("tensor power must have n >= 2")
    if degree is not None and degree < 0:
        raise ValueError(f"need degree >= 0, got degree={degree}")
    odd_positions = ring.odd_positions
    even_positions = ring.even_positions
    slot_degree = ring.slot_degree
    kept = []
    for k in range(0, min(n, len(odd_positions)) + 1):
        for odd in itertools.combinations(odd_positions, k):
            budget = n - k
            odd_degree = sum(map(slot_degree, odd))
            for even in _even_multisets(even_positions, budget):
                if k + len(even) == 0:
                    continue
                d = odd_degree + sum(m * slot_degree(p) for p, m in even)
                if degree is None or d == degree:
                    kept.append((d, odd, even, budget - sum(m for _, m in even)))
    kept.sort()
    return [BasisIndex(odd, even, pad) for _, odd, even, pad in kept]


def _even_multisets(positions, budget):
    """Multisets over `positions` of total multiplicity <= budget."""
    if not positions:
        yield ()
        return
    head, *tail = positions
    for m in range(budget + 1):
        for rest in _even_multisets(tail, budget - m):
            yield ((head, m),) + rest if m else rest


def realize(ring: Ring, idx: BasisIndex, n: int | None = None) -> TensorElement:
    """The basis element as a tensor: every distinct arrangement of the
    sorted slot multiset with its Koszul sign, times the product of the
    even multiplicities' factorials."""
    if n is not None and idx.arity != n:
        raise ValueError(f"index arity {idx.arity} != n = {n}")
    lead = idx.leading_multiplier
    slots = idx.sorted_slots(ring)
    terms = {arr: Fraction(lead * sign)
             for arr, sign in signed_arrangements(ring, slots)}
    return TensorElement(ring, idx.arity, terms)


@dataclass(frozen=True)
class DualElement:
    """The homology pairing partner: the sorted dual chain tensor with
    coefficient 1 over the product of the even multiplicities' factorials."""
    index: BasisIndex
    slots: tuple[int, ...]
    coefficient: Fraction


def dual_element(ring: Ring, idx: BasisIndex) -> DualElement:
    return DualElement(idx, idx.sorted_slots(ring),
                       Fraction(1, idx.leading_multiplier))


def pair(ring: Ring, gamma: BasisIndex, dual: DualElement) -> int:
    """Kronecker pairing of the realized basis element against a dual
    element; slotwise duality, so only the exactly matching arrangement
    contributes.  Always lands in {0, +1, -1}."""
    if gamma.arity != len(dual.slots):
        raise ValueError("pairing across different tensor arities")
    value = realize(ring, gamma).terms.get(dual.slots, Fraction(0)) * dual.coefficient
    if value not in (-1, 0, 1):
        raise InternalInconsistencyError(f"pairing value {value} outside 0, +-1")
    return int(value)


def expand(t: TensorElement) -> dict[BasisIndex, Fraction]:
    """Coordinates of an invariant tensor in the basis.

    Greedy elimination: the least elementary tensor of the remainder must
    be the sorted arrangement of some index, whose coefficient there is
    the known leading multiplier.  A non-invariant input is rejected; a
    remainder that cannot be consumed signals an internal sign bug.
    """
    if not t.is_symmetric():
        raise NotSymmetricError("expand requires an invariant tensor")
    ring = t.ring
    work = dict(t.terms)
    out: dict[BasisIndex, Fraction] = {}
    while work:
        least = min(work)
        idx = index_from_sorted_slots(ring, least)
        coeff = work[least] / idx.leading_multiplier
        out[idx] = coeff
        add_terms(work, signed_arrangements(ring, least),
                  -coeff * idx.leading_multiplier)
        if least in work:
            raise InternalInconsistencyError("leading term failed to cancel")
    return out


def chi(ring: Ring, n: int, odds, evens) -> TensorElement:
    """Span element with the odd factors first, then the even factors.

    The factors may be arbitrary ring elements; for basis generators with
    strictly increasing odd positions this reproduces realize().
    """
    return sym_element(ring, n, list(odds) + list(evens))


class IndexProduct:
    """Exact integer product of two basis indices, in basis coordinates.

    Calling ``IndexProduct(ring)(i, j)`` gives the coordinates of
    realize(i) * realize(j), ordered by sorted slot tuple, as ``expand``
    orders them; ``row(i, js)`` gives them for every j in js at once.
    With e_i the sorted elementary tensor of i, the realization of i is
    (1/pad_i!) times the sum of e_i acted on by every permutation, and the
    product is equivariant, so the product is (1/pad_i!) times the sum over
    the group of T = e_i * realize(j) acted on.  The coefficient of an
    index k is the product's value at sorted_slots(k) over
    leading_multiplier(k); the stabilizer of that arrangement has
    pad_k! * leading_multiplier(k) elements, hence

        c_k = pad_k! / pad_i! * (sum of sgn(t) * T[t] over the terms t of
              T that sort to sorted_slots(k)),

    sgn(t) being the Koszul sign of sorting t.  A term repeating an odd
    generator sums to zero over the group and is dropped.  One product
    costs at most |orbit of j| slotwise products instead of |orbit of i| *
    |orbit of j| rational terms and an expansion: the orbit is kept in
    blocks by first slot, and a block whose first slot multiplies i's
    first slot to zero is skipped whole.  The division by pad_i! is the
    integrality certificate.  The slot-product table, the orbits and the
    sorted forms are cached per instance, and ``row`` reads i's slots and
    slot-product rows once for all of js.  A result is keyed by the index
    of ``basis`` with its sorted slots when there is one, so a consumer
    that passes its basis objects finds every result key among them by
    identity; other keys are built from the slots.
    """

    def __init__(self, ring: Ring, basis=()):
        self.ring = ring
        slots = range(ring.unit_slot + 1)
        self._odd = ring.odd_flags
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
        self._orbits: dict[tuple[BasisIndex, int], list[tuple[int, list]]] = {}
        self._sorted: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {}
        self._indices: dict[tuple[int, ...], BasisIndex] = {
            idx.sorted_slots(ring): idx for idx in basis}

    def __call__(self, i: BasisIndex, j: BasisIndex) -> dict[BasisIndex, int]:
        return self.row(i, [j])[0]

    def row(self, i: BasisIndex, js) -> list[dict[BasisIndex, int]]:
        """The products i * j for each j in js, in order."""
        a = i.sorted_slots(self.ring)
        first, *rest = [self._mul[s] for s in a]
        odd_left = len(i.odd)
        den = factorial(i.pad)
        orbits = self._orbits
        known = self._sorted
        out = []
        for j in js:
            blocks = orbits.get((j, odd_left)) or self._orbit(j, odd_left)
            # every tail in j's orbit is one slot shorter than j
            if len(blocks[0][1][0][0]) != len(rest):
                raise ValueError(f"index arities differ: {i.arity} vs {j.arity}")
            acc: dict[tuple[int, ...], int] = {}
            for b0, block in blocks:
                head = first[b0]
                if not head:
                    continue
                for tail, coeff in block:
                    terms = [((t,), coeff * v) for t, v in head]
                    for slot_row, s in zip(rest, tail):
                        combo = slot_row[s]
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
                            hit = known[slots] if slots in known else self._sort(slots)
                            if hit is not None:
                                key, sign = hit
                                acc[key] = acc.get(key, 0) + sign * c
            # c_k = pad_k! * acc[k] / pad_i!, by sorted key
            result = {}
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
                result[k] = c
            out.append(result)
        return out

    def _orbit(self, j: BasisIndex, odd_left: int) -> list[tuple[int, list]]:
        """The terms b of realize(j), with integer coefficients times the
        interchange sign of e * b for an e whose first ``odd_left`` slots
        are its odd ones: (-1)^(sum over p < q of |b_p| |e_q|) counts, for
        each odd b_p, the odd slots of e after position p.  The terms come
        in lex order, so those sharing a first slot b[0] are contiguous;
        they are kept as blocks (b[0], [(b[1:], coeff), ...]).  Built on a
        miss of the cache that ``row`` reads."""
        lead = j.leading_multiplier
        odd = self._odd
        orbit = []
        for b, sign in signed_arrangements(self.ring, j.sorted_slots(self.ring)):
            flips = sum(odd_left - 1 - p for p in range(odd_left - 1) if odd[b[p]])
            if not orbit or orbit[-1][0] != b[0]:
                orbit.append((b[0], []))
            orbit[-1][1].append((b[1:], -lead * sign if flips % 2 else lead * sign))
        self._orbits[(j, odd_left)] = orbit
        return orbit

    def _sort(self, slots: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
        """Sorted slots and Koszul sign, or None if an odd slot repeats.
        Computed on a miss of the cache that ``row`` reads."""
        key, sign = sorted_slots_with_sign(self.ring, slots)
        hit = None if has_repeated_odd(self.ring, key) else (key, sign)
        self._sorted[slots] = hit
        return hit

    def _index(self, key: tuple[int, ...]) -> BasisIndex:
        idx = self._indices.get(key)
        if idx is None:
            idx = self._indices[key] = index_from_sorted_slots(self.ring, key)
        return idx


class StructureTable:
    """Integer multiplication table over the basis, truncated by degree.

    ``entries`` holds every ordered pair (i, j) with |i| + |j| <= the
    bound, in basis order.  When the ring's generators commute up to the
    Koszul sign, so does the invariant subring (the paper's Theorem 1), and
    each unordered pair is multiplied once: (j, i) is (i, j) with its
    values negated when |i||j| is odd.  Otherwise both orders are computed.
    """

    def __init__(self, ring: Ring, n: int, max_degree: int):
        if max_degree < 0:
            raise ValueError(f"need max_degree >= 0, got max_degree={max_degree}")
        self.ring = ring
        self.n = n
        self.max_degree = max_degree
        self.basis = [idx for idx in enumerate_basis(ring, n)
                      if idx.degree(ring) <= max_degree]
        self.entries: dict[tuple[BasisIndex, BasisIndex], dict[BasisIndex, int]] = {}
        entries = self.entries
        # results keyed by the basis objects themselves: the writers look
        # each key up in dicts keyed by the basis, and hit on identity
        product = IndexProduct(ring, self.basis)
        mirror = not ring.commutativity_violations()
        degrees = [idx.degree(ring) for idx in self.basis]
        for a, (i, di) in enumerate(zip(self.basis, degrees)):
            # the basis is sorted by degree: the partners within the bound
            # are a prefix, and one kernel row computes the new products
            stop = bisect_right(degrees, max_degree - di)
            start = min(a, stop) if mirror else 0
            computed = iter(product.row(i, self.basis[start:stop]))
            for b in range(stop):
                j = self.basis[b]
                if b >= start:
                    entries[(i, j)] = next(computed)
                elif di * degrees[b] % 2:
                    entries[(i, j)] = {k: -c for k, c in entries[(j, i)].items()}
                else:
                    entries[(i, j)] = entries[(j, i)]

    def product(self, i: BasisIndex, j: BasisIndex) -> dict[BasisIndex, int]:
        return self.entries[(i, j)]

    def __eq__(self, other):
        if not isinstance(other, StructureTable):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n
                and self.max_degree == other.max_degree
                and self.basis == other.basis
                and self.entries == other.entries)


def structure_constants(ring: Ring, n: int, up_to_degree: int) -> StructureTable:
    return StructureTable(ring, n, up_to_degree)


# -- JSON dialect ---------------------------------------------------------
#
# A basis index serializes as {"odd": [names], "even": [[name, m], ...],
# "pad": r}.  A structure table serializes in the ring-spec dialect
# (generators + products) so its output can be fed back in as a ring
# presentation; the extra "index" fields are ignored by the ring parser.

def index_to_dict(ring: Ring, idx: BasisIndex) -> dict:
    return {
        "odd": [ring.slot_name(p) for p in idx.odd],
        "even": [[ring.slot_name(p), m] for p, m in idx.even],
        "pad": idx.pad,
    }


def table_layout(table: StructureTable):
    """What a written table is made of, decided in one place for every
    writer: the document without its products, each basis class's label,
    and a function listing an entry's items in written order (a stable
    sort on the label).  A label is a generator's name in the written
    table, so two classes with one label raise ``RingSpecError``.
    """
    ring = table.ring
    labels: dict[BasisIndex, str] = {}
    owner: dict[str, BasisIndex] = {}
    for idx in table.basis:
        label = labels[idx] = idx.label(ring)
        first = owner.setdefault(label, idx)
        if first is not idx:
            raise RingSpecError(
                f"basis classes {index_to_dict(ring, first)} and "
                f"{index_to_dict(ring, idx)} have the same label {label!r}; "
                "rename a generator")
    head = {
        "name": f"sym{table.n}_{ring.name or 'ring'}",
        "n": table.n,
        "max_degree": table.max_degree,
        "generators": [
            {"name": labels[idx], "degree": idx.degree(ring),
             "index": index_to_dict(ring, idx)}
            for idx in table.basis
        ],
    }

    def in_order(entry: dict[BasisIndex, int]) -> list[tuple[BasisIndex, int]]:
        return sorted(entry.items(), key=lambda kv: labels[kv[0]])

    return head, labels, in_order


def table_to_dict(table: StructureTable) -> dict:
    doc, labels, in_order = table_layout(table)
    doc["products"] = [
        {"left": labels[i],
         "right": labels[j],
         "result": [{"gen": labels[k], "coeff": c} for k, c in in_order(entry)]}
        for (i, j), entry in table.entries.items()
    ]
    return doc

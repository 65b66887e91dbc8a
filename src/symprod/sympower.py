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
from functools import cached_property
from math import factorial

from .rings import Ring, RingSpecError, add_terms
from .tensors import (
    TensorElement,
    signed_arrangements,
    sym_element,
)


class NotSymmetricError(ValueError):
    pass


class InternalInconsistencyError(RuntimeError):
    """An expansion or a product reached a tensor or a class that cannot
    occur there; this signals a bug upstream, not bad input."""


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


def realize(ring: Ring, idx: BasisIndex) -> TensorElement:
    """The basis element as a tensor: every distinct arrangement of the
    sorted slot multiset with its Koszul sign, times the product of the
    even multiplicities' factorials."""
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
    """Exact integer product of two basis classes, in basis coordinates.

    The kernel is built on a list ``basis`` of indices and speaks only
    positions in it: ``IndexProduct(ring, basis)(a, b)`` gives the
    coordinates of realize(basis[a]) * realize(basis[b]) as {position:
    coefficient}, ordered by sorted slot tuple, as ``expand`` orders them;
    ``row(a, bs)`` gives them for every b in bs at once.  What the kernel
    is built on is checked once, by the constructor: generator products
    that do not add degrees raise ``RingSpecError``, naming the first, and
    a basis of more than one arity raises ``ValueError``.  A product term
    whose class is not in ``basis`` raises ``InternalInconsistencyError``.
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
    integrality certificate.

    A product is 0, with no orbit touched, when some slot of i multiplies
    every slot of j to zero: each of its terms then has a zero factor.
    When i has two unit slots or more, the arrangements b of j that agree
    on i's other slots give one term each: the units copy b's slots, and
    reordering them changes b's sign and the sign of sorting t alike, so
    one b of each such run is walked, its coefficient times the run's
    length.

    Terms are accumulated by class: each class's slots are sorted once,
    and each arrangement a term reaches is cached with its class's rank in
    sorted-slot order and its Koszul sign times pad_k!, so a result is
    read off by rank.  The sign a left index's odd slots put on a term
    depends on one right slot per position, so it lives in the left
    index's slot-product rows: those positions read a second table, each
    odd right slot's terms negated.  Each right index's signed
    arrangements are enumerated once, and its orbit is kept once per
    prefix length.  The slot-product tables and the orbits are cached per
    instance, and so is each left class's set-up on its first use: its
    slot-product rows, pad_i!, the prefix length that tells arrangements
    apart, orbit cache and, per slot, the slots it multiplies to nonzero
    as a bit mask.
    A term is stepped as one (slots, coefficient) pair until a slot
    product has more than one term.
    """

    def __init__(self, ring: Ring, basis):
        self.ring = ring
        self._basis = basis
        slots = range(ring.unit_slot + 1)
        # products of invariant tensors are invariant, and of the degree
        # the basis is sorted by, only if products of generators add degrees
        if violations := ring.degree_violations():
            v = violations[0]
            raise RingSpecError(f"{v.invariant} fails for {'*'.join(v.witness)}: {v.detail}")
        self._odd = ring.odd_flags
        self._mul = [[tuple(ring.gen_product(a, b).items()) for b in slots]
                     for a in slots]
        # the same rows, each odd right slot's terms negated (see _left)
        self._mul_signed = [[tuple((t, -v) for t, v in combo) if self._odd[b] else combo
                             for b, combo in enumerate(row)] for row in self._mul]
        # slot -> the slots it multiplies to nonzero, as a bit mask
        self._partners = [sum(1 << b for b, combo in enumerate(row) if combo)
                          for row in self._mul]
        # a -> the left class's set-up (see _left)
        self._lefts: dict[int, tuple] = {}
        # prefix -> j -> blocks (b[0], [(b[1:], coeff), ...]), one b per
        # run that agrees on b[:prefix]; at the arity, every b
        self._orbits: dict[int, dict[int, list]] = {}
        # position -> its sorted slots
        self._slots = [idx.sorted_slots(ring) for idx in basis]
        if len(arities := sorted(set(map(len, self._slots)))) > 1:
            raise ValueError(f"index arities differ: {' vs '.join(map(str, arities))}")
        self._arity = max(arities, default=0)
        # rank in sorted-slot order -> position, and sorted slots -> rank
        self._order = sorted(range(len(basis)), key=self._slots.__getitem__)
        self._ranks = {self._slots[k]: r for r, k in enumerate(self._order)}
        # arrangement -> (rank of its class, Koszul sign * the class's pad!)
        self._classes: dict[tuple[int, ...], tuple[int, int]] = {}
        # position -> its slots as a bit mask
        self._rights = [sum(1 << s for s in set(key)) for key in self._slots]

    def __call__(self, a: int, b: int) -> dict[int, int]:
        return self.row(a, [b])[0]

    def row(self, a: int, bs) -> list[dict[int, int]]:
        """The products basis[a] * basis[b] for each b in bs, in order."""
        first, rest, den, prefix, orbits, partners = self._lefts.get(a) or self._left(a)
        rights = self._rights
        known = self._classes
        order = self._order
        out = []
        for b in bs:
            if not all(map(rights[b].__and__, partners)):
                # a slot of basis[a] multiplies every slot of basis[b] to 0
                out.append({})
                continue
            blocks = orbits.get(b) or self._orbit(b, prefix)
            acc: dict[int, int] = {}
            for b0, block in blocks:
                head = first[b0]
                if not head:
                    continue
                t0, v0 = head[0]
                for tail, coeff in block:
                    # one term (slots, c) until a slot product has more,
                    # then the list of terms
                    slots, c = (t0,), coeff * v0
                    terms = [((t,), coeff * v) for t, v in head] if len(head) > 1 else None
                    for slot_row, s in zip(rest, tail):
                        combo = slot_row[s]
                        if not combo:
                            break
                        if terms is None and len(combo) == 1:
                            (t, v), = combo
                            slots += (t,)
                            c *= v
                        else:
                            terms = [(pref + (t,), x * v) for pref, x in terms or [(slots, c)]
                                     for t, v in combo]
                    else:
                        for t_slots, x in terms or [(slots, c)]:
                            rank, sign = known.get(t_slots) or self._sort(t_slots, a, b)
                            if sign:
                                acc[rank] = acc.get(rank, 0) + sign * x
            # c_k = acc[k] / pad_i!, pad_k! being in acc[k] already, by rank
            result = {}
            for rank in sorted(acc):
                if not (num := acc[rank]):
                    continue
                c, rem = divmod(num, den)
                if rem:
                    raise TheoremViolationError(
                        f"non-integer structure constant {Fraction(num, den)} in "
                        f"{self._names(a, b)} at {self._basis[order[rank]].label(self.ring)}")
                result[order[rank]] = c
            out.append(result)
        return out

    def _left(self, a: int) -> tuple:
        """basis[a]'s set-up for ``row``, built on its first use."""
        i, slots = self._basis[a], self._slots[a]
        # i's L odd slots come first, so the interchange sign of e_i * b,
        # (-1)^(sum over p < q of |b_p| |e_q|), counts for each odd b_p
        # the L - 1 - p odd slots of e_i after p: it is the parity of the
        # odd b_p at p = L - 2, L - 4, ..., and those positions read the
        # rows that negate odd right slots
        flipped = range(len(i.odd) - 2, -1, -2)
        first, *rest = [(self._mul_signed if p in flipped else self._mul)[s]
                        for p, s in enumerate(slots)]
        # with two units or more, only the slots before them tell the
        # arrangements of j apart (see _orbit)
        prefix = len(slots) - i.pad if i.pad > 1 else len(slots)
        orbits = self._orbits.setdefault(prefix, {})
        partners = tuple({self._partners[s] for s in slots})
        hit = self._lefts[a] = (first, rest, factorial(i.pad), prefix, orbits, partners)
        return hit

    def _names(self, a: int, b: int) -> str:
        return f"{self._basis[a].label(self.ring)} * {self._basis[b].label(self.ring)}"

    def _orbit(self, j: int, prefix: int) -> list[tuple[int, list]]:
        """The terms b of realize(basis[j]), with integer coefficients.  The
        terms come in lex order, so those sharing a first slot b[0] are
        contiguous; they are kept as blocks (b[0], [(b[1:], coeff), ...]).
        The terms that agree on b[:prefix] are contiguous too, and when
        ``prefix`` stops short of the arity, each run of them is kept as
        its first term, its coefficient times the run's length.  The
        positions whose sign a left class's rows carry come before its
        prefix, so the terms of a run share that sign.

        j's arrangements are enumerated on its first miss, into the entry
        for the arity, which keeps them unmerged.  Built on a miss of the
        cache that ``row`` reads."""
        every = self._orbits.setdefault(self._arity, {})
        blocks = every.get(j)
        if blocks is None:
            lead = self._basis[j].leading_multiplier
            blocks = every[j] = []
            for b, sign in signed_arrangements(self.ring, self._slots[j]):
                if not blocks or blocks[-1][0] != b[0]:
                    blocks.append((b[0], []))
                blocks[-1][1].append((b[1:], lead * sign))
        if prefix < self._arity:
            # one term of each run that agrees on b[:prefix], times its length
            cut = max(prefix - 1, 0)
            blocks = self._orbits[prefix][j] = [
                (b0, [(tail, c * (1 + len(others)))
                      for _, ((tail, c), *others)
                      in itertools.groupby(block, key=lambda term: term[0][:cut])])
                for b0, block in blocks]
        return blocks

    def _sort(self, slots: tuple[int, ...], a: int, b: int) -> tuple[int, int]:
        """Rank of the class of ``slots``, a term of basis[a] * basis[b], and
        its Koszul sign times the class's pad!, the sign 0 if an odd slot
        repeats: the parity of the odd slots' inversions, read in one pass.
        Computed on a miss of the cache that ``row`` reads."""
        odd = self._odd
        seen: list[int] = []
        inversions = 0
        for s in slots:
            if odd[s]:
                if s in seen:
                    hit = self._classes[slots] = (0, 0)
                    return hit
                inversions += sum(t > s for t in seen)
                seen.append(s)
        key = tuple(sorted(slots))
        if (rank := self._ranks.get(key)) is None:
            raise InternalInconsistencyError(
                f"{self._names(a, b)} has a term {[self.ring.slot_name(s) for s in key]} "
                "outside the kernel's basis")
        sign = -1 if inversions & 1 else 1
        hit = self._classes[slots] = (rank, sign * factorial(self._basis[self._order[rank]].pad))
        return hit


class StructureTable:
    """Integer multiplication table over the basis, truncated by degree.

    ``rows[a][b]`` is basis[a] * basis[b] for every b with |a| + |b| <=
    the bound, a prefix of the basis, which is sorted by degree.  When the
    ring's generators commute up to the Koszul sign, so does the invariant
    subring (the paper's Theorem 1), and each unordered pair is multiplied
    once: ``rows[a][b]`` (b < a) is ``rows[b][a]`` itself, or its negation
    when |a||b| is odd.  Otherwise both orders are computed.  A result is
    keyed by basis position, as the kernel keys it; ``product(i, j)``
    reads one by basis index.  Generator products that do not add degrees
    raise ``RingSpecError``, from the kernel's constructor.
    """

    def __init__(self, ring: Ring, n: int, max_degree: int):
        if max_degree < 0:
            raise ValueError(f"need max_degree >= 0, got max_degree={max_degree}")
        self.ring = ring
        self.n = n
        self.max_degree = max_degree
        self.basis = basis = [idx for idx in enumerate_basis(ring, n)
                              if idx.degree(ring) <= max_degree]
        product = IndexProduct(ring, basis)
        mirror = not ring.commutativity_violations()
        degrees = [idx.degree(ring) for idx in basis]
        self.rows = rows = []
        for a, di in enumerate(degrees):
            stop = bisect_right(degrees, max_degree - di)
            start = min(a, stop) if mirror else 0
            # the mirrored half from the earlier rows, then one kernel row
            rows.append([rows[b][a] if di * degrees[b] % 2 == 0
                         else {k: -c for k, c in rows[b][a].items()}
                         for b in range(start)]
                        + product.row(a, range(start, stop)))

    @cached_property
    def _positions(self) -> dict[BasisIndex, int]:
        return {idx: a for a, idx in enumerate(self.basis)}

    def product(self, i: BasisIndex, j: BasisIndex) -> dict[BasisIndex, int]:
        """i * j for basis indices i and j, keyed by basis index in the
        kernel's order."""
        basis, positions = self.basis, self._positions
        return {basis[k]: c for k, c in self.rows[positions[i]][positions[j]].items()}

    def __eq__(self, other):
        if not isinstance(other, StructureTable):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n
                and self.max_degree == other.max_degree
                and self.basis == other.basis
                and self.rows == other.rows)


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
    writer: the document's name, n and max_degree, each basis class's
    label by position, and a function listing an entry's items in written
    order, by label.  A label is a generator's name in the written table,
    so two classes with one label raise ``RingSpecError``; an entry of one
    item is not sorted.
    """
    ring, basis = table.ring, table.basis
    labels = [idx.label(ring) for idx in basis]
    owner: dict[str, int] = {}
    for a, label in enumerate(labels):
        if (first := owner.setdefault(label, a)) != a:
            raise RingSpecError(
                f"basis classes {index_to_dict(ring, basis[first])} and "
                f"{index_to_dict(ring, basis[a])} have the same label {label!r}; "
                "rename a generator")
    head = {"name": f"sym{table.n}_{ring.name or 'ring'}",
            "n": table.n,
            "max_degree": table.max_degree}

    def in_order(entry: dict[int, int]):
        if len(entry) == 1:
            return entry.items()
        return [(k, entry[k]) for k in sorted(entry, key=labels.__getitem__)]

    return head, labels, in_order


def table_to_dict(table: StructureTable) -> dict:
    doc, labels, in_order = table_layout(table)
    ring = table.ring
    doc["generators"] = [
        {"name": label, "degree": idx.degree(ring), "index": index_to_dict(ring, idx)}
        for label, idx in zip(labels, table.basis)
    ]
    doc["products"] = [
        {"left": left,
         "right": right,
         "result": [{"gen": labels[k], "coeff": c} for k, c in in_order(entry)]}
        for left, row in zip(labels, table.rows)
        for right, entry in zip(labels, row)
    ]
    return doc

"""Signed n-fold tensor powers of a graded ring presentation.

Elementary tensors are length-n tuples of slot ids; slot ids are generator
positions in the presentation, with ``ring.unit_slot`` for a unit entry.
The symmetric group acts on the right with the Koszul sign

    (a_1 (x) ... (x) a_n) sigma
        = (-1)^{sum over p<q with inv(p)>inv(q) of |a_p||a_q|}
          a_{sigma(1)} (x) ... (x) a_{sigma(n)},   inv = sigma^{-1},

and tensors multiply slotwise with the sign (-1)^{sum over i<j |b_i||a_j|},
the unique convention making the product equivariant for this action.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .rings import Element, Ring, add_terms


class ArityError(ValueError):
    pass


class Perm:
    """A permutation of {0, ..., n-1}; images[i] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on 0..{len(self.images) - 1}: {images}")

    def __len__(self):
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition (self * other)(i) = self(other(i))."""
        return Perm(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Perm":
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return Perm(images)

    @staticmethod
    def all(n: int):
        return (Perm(p) for p in itertools.permutations(range(n)))


class TensorElement:
    """Sparse rational combination of elementary tensors over one ring."""

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring: Ring, n: int, terms: dict[tuple[int, ...], Fraction]):
        self.ring = ring
        self.n = n
        self.terms = {k: v for k, v in terms.items() if v}

    # -- construction ----------------------------------------------------

    @staticmethod
    def zero(ring: Ring, n: int) -> "TensorElement":
        return TensorElement(ring, n, {})

    @staticmethod
    def unit(ring: Ring, n: int) -> "TensorElement":
        return TensorElement(ring, n, {(ring.unit_slot,) * n: Fraction(1)})

    # -- ring structure ---------------------------------------------------

    def _require_compatible(self, other: "TensorElement") -> None:
        if self.ring is not other.ring:
            raise ArityError("tensors over different presentations")
        if self.n != other.n:
            raise ArityError(f"tensor arity mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._require_compatible(other)
        return TensorElement(self.ring, self.n,
                             add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TensorElement":
        s = Fraction(scalar)
        return TensorElement(self.ring, self.n,
                             {k: v * s for k, v in self.terms.items()})

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_multiply(self, other)
        return self.__rmul__(other)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.ring is other.ring and self.n == other.n
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def degree(self) -> int | None:
        degs = {sum(self.ring.slot_degree(s) for s in key) for key in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_symmetric(self) -> bool:
        """Fixed by every adjacent transposition (hence by all of S_n)."""
        return all(act(Perm.transposition(self.n, i, i + 1), self) == self
                   for i in range(self.n - 1))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            word = "(x)".join(self.ring.slot_name(s) for s in key)
            bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*{word}")
        return "".join(bits)


def elementary(ring: Ring, names, coeff=1) -> TensorElement:
    """Elementary tensor from generator names; None or "1" marks a unit slot."""
    slots = tuple(
        ring.unit_slot if name in (None, "1") else ring.position[name]
        for name in names)
    return TensorElement(ring, len(slots), {slots: Fraction(coeff)})


def act(sigma: Perm, t: TensorElement) -> TensorElement:
    """Right action of sigma on t, extended linearly over elementary tensors."""
    if len(sigma) != t.n:
        raise ArityError(f"permutation of {len(sigma)} letters on {t.n} slots")
    ring = t.ring
    inv = sigma.inverse().images
    out: dict[tuple[int, ...], Fraction] = {}
    for slots, coeff in t.terms.items():
        odd = [p for p in range(t.n) if ring.slot_degree(slots[p]) % 2]
        flips = sum(1 for a in range(len(odd)) for b in range(a + 1, len(odd))
                    if inv[odd[a]] > inv[odd[b]])
        new_slots = tuple(slots[sigma(i)] for i in range(t.n))
        add_terms(out, [(new_slots, -1 if flips % 2 else 1)], coeff)
    return TensorElement(ring, t.n, out)


def tensor_multiply(s: TensorElement, t: TensorElement) -> TensorElement:
    """Slotwise product with the Koszul interchange sign."""
    s._require_compatible(t)
    ring = s.ring
    n = s.n
    out: dict[tuple[int, ...], Fraction] = {}
    for a_slots, a_coeff in s.terms.items():
        a_odd_suffix = _odd_suffix_counts(ring, a_slots)
        for b_slots, b_coeff in t.terms.items():
            # sign exponent: sum over i<j of |b_i| |a_j|, odd degrees only
            flips = sum(a_odd_suffix[i + 1] for i in range(n)
                        if ring.slot_degree(b_slots[i]) % 2)
            base = a_coeff * b_coeff * (-1 if flips % 2 else 1)
            # expand the slotwise products of generators
            partial: list[tuple[tuple[int, ...], int]] = [((), 1)]
            for i in range(n):
                combo = ring.gen_product(a_slots[i], b_slots[i])
                if not combo:
                    partial = []
                    break
                partial = [(pref + (k,), c * v)
                           for pref, c in partial for k, v in combo.items()]
            add_terms(out, partial, base)
    return TensorElement(ring, n, out)


def _odd_suffix_counts(ring: Ring, slots: tuple[int, ...]) -> list[int]:
    """suffix[i] = number of odd-degree slots at positions >= i."""
    n = len(slots)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (1 if ring.slot_degree(slots[i]) % 2 else 0)
    return suffix


def _koszul_sign(odd: list[int], slots: tuple[int, ...]) -> int:
    """Koszul sign of sorting the slots: only transpositions of two odd
    slots contribute, so it is the inversion parity of the odd entries,
    read off the ring's ``odd_flags``."""
    seen = []
    inv = 0
    for s in slots:
        if odd[s]:
            for t in seen:
                if t > s:
                    inv += 1
            seen.append(s)
    return -1 if inv & 1 else 1


def sorted_slots_with_sign(ring: Ring, slots: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Ascending sort of the slots and the Koszul sign of getting there."""
    return tuple(sorted(slots)), _koszul_sign(ring.odd_flags, slots)


def signed_arrangements(ring: Ring, sorted_slots: tuple[int, ...]):
    """All distinct orderings of a slot multiset with their Koszul signs
    relative to the ascending order.  Requires distinct odd entries.

    The orderings come in ascending order, one next-permutation step each,
    so a multiset with k distinct orderings costs k steps, not n!.
    """
    odd = ring.odd_flags
    arr = sorted(sorted_slots)
    while True:
        slots = tuple(arr)
        yield slots, _koszul_sign(odd, slots)
        # the rightmost ascent arr[i] < arr[i + 1]; none left means the
        # ordering is descending, the last one
        i = len(arr) - 2
        while i >= 0 and arr[i] >= arr[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(arr) - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1:] = reversed(arr[i + 1:])


def stabilizer_order(sorted_slots: tuple[int, ...]) -> int:
    """Order of the subgroup permuting equal slots among themselves."""
    order = 1
    run = 1
    for prev, cur in zip(sorted_slots, sorted_slots[1:]):
        run = run + 1 if cur == prev else 1
        if run > 1:
            order *= run
    return order


def has_repeated_odd(ring: Ring, sorted_slots: tuple[int, ...]) -> bool:
    odd = ring.odd_flags
    return any(a == b and odd[a] for a, b in zip(sorted_slots, sorted_slots[1:]))


def symmetrize(t: TensorElement) -> TensorElement:
    """Invariant projection Sym(t) = (1/n!) sum over sigma of act(sigma, t).

    Computed orbit by orbit: terms whose multiset repeats an odd generator
    average to zero, all other orbits contribute each distinct arrangement
    once, weighted by the stabilizer order over n!.
    """
    ring, n = t.ring, t.n
    out: dict[tuple[int, ...], Fraction] = {}
    n_fact = factorial(n)
    for slots, coeff in t.terms.items():
        base, base_sign = sorted_slots_with_sign(ring, slots)
        if has_repeated_odd(ring, base):
            continue
        weight = coeff * base_sign * Fraction(stabilizer_order(base), n_fact)
        add_terms(out, signed_arrangements(ring, base), weight)
    return TensorElement(ring, n, out)


def sym_element(ring: Ring, n: int, factors: list[Element]) -> TensorElement:
    """Unit-padded symmetrization of a list of ring elements.

    For homogeneous factors e_1, ..., e_m (m <= n) this is
    (1/(n-m)!) * sum over sigma of (e_1 (x) ... (x) e_m (x) 1 ... 1) sigma,
    the multilinear span element of the invariant subring.  Factors are
    placed left to right in the given order, which fixes the sign.
    """
    m = len(factors)
    if m > n:
        raise ArityError(f"{m} factors do not fit in {n} slots")
    for e in factors:
        if e.ring is not ring:
            raise ArityError("factor from a different presentation")
    terms: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for e in factors:
        terms = {pref + (slot,): c * v
                 for pref, c in terms.items() for slot, v in e.terms.items()}
    pad = (ring.unit_slot,) * (n - m)
    spread = TensorElement(ring, n, {pref + pad: c for pref, c in terms.items()})
    return Fraction(factorial(n), factorial(n - m)) * symmetrize(spread)

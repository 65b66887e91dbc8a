"""Generators-and-relations model of the symmetric-power cohomology of a
genus-g surface: the free graded-commutative ring on degree-1 variables
x_1..x_g, x'_1..x'_g and a degree-2 variable y, modulo the relation ideal.

A monomial is a pair of index subsets and a y-exponent; its type is
(a, b, c, q) with c the number of paired indices (in both subsets), a and
b the unpaired counts.  The weight a + b + 2c + q drives the rewriting:
the relation attached to a monomial of weight >= n+1 rewrites it into
strictly smaller weight, and monomials of weight <= n ('primitive' when
the weight is >= 1) survive as the canonical basis of the quotient.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import lattice
from .rings import add_terms


class InvalidModeError(ValueError):
    pass


class NonHomogeneousError(ValueError):
    pass


class PolyParseError(ValueError):
    pass


class QuotientInvariantError(RuntimeError):
    """A fact the quotient model rests on failed to hold: a minimal
    generating set of the wrong size, or a relation whose leading
    coefficient is not +-1.  Signals a fault in this module, not bad input."""


@dataclass(frozen=True)
class Monomial:
    """Canonical monomial x_{xs} x'_{xp} y^q with xs, xp sorted index tuples."""
    xs: tuple[int, ...]
    xp: tuple[int, ...]
    q: int

    def __post_init__(self):
        if list(self.xs) != sorted(set(self.xs)) or list(self.xp) != sorted(set(self.xp)):
            raise ValueError("index sets must be strictly increasing")
        if self.q < 0 or (self.xs and self.xs[0] < 1) or (self.xp and self.xp[0] < 1):
            raise ValueError("indices start at 1 and q >= 0")

    @property
    def degree(self) -> int:
        return len(self.xs) + len(self.xp) + 2 * self.q

    @property
    def abcq(self) -> tuple[int, int, int, int]:
        paired = set(self.xs) & set(self.xp)
        return (len(self.xs) - len(paired), len(self.xp) - len(paired),
                len(paired), self.q)

    @property
    def weight(self) -> int:
        # a + b + 2c + q with a = |xs| - c and b = |xp| - c
        return len(self.xs) + len(self.xp) + self.q

    @property
    def sort_key(self):
        return (self.degree, self.weight, self.xs, self.xp)

    @property
    def max_index(self) -> int:
        return max(self.xs + self.xp, default=0)

    def word(self) -> str:
        return _word([f"x{i}" for i in self.xs] + [f"x'{i}" for i in self.xp], self.q)


def _word(parts: list[str], q: int) -> str:
    # the written exterior variables `parts`, in order, then y^q
    if q == 1:
        parts.append("y")
    elif q > 1:
        parts.append(f"y^{q}")
    return ".".join(parts) if parts else "1"


ONE = Monomial((), (), 0)
Y = Monomial((), (), 1)


def monomial_mul(m1: Monomial, m2: Monomial) -> tuple[Monomial, int] | None:
    """Product with the exterior sign, or None when a variable repeats."""
    g = max(m1.max_index, m2.max_index)
    a, b = _mask(m1, g), _mask(m2, g)
    if a & b:
        return None
    sign = -1 if (b & _below(a)).bit_count() & 1 else 1
    return _monomial(a | b, g, m1.degree + m2.degree), sign


class Polynomial:
    """Sparse integer combination of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def monomial(m: Monomial, coeff: int = 1) -> "Polynomial":
        return Polynomial({m: coeff})

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other):
        return Polynomial(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar: int):
        return Polynomial({m: scalar * c for m, c in self.terms.items()})

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.__rmul__(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = monomial_mul(m1, m2)  # (product, sign) or None
                if hit:
                    add_terms(out, (hit,), c1 * c2)
        return Polynomial(out)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        degs = {m.degree for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def max_index(self) -> int:
        return max((m.max_index for m in self.terms), default=0)

    def __repr__(self):
        return format_poly(self)


def relation_poly(m: Monomial) -> Polynomial:
    """The relation attached to a monomial: keep the unpaired variables,
    replace each paired block x_k x'_k by (y - x_k x'_k), keep y^q.
    Expanded, its unique maximal-weight monomial is m itself, with
    coefficient +-1.

    This is the decoded view of the closed form `_mask_relation_row`: the
    same terms in the same order, the order `format_poly` writes them,
    each mask read back as a monomial of m's degree.  `GeneratorSet.polys`
    (so the surface walkthrough demo) and the tests read it; `verify`,
    `relations`, `normal_form` and `bridge` read the rows.
    """
    g, d = m.max_index, m.degree  # `_mask` keeps the variable order for any g >= the indices
    return Polynomial({_monomial(t, g, d): c
                       for t, c in _mask_relation_row(_mask(m, g), g).items()})


def _mask_relation_row(mask: int, g: int) -> lattice.SparseRow:
    """The relation of the monomial with mask `mask` (see `_mask`) in
    closed form, as a row {mask of t: +-1} over the terms t of its degree:
    one term per subset S of the paired indices P, base * prod_{k in S}
    (-x_k x'_k) * y^(q + |P| - |S|), with base the unpaired variables.

    The blocks have even degree, so their order does not matter; placing
    them, in increasing k, after base is the word that sorts into the term.
    Sorting it costs one inversion per pair (v in base, u in a block) with
    v > u, counted by popcount against `_below` of base, and one per pair
    of blocks (x'_k before x_l).  So the sign is (-1)^(|S| + C(|S|, 2))
    times (-1)^(e_k) for each k in S, with e_k the parity of base's bits
    above x_k and x'_k.

    Terms come in the order `format_poly` writes them, so a writer reads
    the row as it is: fewer blocks first (each block adds 2 to the
    popcount), then the subsets S of one size in lex order, which is the
    lex order of their terms' xs.
    """
    paired = mask & mask >> g  # bit k-1 for each paired index k
    if not paired:
        return {mask: 1}
    base = mask ^ (paired | paired << g)
    below = _below(base)
    # each block with a bit above the layout for an odd e_k: a sum of
    # blocks is their union plus, above 2g, the number of odd ones
    top = 2 * g
    blocks = []
    while paired:
        low = paired & -paired
        paired ^= low
        block = low | low << g
        blocks.append(block | ((below & block).bit_count() & 1) << top)
    row = {}
    for size in range(len(blocks) + 1):
        flip = size * (size + 1) // 2
        for v in map(sum, itertools.combinations(blocks, size)):
            row[base | v & ~(-1 << top)] = -1 if (flip + (v >> top)) & 1 else 1
    return row


def _subset_pairs(items, e: int) -> list[tuple[tuple, tuple]]:
    # the pairs (xs, xp) of increasing tuples of items with |xs| + |xp| = e,
    # sorted; items increase, so indices 1..g and their bits 1, 2, .., 2^(g-1)
    # give the pairs in the same order
    g = len(items)
    return sorted((xs, xp) for a in range(max(0, e - g), min(g, e) + 1)
                  for xs in itertools.combinations(items, a)
                  for xp in itertools.combinations(items, e - a))


def _monomials(g: int, s: int, counts) -> list[Monomial]:
    # the degree-s monomials in the variables of index <= g with e exterior
    # variables, for each e in counts (increasing, of the parity of s), in
    # `Monomial.sort_key` order: within degree s the weight is (s + e) / 2,
    # so that order is (e, xs, xp)
    return [Monomial(xs, xp, (s - e) // 2)
            for e in counts for xs, xp in _subset_pairs(range(1, g + 1), e)]


def _mask_pairs(g: int, s: int, counts) -> list[tuple[int, int]]:
    # (s, `_mask(m, g)`) per monomial m of `_monomials(g, s, counts)`, in
    # that order, with no monomial built
    bits = [1 << i for i in range(g)]
    return [(s, sum(xs) | sum(xp) << g) for e in counts for xs, xp in _subset_pairs(bits, e)]


def monomials_of_degree(g: int, s: int) -> list[Monomial]:
    """Every monomial of degree s in the variables of index <= g, in
    `Monomial.sort_key` order: the index-set pairs with |xs| + |xp| = e of
    the parity of s, each with q = (s - e) / 2."""
    return _monomials(g, s, range(s % 2, s + 1, 2))


class GeneratorSet:
    """Generators of an ideal, as `ideal_generators` builds them: the
    relations of the monomials named by (degree, `_mask(m, g)`) pairs.
    `verify`, `relations` and `bridge` read only the pairs and `rows()`,
    the closed-form rows; `monomials` and `polys` are decoded views, built
    when read (the surface walkthrough demo and the tests)."""

    def __init__(self, mode: str, g: int, pairs: list[tuple[int, int]]):
        self.mode = mode
        self.g = g
        self.pairs = pairs
        self._rows: list[tuple[int, lattice.SparseRow]] | None = None

    @cached_property
    def monomials(self) -> list[Monomial]:
        return [_monomial(mask, self.g, d) for d, mask in self.pairs]

    @cached_property
    def polys(self) -> list[Polynomial]:
        return [relation_poly(m) for m in self.monomials]

    def rows(self) -> list[tuple[int, lattice.SparseRow]]:
        """(degree, row) per generator, the row keyed by `_mask(t, g)` over
        the terms t."""
        if self._rows is None:
            self._rows = [(d, _mask_relation_row(mask, self.g)) for d, mask in self.pairs]
        return self._rows


# the generating-set modes `ideal_generators` accepts, in the order the
# CLI lists them
MODES = ("full", "stable", "minimal_odd", "minimal_even")


def ideal_generators(g: int, n: int, mode: str) -> GeneratorSet:
    """Generating sets of the relation ideal.

    full: one relation per monomial of weight n+1.
    stable (n >= 2g-1): the single relation with minimal y-exponent.
    minimal_odd / minimal_even (2 <= n <= 2g-2, n of that parity): the
    C(2g, n+1) relations of degree n+1, plus for even n the one extra
    relation y * prod_{k<=n/2} (y - x_k x'_k).  The degree-(n+1) ones are
    the weight-(n+1) monomials with q = 0, and only those are enumerated.

    The monomials are enumerated as (degree, `_mask(m, g)`) pairs, in
    `Monomial.sort_key` order, and none is built as a `Monomial`.
    """
    if g < 1 or n < 2:
        raise InvalidModeError(f"need g >= 1 and n >= 2, got g={g}, n={n}")
    if mode == "full":
        w = n + 1
        pairs = [p for e in range(w, -1, -1) for p in _mask_pairs(g, 2 * w - e, (e,))]
    elif mode == "stable":
        if n < 2 * g - 1:
            raise InvalidModeError(f"stable mode needs n >= 2g-1, got g={g}, n={n}")
        pairs = [(2 * (n - g + 1), ~(-1 << 2 * g))]  # every variable, y^(n - 2g + 1)
    elif mode in ("minimal_odd", "minimal_even"):
        want_odd = mode == "minimal_odd"
        if not (2 <= n <= 2 * g - 2):
            raise InvalidModeError(f"minimal modes need 2 <= n <= 2g-2, got g={g}, n={n}")
        if (n % 2 == 1) != want_odd:
            raise InvalidModeError(f"{mode} needs n of matching parity, got n={n}")
        pairs = _mask_pairs(g, n + 1, (n + 1,))
        if len(pairs) != comb(2 * g, n + 1):
            raise QuotientInvariantError(
                f"{len(pairs)} degree-{n + 1} relations for g={g}, n={n}, "
                f"expected C({2 * g}, {n + 1}) = {comb(2 * g, n + 1)}")
        if not want_odd:
            half = ~(-1 << n // 2)  # x_k x'_k y for k <= n/2
            pairs.append((n + 2, half | half << g))
    else:
        raise InvalidModeError(f"unknown mode {mode!r}")
    return GeneratorSet(mode, g, pairs)


def normal_form(f: Polynomial, g: int, n: int) -> Polynomial:
    """Canonical representative of f modulo the relation ideal.

    Rewrites the monomials of weight >= n+1 one weight at a time, from
    the largest down, visiting only the weights some term has (y^(10^12)
    takes one step).  A monomial's relation replaces it by terms of
    strictly smaller weight, since each block the relation swaps for y
    lowers the weight by 1; one with no paired block is its own relation
    and cancels.  So rewriting one weight-w monomial never touches another
    of weight w, and after weight n+1 only weight <= n monomials are left.

    The work reads the closed form `_mask_relation_row`, never a decoded
    relation: terms are masks (see `_mask`) laid out for the largest index
    f uses, so the cost does not grow with g.  f has one degree d, within
    which a mask fixes the y-exponent and the weight is (d + popcount) / 2.
    Only the result is decoded into monomials.
    """
    if g < 0:
        raise ValueError(f"need g >= 0, got g={g}")
    layout = f.max_index()
    if layout > g:
        raise ValueError(f"variable index exceeds g={g}")
    d = f.degree()
    if not f.is_zero() and d is None:
        raise NonHomogeneousError("reduce homogeneous components separately")
    if n < 2:
        raise ValueError("need n >= 2")
    work = {_mask(m, layout): c for m, c in f.terms.items()}
    # weight (d + e) / 2 > n for the terms with e > 2n - d set bits
    while work and (e := max(map(int.bit_count, work))) > 2 * n - d:
        for target in [t for t in work if t.bit_count() == e]:
            row = _mask_relation_row(target, layout)
            eps = row.get(target, 0)
            if eps not in (1, -1):
                raise QuotientInvariantError(
                    f"relation of {_monomial(target, layout, d).word()} has "
                    f"leading coefficient {eps}, not +-1")
            # the relation's target term is eps * target and eps * eps == 1,
            # so the target cancels itself
            add_terms(work, row.items(), -work[target] * eps)
    return Polynomial({_monomial(t, layout, d): c for t, c in work.items()})


def multiply_nf(f: Polynomial, h: Polynomial, g: int, n: int) -> Polynomial:
    """Product in the quotient ring: multiply, then reduce."""
    return normal_form(f * h, g, n)


def betti(g: int, n: int, k: int) -> int:
    """Rank of the degree-k part: sum of C(2g, k - 2i) over i >= 0 with
    k - 2i <= 2g, with the reflection B_{2n-k} = B_k for k > n.  g = 0 is
    the sphere (CP^n), n = 0 a point and n = 1 the surface itself."""
    if g < 0:
        raise ValueError(f"need g >= 0, got g={g}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} outside 0..{2 * n}")
    if k > n:
        k = 2 * n - k
    return sum(comb(2 * g, j) for j in range(k % 2, min(k, 2 * g) + 1, 2))


def quotient_basis(g: int, n: int, s: int) -> list[Monomial]:
    """Normal-form support monomials in degree s, in `Monomial.sort_key`
    order: those of weight <= n.  A degree-s monomial with e exterior
    variables has weight (s + e) / 2, so these are the ones with
    e <= min(s, 2n - s): every monomial up to degree n, the primitive ones
    in the middle range, and y^n alone in degree 2n.  Only these are
    built."""
    if not 0 <= s <= 2 * n:
        raise ValueError(f"degree {s} outside 0..{2 * n}")
    return _monomials(g, s, range(s % 2, min(s, 2 * n - s) + 1, 2))


# -- lattice views of the ideal --------------------------------------------

def _mask(m: Monomial, g: int) -> int:
    # bit i-1 for x_i, bit g+j-1 for x'_j: bit order is the global variable
    # order, and within one degree the mask fixes the y-exponent too
    return sum(1 << (i - 1) for i in m.xs) | sum(1 << (g + j - 1) for j in m.xp)


def _indices(bits: int) -> tuple[int, ...]:
    # the set bits of bits, as increasing 1-based indices: one step per
    # set bit, so the cost does not grow with the layout's g
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


def _monomial(mask: int, g: int, d: int) -> Monomial:
    # the degree-d monomial with mask `_mask(m, g)`
    xs, xp = _indices(mask & ~(-1 << g)), _indices(mask >> g)
    return Monomial(xs, xp, (d - len(xs) - len(xp)) // 2)


def _below(mask: int) -> int:
    # XOR over the set bits u of mask of the bits below u; the parity of
    # popcount(t & _below(mask)) is the parity of the pairs (u in mask,
    # v in t) with u > v, the exterior sign of mask * t
    out = 0
    while mask:
        low = mask & -mask
        out ^= low - 1
        mask ^= low
    return out


def ideal_degree_rows(gens: GeneratorSet, s: int) -> list[list[int]]:
    """Spanning rows of the degree-s piece of the ideal: every product of a
    generator by a monomial of the complementary degree, in generator order
    then multiplier order, columns in `monomials_of_degree(gens.g, s)` order.

    Monomials are integer masks (see `_mask`), enumerated by `_mask_pairs`
    with none built: a product is zero when the masks overlap, and its sign
    is one popcount against `_below` of the multiplier.  A generator's
    distinct terms stay distinct after the multiplication, so each one is
    written straight into its column.
    """
    g = gens.g
    pos = {mask: i for i, (_, mask) in enumerate(_mask_pairs(g, s, range(s % 2, s + 1, 2)))}
    multipliers: dict[int, list[tuple[int, int]]] = {}
    rows = []
    for d, gen_row in gens.rows():
        if d > s:
            continue
        e = s - d
        if e not in multipliers:
            multipliers[e] = [(mask, _below(mask))
                              for _, mask in _mask_pairs(g, e, range(e % 2, e + 1, 2))]
        for mask, below in multipliers[e]:
            row = None
            for t, c in gen_row.items():
                if mask & t:
                    continue
                if row is None:
                    row = [0] * len(pos)
                row[pos[mask | t]] = -c if (t & below).bit_count() & 1 else c
            if row is not None:
                rows.append(row)
    return rows


def ideal_bases(gens: GeneratorSet, top: int) -> list[list[lattice.SparseRow]]:
    """Hermite bases B_0..B_top of the ideal's degree pieces, as sparse
    `lattice.hermite_rows` rows keyed by monomial mask (see `_mask`), so
    columns come in mask order.  B_s spans the same lattice as
    `ideal_degree_rows(gens, s)`, whose columns are positions in
    `monomials_of_degree(gens.g, s)` instead.  Both read the generators' rows
    `gens.rows()`, never their polynomials.

    Every monomial of positive degree is +-v times a monomial, for v one of
    the 2g degree-1 variables, or y times one.  So the degree-s piece is
    spanned by v * B_{s-1} over all v, y * B_{s-2}, and the generators of
    degree s, and each degree is built from the two below it.  With
    monomials as masks (see `_mask`), v is one bit: v * t is zero when t
    holds the bit, and otherwise has sign -1 when an odd number of t's bits
    lie below it.  y keeps the mask, so y * B_{s-2} is B_{s-2} itself.
    """
    by_degree: dict[int, list[lattice.SparseRow]] = {}
    for d, row in gens.rows():
        if d <= top:
            by_degree.setdefault(d, []).append(row)
    bases: list[list[lattice.SparseRow]] = []
    for s in range(top + 1):
        bases.append(_degree_basis(gens.g, s, bases, by_degree.get(s, ())))
    return bases


def _degree_basis(g: int, s: int, bases: list[list[lattice.SparseRow]],
                  generators) -> list[lattice.SparseRow]:
    # one step of `ideal_bases`: B_s from B_{s-1} and B_{s-2}, the last two
    # of bases = [B_0, ..., B_{s-1}], and the rows of the degree-s generators
    rows = []
    if s >= 1:
        bits = [1 << i for i in range(2 * g)]
        for b in bases[s - 1]:
            for bit in bits:
                below = bit - 1
                row = {t | bit: -c if (t & below).bit_count() & 1 else c
                       for t, c in b.items() if not t & bit}
                if row:
                    rows.append(row)
    if s >= 2:
        # `hermite_rows` copies its input, so B_{s-2} is left as it is
        rows += bases[s - 2]
    rows += generators
    return lattice.hermite_rows(rows)


def ideals_equal_by_degree(a: GeneratorSet, b: GeneratorSet,
                           max_degree: int) -> list[tuple[int, bool]]:
    # Hermite bases are canonical: equal bases, equal lattices; masks laid
    # out for two different g name different monomials
    if a.g != b.g:
        raise ValueError(f"generators laid out for g={a.g} and g={b.g}")
    pairs = zip(ideal_bases(a, max_degree), ideal_bases(b, max_degree))
    return [(s, basis_a == basis_b) for s, (basis_a, basis_b) in enumerate(pairs)]


@dataclass
class MinimalityReport:
    g: int
    n: int
    case: str
    rank_q0: int | None = None
    expected_rank: int | None = None
    extra_relation_outside: bool | None = None
    degrees_equal: list[tuple[int, bool]] | None = None

    @property
    def ok(self) -> bool:
        checks = []
        if self.rank_q0 is not None:
            checks.append(self.rank_q0 == self.expected_rank)
        if self.extra_relation_outside is not None:
            checks.append(self.extra_relation_outside)
        if self.degrees_equal is not None:
            checks.append(all(flag for _, flag in self.degrees_equal))
        return bool(checks) and all(checks)


def _degrees_equal(small: GeneratorSet, full: GeneratorSet,
                   bases: list[list[lattice.SparseRow]]) -> list[tuple[int, bool]]:
    """`ideals_equal_by_degree(small, full, top)`, given small's Hermite
    bases B_0..B_top: one-sided when small is a subset of full, two-sided
    otherwise or when a full generator is left nonzero (see
    `verify_minimality`).  Generators are keyed by their (degree, mask)
    pairs and compared as their (degree, row) pairs, and within one degree
    a row names one polynomial."""
    top = len(bases) - 1
    small_rows, full_rows = small.rows(), full.rows()
    theirs = dict(zip(full.pairs, full_rows))
    mine = dict(zip(small.pairs, small_rows))
    if all(theirs.get(k) == gen for k, gen in zip(small.pairs, small_rows)):
        by_degree: dict[int, list[lattice.SparseRow]] = {}
        for k, (d, row) in zip(full.pairs, full_rows):
            if mine.get(k) != (d, row) and d <= top:
                by_degree.setdefault(d, []).append(row)
        if all(lattice.all_in_lattice(rows, bases[d]) for d, rows in by_degree.items()):
            return [(s, True) for s in range(top + 1)]
    return ideals_equal_by_degree(small, full, top)


def verify_minimality(g: int, n: int) -> MinimalityReport:
    """Certify the minimal generating set of the relation ideal.

    In the range 2 <= n <= 2g-2: the degree-(n+1) relations are linearly
    independent of the expected rank, the extra even-case relation lies
    outside the ideal they generate, and the minimal set spans the same
    ideal as the full set in every degree up to 2n.  For n >= 2g-1 the
    single stable relation is checked against the full set instead.

    One propagation serves every check: the Hermite bases B_0..B_2n of the
    minimal (or stable) set.  Each of its relations is the full set's
    relation of the same weight-(n+1) monomial, so its ideal lies inside
    the full one, and equality up to degree 2n holds exactly when every
    full generator of degree d <= 2n reduces to zero against B_d, with one
    pivot map per degree; the per-degree flags are then all True.  The subset
    is checked on the monomials and their relations; when it fails, or a
    full generator is left nonzero, the flags come from the two-sided
    `ideals_equal_by_degree`.  The q0 relations (the ones with no y) are
    the minimal set's generators of degree n+1, and it has none below, so
    q0's rank is |B_{n+1}|, and for even n q0's basis in degree n+2 is one
    propagation step from B_{n+1} and B_n with no generator added.  The
    extra relation is the set's one generator of degree n+2, so B_{n+2} is
    that step with it added; Hermite bases are canonical, so the two differ
    exactly when the extra relation lies outside q0's lattice.  A set
    without it has the two equal and fails.
    """
    full = ideal_generators(g, n, "full")  # rejects g < 1 and n < 2
    stable = n >= 2 * g - 1
    mode = "stable" if stable else "minimal_odd" if n % 2 else "minimal_even"
    small = ideal_generators(g, n, mode)
    bases = ideal_bases(small, 2 * n)
    report = MinimalityReport(
        g, n, mode,
        rank_q0=None if stable else len(bases[n + 1]),
        expected_rank=None if stable else comb(2 * g, n + 1),
        degrees_equal=_degrees_equal(small, full, bases))
    if mode == "minimal_even":
        report.extra_relation_outside = (
            bases[n + 2] != _degree_basis(g, n + 2, bases[:n + 2], ()))
    return report


# -- text format -------------------------------------------------------------
#
# Terms look like +3*x1.x'2.y^4 with variables dot-separated; the sign of a
# written word is computed from the written variable order, and repeated
# exterior variables are rejected.

_VAR_RE = re.compile(r"^(?:x(?P<prime>')?(?P<idx>\d+)|y(?:\^(?P<exp>\d+))?|(?P<one>1))$")


def parse_poly(text: str, g: int | None = None) -> Polynomial:
    s = text.replace(" ", "")
    if not s:
        raise PolyParseError("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"[+-][^+-]+", s)
    if "".join(pieces) != s:
        raise PolyParseError(f"cannot tokenize {text!r}")
    terms: dict[Monomial, int] = {}
    for piece in pieces:
        sign = 1 if piece[0] == "+" else -1
        body = piece[1:]
        if "*" in body:
            coeff_str, word = body.split("*", 1)
            if not coeff_str.isdigit():
                raise PolyParseError(f"bad coefficient in {piece!r}")
            coeff = int(coeff_str)
        elif body.isdigit():
            coeff, word = int(body), "1"
        else:
            coeff, word = 1, body
        mono, word_sign = _parse_word(word, g, piece)
        add_terms(terms, ((mono, word_sign),), coeff * sign)
    return Polynomial(terms)


def _parse_word(word: str, g: int | None, context: str) -> tuple[Monomial, int]:
    if word == "1":
        return ONE, 1
    seen_x: set[int] = set()
    seen_xp: set[int] = set()
    written: list[tuple[int, int]] = []
    q = 0
    for token in word.split("."):
        m = _VAR_RE.match(token)
        if not m:
            raise PolyParseError(f"bad variable {token!r} in term {context!r}")
        if m.group("one"):
            raise PolyParseError(f"'1' cannot appear inside a word: {context!r}")
        if m.group("idx") is not None:
            i = int(m.group("idx"))
            if i < 1 or (g is not None and i > g):
                raise PolyParseError(f"index {i} out of range in {context!r}")
            bucket = seen_xp if m.group("prime") else seen_x
            if i in bucket:
                raise PolyParseError(f"repeated exterior variable in {context!r}")
            bucket.add(i)
            written.append((1 if m.group("prime") else 0, i))
        else:
            q += int(m.group("exp") or 1)
    inversions = sum(1 for a in range(len(written)) for b in range(a + 1, len(written))
                     if written[a] > written[b])
    mono = Monomial(tuple(sorted(seen_x)), tuple(sorted(seen_xp)), q)
    return mono, (-1 if inversions % 2 else 1)


def _join(terms) -> str:
    # the terms (word, c), in the order given, each as +-|c|*word
    return "".join([f"{'+' if c > 0 else '-'}{abs(c)}*{word}" for word, c in terms]) or "0"


def format_poly(p: Polynomial) -> str:
    return _join([(m.word(), c) for m, c in sorted(p.terms.items(),
                                                   key=lambda term: term[0].sort_key)])


def _relation_texts(gens: GeneratorSet) -> list[tuple[str, str]]:
    """(word of the monomial, `format_poly` of its relation) per generator
    of a set `ideal_generators` built, written from the masks: a word from
    a mask's bits through a table of the 2g variable tokens, and each
    relation's terms in the order of its closed-form row, which is the
    written order.  No index tuple is decoded and nothing is sorted."""
    g = gens.g
    tokens = {1 << i: f"x{i + 1}" for i in range(g)}
    tokens.update({1 << g + i: f"x'{i + 1}" for i in range(g)})

    def word(t: int, d: int) -> str:
        parts = []
        while t:
            low = t & -t
            parts.append(tokens[low])
            t ^= low
        return _word(parts, (d - len(parts)) // 2)

    return [(word(mask, d), _join([(word(t, d), c) for t, c in row.items()]))
            for (d, mask), (_, row) in zip(gens.pairs, gens.rows())]

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
from math import comb

from . import lattice


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
        a, b, c, q = self.abcq
        return a + b + 2 * c + q

    @property
    def sort_key(self):
        return (self.degree, self.weight, self.xs, self.xp)

    @property
    def max_index(self) -> int:
        return max(self.xs + self.xp, default=0)

    def word(self) -> str:
        parts = [f"x{i}" for i in self.xs] + [f"x'{i}" for i in self.xp]
        if self.q == 1:
            parts.append("y")
        elif self.q > 1:
            parts.append(f"y^{self.q}")
        return ".".join(parts) if parts else "1"


ONE = Monomial((), (), 0)
Y = Monomial((), (), 1)


def _ranks(m: Monomial):
    # global variable order: unprimed by index, then primed by index
    return [(0, i) for i in m.xs] + [(1, i) for i in m.xp]


def monomial_mul(m1: Monomial, m2: Monomial) -> tuple[Monomial, int] | None:
    """Product with the exterior sign, or None when a variable repeats."""
    if set(m1.xs) & set(m2.xs) or set(m1.xp) & set(m2.xp):
        return None
    w1, w2 = _ranks(m1), _ranks(m2)
    inversions = sum(1 for u in w1 for v in w2 if u > v)
    prod = Monomial(tuple(sorted(m1.xs + m2.xs)),
                    tuple(sorted(m1.xp + m2.xp)), m1.q + m2.q)
    return prod, (-1 if inversions % 2 else 1)


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
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m, 0) + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Polynomial(terms)

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
                hit = monomial_mul(m1, m2)
                if hit is None:
                    continue
                m, sign = hit
                v = out.get(m, 0) + sign * c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
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
    coefficient +-1."""
    paired = sorted(set(m.xs) & set(m.xp))
    base = Monomial(tuple(i for i in m.xs if i not in paired),
                    tuple(j for j in m.xp if j not in paired), m.q)
    poly = Polynomial.monomial(base)
    for k in paired:
        bracket = Polynomial({Y: 1, Monomial((k,), (k,), 0): -1})
        poly = poly * bracket
    return poly


def monomials_of_weight(g: int, w: int) -> list[Monomial]:
    out = []
    indices = range(1, g + 1)
    for xs_size in range(g + 1):
        for xs in itertools.combinations(indices, xs_size):
            for xp_size in range(g + 1):
                for xp in itertools.combinations(indices, xp_size):
                    m0 = Monomial(xs, xp, 0)
                    q = w - m0.weight
                    if q >= 0:
                        out.append(Monomial(xs, xp, q))
    out.sort(key=lambda m: m.sort_key)
    return out


def monomials_of_degree(g: int, s: int) -> list[Monomial]:
    out = []
    indices = range(1, g + 1)
    for xs_size in range(min(g, s) + 1):
        for xs in itertools.combinations(indices, xs_size):
            rest = s - xs_size
            for xp_size in range(min(g, rest) + 1):
                if (rest - xp_size) % 2:
                    continue
                for xp in itertools.combinations(indices, xp_size):
                    out.append(Monomial(xs, xp, (rest - xp_size) // 2))
    out.sort(key=lambda m: m.sort_key)
    return out


@dataclass
class GeneratorSet:
    mode: str
    monomials: list[Monomial]
    polys: list[Polynomial]


def ideal_generators(g: int, n: int, mode: str) -> GeneratorSet:
    """Generating sets of the relation ideal.

    full: one relation per monomial of weight n+1.
    stable (n >= 2g-1): the single relation with minimal y-exponent.
    minimal_odd / minimal_even (2 <= n <= 2g-2, n of that parity): the
    C(2g, n+1) relations of degree n+1, plus for even n the one extra
    relation y * prod_{k<=n/2} (y - x_k x'_k).
    """
    if g < 1 or n < 2:
        raise InvalidModeError(f"need g >= 1 and n >= 2, got g={g}, n={n}")
    if mode == "full":
        monomials = monomials_of_weight(g, n + 1)
    elif mode == "stable":
        if n < 2 * g - 1:
            raise InvalidModeError(f"stable mode needs n >= 2g-1, got g={g}, n={n}")
        everything = tuple(range(1, g + 1))
        monomials = [Monomial(everything, everything, n - 2 * g + 1)]
    elif mode in ("minimal_odd", "minimal_even"):
        want_odd = mode == "minimal_odd"
        if not (2 <= n <= 2 * g - 2):
            raise InvalidModeError(f"minimal modes need 2 <= n <= 2g-2, got g={g}, n={n}")
        if (n % 2 == 1) != want_odd:
            raise InvalidModeError(f"{mode} needs n of matching parity, got n={n}")
        monomials = [m for m in monomials_of_weight(g, n + 1) if m.q == 0]
        if len(monomials) != comb(2 * g, n + 1):
            raise QuotientInvariantError(
                f"{len(monomials)} degree-{n + 1} relations for g={g}, n={n}, "
                f"expected C({2 * g}, {n + 1}) = {comb(2 * g, n + 1)}")
        if not want_odd:
            half = tuple(range(1, n // 2 + 1))
            monomials = monomials + [Monomial(half, half, 1)]
    else:
        raise InvalidModeError(f"unknown mode {mode!r}")
    return GeneratorSet(mode, monomials, [relation_poly(m) for m in monomials])


def normal_form(f: Polynomial, g: int, n: int) -> Polynomial:
    """Canonical representative of f modulo the relation ideal.

    Rewrites the maximal-weight monomial of weight >= n+1 first (ties by
    the monomial order): with no paired block it is itself a relation and
    drops; otherwise its relation replaces it by strictly smaller weight.
    Terminates by weight descent, leaving only weight <= n monomials.
    """
    if f.max_index() > g:
        raise ValueError(f"variable index exceeds g={g}")
    if not f.is_zero() and f.degree() is None:
        raise NonHomogeneousError("reduce homogeneous components separately")
    if n < 2:
        raise ValueError("need n >= 2")
    work = dict(f.terms)
    while True:
        target = None
        for m in work:
            if m.weight >= n + 1:
                if target is None or (m.weight, ) + m.sort_key > (target.weight, ) + target.sort_key:
                    target = m
        if target is None:
            break
        coeff = work.pop(target)
        if target.abcq[2] == 0:
            continue
        rel = relation_poly(target)
        eps = rel.terms.get(target, 0)
        if eps not in (1, -1):
            raise QuotientInvariantError(
                f"relation of {target.word()} has leading coefficient {eps}, not +-1")
        for m, c in rel.terms.items():
            if m == target:
                continue
            v = work.get(m, 0) - coeff * eps * c
            if v:
                work[m] = v
            else:
                work.pop(m, None)
    return Polynomial(work)


def multiply_nf(f: Polynomial, h: Polynomial, g: int, n: int) -> Polynomial:
    """Product in the quotient ring: multiply, then reduce."""
    return normal_form(f * h, g, n)


def betti(g: int, n: int, k: int) -> int:
    """Rank of the degree-k part: sum of C(2g, k - 2i) for i >= 0, with the
    reflection B_{2n-k} = B_k for k > n."""
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} outside 0..{2 * n}")
    if k > n:
        k = 2 * n - k
    return sum(comb(2 * g, k - 2 * i) for i in range(k // 2 + 1))


def quotient_basis(g: int, n: int, s: int) -> list[Monomial]:
    """Normal-form support monomials in degree s: everything up to degree
    n, the primitive monomials (weight <= n) in the middle range, the pure
    top power of y in degree 2n."""
    if not 0 <= s <= 2 * n:
        raise ValueError(f"degree {s} outside 0..{2 * n}")
    monomials = monomials_of_degree(g, s)
    if s <= n:
        return monomials
    if s == 2 * n:
        return [m for m in monomials if m == Monomial((), (), n)]
    return [m for m in monomials if m.weight <= n]


# -- lattice views of the ideal --------------------------------------------

def poly_vector(p: Polynomial, basis: list[Monomial]) -> list[int]:
    pos = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in p.terms.items():
        vec[pos[m]] = c
    return vec


def ideal_degree_rows(gens: GeneratorSet, g: int, s: int) -> list[list[int]]:
    """Spanning rows of the degree-s piece of the ideal: every product of a
    generator by a monomial of the complementary degree."""
    basis = monomials_of_degree(g, s)
    rows = []
    for poly in gens.polys:
        d = poly.degree()
        if d is None or d > s:
            continue
        for m in monomials_of_degree(g, s - d):
            product = Polynomial.monomial(m) * poly
            if not product.is_zero():
                rows.append(poly_vector(product, basis))
    return rows


def relation_lattice_smith(g: int, n: int, s: int) -> list[int]:
    """Smith invariants of the degree-s piece of the full relation ideal."""
    rows = ideal_degree_rows(ideal_generators(g, n, "full"), g, s)
    if not rows:
        return []
    return lattice.smith(rows)


def ideal_fills_degree(g: int, n: int, s: int) -> bool:
    """Does the full relation ideal contain every degree-s element?"""
    dim = len(monomials_of_degree(g, s))
    rows = ideal_degree_rows(ideal_generators(g, n, "full"), g, s)
    return lattice.is_full_unit_lattice(rows, dim)


def ideals_equal_by_degree(a: GeneratorSet, b: GeneratorSet, g: int,
                           max_degree: int) -> list[tuple[int, bool]]:
    out = []
    for s in range(max_degree + 1):
        rows_a = ideal_degree_rows(a, g, s)
        rows_b = ideal_degree_rows(b, g, s)
        out.append((s, lattice.lattice_equal(rows_a, rows_b)))
    return out


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


def verify_minimality(g: int, n: int) -> MinimalityReport:
    """Certify the minimal generating set of the relation ideal.

    In the range 2 <= n <= 2g-2: the degree-(n+1) relations are linearly
    independent of the expected rank, the extra even-case relation lies
    outside the ideal they generate, and the minimal set spans the same
    ideal as the full set in every degree up to 2n.  For n >= 2g-1 the
    single stable relation is checked against the full set instead.
    """
    if g < 1 or n < 2:
        raise ValueError(f"need g >= 1 and n >= 2, got g={g}, n={n}")
    full = ideal_generators(g, n, "full")
    if n >= 2 * g - 1:
        stable = ideal_generators(g, n, "stable")
        return MinimalityReport(
            g, n, "stable",
            degrees_equal=ideals_equal_by_degree(stable, full, g, 2 * n))
    mode = "minimal_odd" if n % 2 else "minimal_even"
    minimal = ideal_generators(g, n, mode)
    q0 = GeneratorSet("q0", [m for m in minimal.monomials if m.q == 0],
                      [p for m, p in zip(minimal.monomials, minimal.polys)
                       if m.q == 0])
    basis_n1 = monomials_of_degree(g, n + 1)
    rank = lattice.rank([poly_vector(p, basis_n1) for p in q0.polys])
    report = MinimalityReport(
        g, n, mode,
        rank_q0=rank,
        expected_rank=comb(2 * g, n + 1),
        degrees_equal=ideals_equal_by_degree(minimal, full, g, 2 * n))
    if mode == "minimal_even":
        extra = minimal.polys[-1]
        basis_n2 = monomials_of_degree(g, n + 2)
        inside = lattice.lattice_membership(
            poly_vector(extra, basis_n2), ideal_degree_rows(q0, g, n + 2))
        report.extra_relation_outside = not inside
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
    poly = Polynomial()
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
        poly = poly + Polynomial.monomial(mono, coeff * sign * word_sign)
    return poly


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


def format_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for m in sorted(p.terms, key=lambda m: m.sort_key):
        c = p.terms[m]
        bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*{m.word()}")
    return "".join(bits)

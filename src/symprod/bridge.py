"""Cross-validation of the two models of the surface symmetric power.

The quotient model maps into the tensor model by sending x_i, x'_i to the
spread classes of the degree-1 generators a_i, a_{i+g} and y to that of
the degree-2 generator b.  Expanding the image of each quotient-basis
monomial in the tensor-power basis gives one integer matrix per degree;
the map is an isomorphism of lattices iff every matrix is square and
unimodular.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import lattice
from .fixtures import surface_ring
from .quotient import (
    Monomial,
    Polynomial,
    _indices,
    _mask,
    _mask_pairs,
    _monomial,
    ideal_generators,
    multiply_nf,
    quotient_basis,
)
from .rings import add_terms
from .sympower import BasisIndex, IndexProduct, enumerate_basis
from .tensors import TensorElement, sym_element, tensor_multiply


@dataclass
class DegreeMatrix:
    degree: int
    quotient_rank: int
    tensor_rank: int
    matrix: list[list[int]]
    unimodular: bool
    smith: list[int]


@dataclass
class BridgeReport:
    g: int
    n: int
    mode: str
    degrees: list[DegreeMatrix] = field(default_factory=list)
    relations_vanish: bool | None = None
    max_degree: int = 0

    @property
    def partial(self) -> bool:
        return self.max_degree < 2 * self.n

    @property
    def verdict(self) -> str:
        ok = (all(d.unimodular for d in self.degrees)
              and self.relations_vanish is not False)
        if not ok:
            return "mismatch"
        return "partial" if self.partial else "isomorphism"


class SurfacePowerMap:
    """The generator assignment from the quotient model into the n-th
    tensor power of the genus-g surface ring.

    ``image`` builds the image as a tensor, the reference the tests
    compare against.
    ``row_coordinates`` and ``coordinates`` read basis coordinates from a
    store of images keyed by (mask, q), the mask `quotient._mask(m, g)`.
    A mask's bits in increasing order are the written order and y comes
    last, so an image is its prefix's times one spread class: the prefix
    is (mask, q - 1) when q > 0, else the mask without its highest bit.
    Each image is computed once, and callers must never change a stored
    dict.  The map's basis is the unit at position 0, then the tensor-power
    basis, enumerated once per map and sorted by degree.  The kernel, the
    stored images and the cached kernel products key a class by its
    position there.
    """

    def __init__(self, g: int, n: int):
        self.g = g
        self.n = n
        self.ring = surface_ring(g)
        pos = self.ring.position
        self._basis = basis = [BasisIndex((), (), n)] + enumerate_basis(self.ring, n)
        # the position of the spread class of the generator at mask bit k:
        # x_i at bit i - 1 is chi[a_i], x'_i at bit g + i - 1 is chi[a_{i+g}]
        self._spread = [basis.index(BasisIndex((pos[f"a{k + 1}"],), (), n - 1))
                        for k in range(2 * g)]
        self._eta = basis.index(BasisIndex((), ((pos["b"], 1),), n - 1))
        self._kernel = IndexProduct(self.ring, basis)
        self._products: dict[tuple[int, int], dict[int, int]] = {}
        self._images: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}

    def image(self, p: Polynomial) -> TensorElement:
        """The image of p as a tensor: each monomial's spread classes,
        ``sym_element`` of a_i, a_{i+g} and b, multiplied in the written
        order.  The reference the tests compare against."""
        ring, n = self.ring, self.n
        out = TensorElement.zero(ring, n)
        for m, c in p.terms.items():
            term = TensorElement.unit(ring, n)
            for name in ([f"a{i}" for i in m.xs] + [f"a{j + self.g}" for j in m.xp]
                         + ["b"] * m.q):
                term = tensor_multiply(term, sym_element(ring, n, [ring.gen(name)]))
            out = out + c * term
        return out

    def generator_indices(self, mask: int, q: int) -> list[int]:
        """Basis positions of the spread classes of the generators of the
        monomial (mask, q), in the written order."""
        return [self._spread[i - 1] for i in _indices(mask)] + [self._eta] * q

    def times(self, vec: dict[int, int], gens: list[int]) -> dict[int, int]:
        """Basis coordinates of vec multiplied on the right by the spread
        classes at positions ``gens`` in turn."""
        for gen in gens:
            out: dict[int, int] = {}
            for k, c in vec.items():
                product = self._products.get((k, gen))
                if product is None:
                    product = self._products[(k, gen)] = self._kernel(k, gen)
                add_terms(out, product.items(), c)
            vec = out
        return vec

    def _image(self, mask: int, q: int) -> dict[int, int]:
        # the stored image of the monomial (mask, q), built from its
        # prefix's on a miss; the unit's is stored from the start
        vec = self._images.get((mask, q))
        if vec is None:
            if q:
                prefix, gen = (mask, q - 1), self._eta
            else:
                top = mask.bit_length() - 1
                prefix, gen = (mask ^ 1 << top, 0), self._spread[top]
            vec = self._images[(mask, q)] = self.times(self._image(*prefix), [gen])
        return vec

    def row_coordinates(self, row: lattice.SparseRow, d: int) -> dict[int, int]:
        """Basis coordinates of the image of the degree-d polynomial whose
        row, keyed by `quotient._mask(t, g)` as `GeneratorSet.rows()` keys
        it, is ``row``: a mask's set bits are its exterior generators, and
        q = (d - popcount) / 2.  A monomial m is the row {mask: 1}.  Empty
        iff the image is zero."""
        out: dict[int, int] = {}
        for t, c in row.items():
            if t >> 2 * self.g:
                raise ValueError(f"mask {t:#x} has a bit past x'{self.g}")
            add_terms(out, self._image(t, (d - t.bit_count()) // 2).items(), c)
        return out

    @cached_property
    def _spans(self) -> dict[int, range]:
        """Degree d -> the positions of its classes, which come in the
        order enumerate_basis(..., degree=d) gives them."""
        degrees = [idx.degree(self.ring) for idx in self._basis]
        return {d: range(bisect_left(degrees, d), bisect_right(degrees, d)) for d in set(degrees)}

    def coordinates(self, m: Monomial, degree: int) -> list[int]:
        """Integer coordinates of the image of the degree-``degree``
        monomial m, as a dense row over that degree's tensor-power basis,
        read from the stored image."""
        if m.max_index > self.g:
            raise ValueError(f"variable index {m.max_index} exceeds g={self.g}")
        if m.degree != degree:
            raise ValueError(f"monomial of degree {m.degree} read in degree {degree}")
        span = self._spans.get(degree, range(0))
        vec = [0] * len(span)
        for k, c in self._image(_mask(m, self.g), m.q).items():
            vec[k - span.start] = c
        return vec


@lru_cache(maxsize=1)
def surface_power_map(g: int, n: int) -> SurfacePowerMap:
    """The map of a run: every degree, the relation check and the spot
    check at (g, n) share its product cache and its basis.  A process
    keeps the last one it built."""
    return SurfacePowerMap(g, n)


def bridge_degree(g: int, n: int, s: int) -> DegreeMatrix:
    """The degree-s change-of-basis matrix, from the run's shared map."""
    fmap = surface_power_map(g, n)
    monos = quotient_basis(g, n, s)
    tensor_rank = len(fmap._spans.get(s, ()))
    matrix = [fmap.coordinates(m, s) for m in monos]
    smith = lattice.smith(matrix)
    # a square matrix is unimodular exactly when its Smith invariants are all 1
    return DegreeMatrix(
        degree=s,
        quotient_rank=len(monos),
        tensor_rank=tensor_rank,
        matrix=matrix,
        unimodular=(len(matrix) == tensor_rank
                    and all(d == 1 for d in smith)),
        smith=smith,
    )


def check_isomorphism(g: int, n: int, mode: str = "full",
                      max_degree: int | None = None) -> BridgeReport:
    """Per-degree change-of-basis matrices between the two models.

    Rows are images of quotient-basis monomials expanded in the tensor
    basis, one matrix per degree up to 2n (or the configured cutoff, in
    which case the report is only partial).  Also checks that the chosen
    generating set of the relation ideal maps to zero, reading each
    relation's closed-form row, never a decoded polynomial.
    """
    relations = ideal_generators(g, n, mode).rows()  # rejects g < 1 and n < 2
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"need max_degree >= 0, got max_degree={max_degree}")
    top = 2 * n if max_degree is None else min(max_degree, 2 * n)
    report = BridgeReport(g, n, mode, max_degree=top)
    report.degrees.extend(bridge_degree(g, n, s) for s in range(top + 1))
    fmap = surface_power_map(g, n)
    report.relations_vanish = not any(
        fmap.row_coordinates(row, d) for d, row in relations)
    return report


def multiplicativity_spot_check(g: int, n: int, samples: int = 8,
                                seed: int = 0) -> bool:
    """Random monomial pairs: the image of the reduced product must match
    the product of the images.  The pool holds every monomial of degree
    1..n, in `monomials_of_degree` order, as a (degree, mask) pair; only
    the sampled ones are built as monomials."""
    fmap = surface_power_map(g, n)
    rng = random.Random(seed)
    pool = [p for s in range(1, n + 1) for p in _mask_pairs(g, s, range(s % 2, s + 1, 2))]
    for _ in range(samples):
        (d1, a), (d2, b) = rng.choice(pool), rng.choice(pool)
        # image(a) * image(b), by associativity the chain of a's generators
        # continued by b's; the pool's degrees are <= n, so d1 + d2 <= 2n
        direct = fmap.times(fmap._image(a, (d1 - a.bit_count()) // 2),
                            fmap.generator_indices(b, (d2 - b.bit_count()) // 2))
        reduced = multiply_nf(Polynomial.monomial(_monomial(a, g, d1)),
                              Polynomial.monomial(_monomial(b, g, d2)), g, n)
        row = {_mask(m, g): c for m, c in reduced.terms.items()}
        if fmap.row_coordinates(row, d1 + d2) != direct:
            return False
    return True


# -- report JSON ------------------------------------------------------------

def report_to_dict(report: BridgeReport) -> dict:
    """The report's fields, its verdict and each degree's fields.  A
    shallow copy: each ``matrix`` is the report's own list."""
    return dict(vars(report), verdict=report.verdict,
                degrees=[dict(vars(d)) for d in report.degrees])

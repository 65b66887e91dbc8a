"""Cross-validation of the two models of the surface symmetric power.

The quotient model maps into the tensor model by sending x_i, x'_i to the
spread classes of the degree-1 generators a_i, a_{i+g} and y to that of
the degree-2 generator b.  Expanding the image of each quotient-basis
monomial in the tensor-power basis gives one integer matrix per degree;
the map is an isomorphism of lattices iff every matrix is square and
unimodular.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from . import lattice
from .fixtures import surface_ring
from .quotient import (
    Monomial,
    Polynomial,
    ideal_generators,
    monomials_of_degree,
    multiply_nf,
    quotient_basis,
)
from .rings import Ring
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

    ``image`` and ``image_of_monomial`` build the image as a tensor, the
    reference the tests compare against.  ``coordinates`` works in the
    tensor-power basis instead: the image of a monomial is the chain of
    integer kernel products of the spread classes chi[a_i], chi[a_{i+g}]
    and chi[b] in the canonical written order.  Kernel products are
    cached per map.
    """

    def __init__(self, g: int, n: int, ring: Ring | None = None):
        self.g = g
        self.n = n
        self.ring = ring or surface_ring(g)
        self.xi = {i: sym_element(self.ring, n, [self.ring.gen(f"a{i}")])
                   for i in range(1, g + 1)}
        self.xi_prime = {i: sym_element(self.ring, n, [self.ring.gen(f"a{i + g}")])
                         for i in range(1, g + 1)}
        self.eta = sym_element(self.ring, n, [self.ring.gen("b")])
        pos = self.ring.position
        self._xi_idx = {i: BasisIndex((pos[f"a{i}"],), (), n - 1)
                        for i in range(1, g + 1)}
        self._xi_prime_idx = {i: BasisIndex((pos[f"a{i + g}"],), (), n - 1)
                              for i in range(1, g + 1)}
        self._eta_idx = BasisIndex((), ((pos["b"], 1),), n - 1)
        self._unit_idx = BasisIndex((), (), n)
        self._kernel = IndexProduct(self.ring)
        self._products: dict[tuple[BasisIndex, BasisIndex], dict[BasisIndex, int]] = {}
        self._positions: dict[int, dict[BasisIndex, int]] = {}

    def image_of_monomial(self, m: Monomial) -> TensorElement:
        """Product of the generator images in the canonical written order."""
        out = TensorElement.unit(self.ring, self.n)
        for i in m.xs:
            out = tensor_multiply(out, self.xi[i])
        for j in m.xp:
            out = tensor_multiply(out, self.xi_prime[j])
        for _ in range(m.q):
            out = tensor_multiply(out, self.eta)
        return out

    def image(self, p: Polynomial) -> TensorElement:
        out = TensorElement.zero(self.ring, self.n)
        for m, c in p.terms.items():
            out = out + c * self.image_of_monomial(m)
        return out

    def generator_indices(self, m: Monomial) -> list[BasisIndex]:
        """Spread classes of the generators of m, in the written order."""
        return ([self._xi_idx[i] for i in m.xs]
                + [self._xi_prime_idx[j] for j in m.xp]
                + [self._eta_idx] * m.q)

    def times(self, vec: dict[BasisIndex, int],
              gens: list[BasisIndex]) -> dict[BasisIndex, int]:
        """Basis coordinates of vec multiplied on the right by the spread
        classes ``gens`` in turn."""
        for gen in gens:
            out: dict[BasisIndex, int] = {}
            for k, c in vec.items():
                product = self._products.get((k, gen))
                if product is None:
                    product = self._products[(k, gen)] = self._kernel(k, gen)
                for idx, v in product.items():
                    out[idx] = out.get(idx, 0) + c * v
            vec = {idx: v for idx, v in out.items() if v}
        return vec

    def monomial_coordinates(self, m: Monomial) -> dict[BasisIndex, int]:
        """Basis coordinates of image_of_monomial(m)."""
        return self.times({self._unit_idx: 1}, self.generator_indices(m))

    def polynomial_coordinates(self, p: Polynomial) -> dict[BasisIndex, int]:
        """Basis coordinates of image(p); empty iff the image is zero."""
        out: dict[BasisIndex, int] = {}
        for m, c in p.terms.items():
            for idx, v in self.monomial_coordinates(m).items():
                out[idx] = out.get(idx, 0) + c * v
        return {idx: v for idx, v in out.items() if v}

    def coordinates(self, p: Polynomial, degree: int) -> list[int]:
        """Integer coordinates of the image in the tensor-power basis."""
        pos = self._positions.get(degree)
        if pos is None:
            basis = enumerate_basis(self.ring, self.n, degree=degree)
            pos = self._positions[degree] = {idx: k for k, idx in enumerate(basis)}
        vec = [0] * len(pos)
        for idx, c in self.polynomial_coordinates(p).items():
            vec[pos[idx]] = c
        return vec


def bridge_degree(g: int, n: int, s: int) -> DegreeMatrix:
    """The degree-s change-of-basis matrix; degrees are independent jobs."""
    if s == 0:
        return DegreeMatrix(0, 1, 1, [[1]], True, [1])
    fmap = SurfacePowerMap(g, n)
    monos = quotient_basis(g, n, s)
    tensor_basis = enumerate_basis(fmap.ring, n, degree=s)
    matrix = [fmap.coordinates(Polynomial.monomial(m), s) for m in monos]
    square = len(matrix) == len(tensor_basis)
    return DegreeMatrix(
        degree=s,
        quotient_rank=len(monos),
        tensor_rank=len(tensor_basis),
        matrix=matrix,
        unimodular=square and lattice.is_unimodular(matrix),
        smith=lattice.smith(matrix) if matrix else [],
    )


def pool_size(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes to start: no more than requested, than there are
    tasks, or than there are cpus (unknown counts as 1); at least 1.  A
    process pool starts all its workers at once."""
    return max(1, min(jobs, tasks, cpus or 1))


def check_isomorphism(g: int, n: int, mode: str = "full",
                      max_degree: int | None = None,
                      jobs: int = 1) -> BridgeReport:
    """Per-degree change-of-basis matrices between the two models.

    Rows are images of quotient-basis monomials expanded in the tensor
    basis, one matrix per degree up to 2n (or the configured cutoff, in
    which case the report is only partial).  Also checks that the chosen
    generating set of the relation ideal maps to zero.
    """
    top = 2 * n if max_degree is None else min(max_degree, 2 * n)
    report = BridgeReport(g, n, mode, max_degree=top)
    degrees = list(range(top + 1))
    workers = pool_size(jobs, len(degrees), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(bridge_degree, [g] * len(degrees),
                                    [n] * len(degrees), degrees))
        report.degrees.extend(sorted(results, key=lambda d: d.degree))
    else:
        report.degrees.extend(bridge_degree(g, n, s) for s in degrees)
    fmap = SurfacePowerMap(g, n)
    report.relations_vanish = not any(
        fmap.polynomial_coordinates(poly)
        for poly in ideal_generators(g, n, mode).polys)
    return report


def multiplicativity_spot_check(g: int, n: int, samples: int = 8,
                                seed: int = 0) -> bool:
    """Random monomial pairs: the image of the reduced product must match
    the product of the images."""
    fmap = SurfacePowerMap(g, n)
    rng = random.Random(seed)
    pool = [m for s in range(1, n + 1) for m in monomials_of_degree(g, s)]
    for _ in range(samples):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        # image(m1) * image(m2), by associativity the chain of m1's
        # generators continued by m2's
        direct = fmap.times(fmap.monomial_coordinates(m1),
                            fmap.generator_indices(m2))
        if m1.degree + m2.degree > 2 * n:
            if direct:
                return False
            continue
        reduced = multiply_nf(Polynomial.monomial(m1), Polynomial.monomial(m2), g, n)
        if fmap.polynomial_coordinates(reduced) != direct:
            return False
    return True


# -- report JSON ------------------------------------------------------------

def report_to_dict(report: BridgeReport) -> dict:
    return {
        "g": report.g,
        "n": report.n,
        "mode": report.mode,
        "max_degree": report.max_degree,
        "verdict": report.verdict,
        "relations_vanish": report.relations_vanish,
        "degrees": [
            {
                "degree": d.degree,
                "quotient_rank": d.quotient_rank,
                "tensor_rank": d.tensor_rank,
                "matrix": d.matrix,
                "unimodular": d.unimodular,
                "smith": d.smith,
            }
            for d in report.degrees
        ],
    }


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

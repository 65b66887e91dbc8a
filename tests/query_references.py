"""References for the query commands' fast paths, as they were before
those paths read the closed form: `normal_form` reducing with decoded
`relation_poly` polynomials, the `relations` document written by
`format_poly`, and `enumerate_basis` building every index before it
filters by degree.  `test_query_paths.py` compares the fast paths with
them."""

import itertools

from symprod.quotient import (
    NonHomogeneousError,
    Polynomial,
    QuotientInvariantError,
    format_poly,
    ideal_generators,
    relation_poly,
)
from symprod.rings import add_terms
from symprod.sympower import BasisIndex, _even_multisets


def normal_form_reference(f, g, n):
    """Weight descent on `Monomial` keys, one decoded relation per rewritten
    monomial of the top weight left."""
    if g < 0:
        raise ValueError(f"need g >= 0, got g={g}")
    if f.max_index() > g:
        raise ValueError(f"variable index exceeds g={g}")
    if not f.is_zero() and f.degree() is None:
        raise NonHomogeneousError("reduce homogeneous components separately")
    if n < 2:
        raise ValueError("need n >= 2")
    work = dict(f.terms)
    while (w := max((m.weight for m in work), default=0)) > n:
        for target in [m for m in work if m.weight == w]:
            if target.abcq[2] == 0:
                del work[target]
                continue
            rel = relation_poly(target)
            eps = rel.terms.get(target, 0)
            if eps not in (1, -1):
                raise QuotientInvariantError(
                    f"relation of {target.word()} has leading coefficient {eps}, not +-1")
            add_terms(work, rel.terms.items(), -work[target] * eps)
    return Polynomial(work)


def relations_doc_reference(g, n, mode):
    """The `relations` document with each relation decoded and formatted."""
    gens = ideal_generators(g, n, mode)
    polys = [relation_poly(m) for m in gens.monomials]
    return {
        "g": g,
        "n": n,
        "mode": gens.mode,
        "count": len(polys),
        "generators": [{"monomial": m.word(), "poly": format_poly(p)}
                       for m, p in zip(gens.monomials, polys)],
    }


def enumerate_basis_reference(ring, n, degree=None):
    """Every basis index built, then filtered by degree and sorted."""
    out = []
    for k in range(0, min(n, len(ring.odd_positions)) + 1):
        for odd in itertools.combinations(ring.odd_positions, k):
            budget = n - k
            for even in _even_multisets(ring.even_positions, budget):
                if k + len(even) == 0:
                    continue
                idx = BasisIndex(odd, even, budget - sum(m for _, m in even))
                if degree is None or idx.degree(ring) == degree:
                    out.append(idx)
    out.sort(key=lambda i: (i.degree(ring), i.odd, i.even, i.pad))
    return out

"""Dense lattice checks of the full relation ideal, one degree at a time,
shared by `test_quotient.py` and `test_acceptance.py`: independent of the
propagated Hermite bases that `verify` builds."""

from symprod import lattice
from symprod.quotient import ideal_degree_rows, ideal_generators, monomials_of_degree


def relation_lattice_smith(g: int, n: int, s: int) -> list[int]:
    """Smith invariants of the degree-s piece of the full relation ideal."""
    rows = ideal_degree_rows(ideal_generators(g, n, "full"), s)
    if not rows:
        return []
    return lattice.smith(rows)


def ideal_fills_degree(g: int, n: int, s: int) -> bool:
    """Does the full relation ideal contain every degree-s element?"""
    # the lattice is all of Z^dim exactly when its Hermite basis is the
    # unit matrix: full rank, and every pivot 1
    dim = len(monomials_of_degree(g, s))
    basis = lattice.hermite_nonzero(ideal_degree_rows(ideal_generators(g, n, "full"), s))
    return len(basis) == dim and all(row[i] == 1 for i, row in enumerate(basis))

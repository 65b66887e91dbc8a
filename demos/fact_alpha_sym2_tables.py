"""Two four-manifolds with the same rational cohomology ring but different
integral rings: the product of two 2-spheres (intersection form [[0,1],[1,0]])
and the connected sum of the complex projective plane with its reverse
([[1,0],[0,-1]]).  This script prints the integer multiplication tables of
the squared symmetric power for both, side by side, so the integral
structure constants can be compared by eye.  No automated verdict is drawn:
deciding graded-ring isomorphism is a different (and much harder) problem.
"""

from symprod import fixtures
from symprod.sympower import structure_constants


def print_table(name, ring, n=2):
    table = structure_constants(ring, n, max(g.degree for g in ring.generators) * n)
    print(f"--- Sym^{n} of {name} ---")
    print("basis:")
    for idx in table.basis:
        print(f"  {idx.label(ring)}  (degree {idx.degree(ring)})")
    print("nonzero products (one triangle; the table is graded-commutative):")
    for (i, j), entry in table.entries.items():
        if table.basis.index(i) > table.basis.index(j) or not entry:
            continue
        rhs = " ".join(f"{c:+d}*{k.label(ring)}" for k, c in sorted(
            entry.items(), key=lambda kv: kv[0].label(ring)))
        print(f"  {i.label(ring)} * {j.label(ring)} = {rhs}")
    print()


def main():
    print(__doc__)
    print_table("the sphere product", fixtures.s2xs2_ring())
    print_table("the projective-plane connected sum", fixtures.cp2_conn_cp2bar_ring())
    print("Both tables are integral, as the theory guarantees, and both rings")
    print("have the same number of basis classes in each degree.  The entries")
    print("differ, but entries depend on the basis, so that alone separates")
    print("nothing.  Read off the degree-4 products above, the middle pairing")
    print("H^4 x H^4 -> H^8 (coefficients of chi[w^2], basis in the printed")
    print("order) has the Gram matrix diag(1, [[0,2],[2,0]], 1) for the sphere")
    print("product and diag(-1, 2, 2, 1) for the connected sum: rank 4,")
    print("determinant -4, odd, and Smith invariants (1, 1, 2, 2) for both, so")
    print("at n = 2 these invariants do not tell the two rings apart.")


if __name__ == "__main__":
    main()

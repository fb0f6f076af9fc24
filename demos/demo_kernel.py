"""The kernel of the multiplication map and its presented quotient.

Run:  python3 demos/demo_kernel.py
"""

from fractions import Fraction

from sechom import catalog, j_generator, kernel_data, symmetry_check

F = Fraction


def main():
    T = catalog("dual_dual_x")
    K = kernel_data(T)
    print(f"triple {T.name}: multiplication sends a (x) b (x) beta to "
          f"a b eps(beta)")
    print(f"its matrix is {K.m_matrix.nrows} x {K.m_matrix.ncols}; "
          f"the kernel has dimension {K.J.dim}")

    x = [F(0), F(1)]
    g = j_generator(T, T.B.unit, x)
    print(f"\nthe generator 1 (x) x (x) 1 - x (x) 1 (x) 1 = {g}")
    print(f"it lies in the kernel: {K.J.contains(g)}")

    print(f"\nrelation spaces inside the kernel:")
    print(f"  squared kernel:            {K.j_squared.dim}")
    print(f"  balancing span:            {K.j_hat.dim}")
    print(f"  balancing span, closed:    {K.j_hat_closed.dim}")
    print(f"  raw combined span:         {K.span_relations.dim}")
    print(f"  closed combined span:      {K.relations.dim}")
    print(f"  quotient dimension:        {K.dim}")
    print(f"  readings agree:            {K.readings_agree}")
    print(f"  left/right action agrees:  {symmetry_check(T)}")

    # One catalog triple distinguishes the raw balancing span from its
    # closure under coefficient multiplication; the quotient is taken by
    # the closed reading so that the module structure survives.
    K0 = kernel_data(catalog("dual_dual_zero"))
    print(f"\non dual_dual_zero the raw span gives {K0.span_relations.dim} "
          f"relations, the closure {K0.relations.dim}; "
          f"readings_agree={K0.readings_agree}")

    print("\nquotient dimensions across the commutative catalog:")
    for name in ("k_k", "dual_k", "prod_k", "trunc3_k", "dual_dual_zero",
                 "dual_dual_x"):
        print(f"  {name:16s} dim = {kernel_data(catalog(name)).dim}")


if __name__ == "__main__":
    main()

"""Chain spaces, boundary matrices, and homology dimension tables.

Run:  python3 demos/demo_homology.py
"""

from sechom import (boundary, catalog, chain_dim, hc, hh,
                    verify_connes_segment)


def main():
    T = catalog("dual_dual_x")
    print(f"triple {T.name}: the degree-n space is "
          f"A^(n+1) (x) B^(n(n+1)/2)")
    for n in range(5):
        print(f"  degree {n}: dimension {chain_dim(T, n)}")

    d2 = boundary(T, 2)
    print(f"\nboundary in degree 2 is a {d2.nrows} x {d2.ncols} sparse "
          f"matrix with {d2.nnz} entries")
    print(f"composition with degree 3 vanishes: "
          f"{(boundary(T, 2) @ boundary(T, 3)).is_zero()}")

    print("\nhomology of the complex (hh) and of its cyclic coinvariants "
          "(hc), degrees 0..2:")
    for name in ("k_k", "dual_k", "trunc3_k", "mat2_k", "dual_dual_x"):
        C = catalog(name)
        hh_dims = [hh(C, n).dimension for n in range(3)]
        hc_dims = [hc(C, n).dimension for n in range(3)]
        print(f"  {name:14s} hh={hh_dims}  hc={hc_dims}")

    res = hh(catalog("dual_k"), 1)
    rep = "(" + ", ".join(str(x) for x in res.representatives[0]) + ")"
    print(f"\n{res}; representative chain vector: {rep}")

    print(f"\nconnecting segment: {verify_connes_segment(catalog('dual_k'))}")
    print("(degrees above 3 need an explicit max_degree: chain spaces "
          "grow steeply)")


if __name__ == "__main__":
    main()

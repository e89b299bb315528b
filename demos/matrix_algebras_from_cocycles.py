"""Tour: cocycles on Z_n x Z_n and when the twisted algebra is M_n(C).

The family sigma_k((a1,a2),(b1,b2)) = e^(2 pi i (k/n) a2 b1) realizes all
cohomology classes on the square of a cyclic group.  The walk below
checks the cocycle axioms exhaustively, lists the regular elements,
decides condition K, and identifies the matrix-algebra cases by two
independent routes: counting regular classes and a numeric SVD nullspace.
Last, a coboundary twist of one of them changes none of these answers:
they depend on the cohomology class only.
"""

from math import gcd

import twistk as tk
from twistk.algebra import center_dimension_numeric, identify_matrix_algebra
from twistk.multipliers import TableMultiplier, coboundary_twist, validate
from twistk.regularity import center_basis, regular_classes
from twistk.torus import rot


def main():
    print("== exhaustive cocycle validation ==")
    for n, k in ((2, 1), (4, 2), (5, 3)):
        sigma = tk.klein(n, k)
        report = validate(sigma)
        print(f"  sigma_{k} on Z{n}xZ{n}: {report.checked} triples checked, ok={report.ok}")

    print("\n== a deliberately broken table is caught with a witness ==")
    table = tk.klein(2, 1).to_table()
    values = [list(row) for row in table.values]
    values[3][3] = values[3][3] + rot("1/3")
    broken = validate(TableMultiplier(table.group, values))
    print(f"  perturbed entry -> ok={broken.ok}, witness triple {broken.witness}")

    print("\n== regular elements and condition K across the family ==")
    for n in range(2, 7):
        row = []
        for k in range(n):
            sigma = tk.klein(n, k)
            report = regular_classes(sigma)
            row.append(f"k={k}:{'K' if report.condition_k else report.regular_element_count}")
        print(f"  n={n}: " + "  ".join(row) + "   (K = condition K holds; else #regular)")
    print("  observe: condition K exactly when gcd(k, n) = 1")

    print("\n== the center, twice ==")
    for n, k in ((3, 1), (4, 2), (6, 2), (5, 2)):
        sigma = tk.klein(n, k)
        combinatorial = len(center_basis(sigma))
        numeric = center_dimension_numeric(sigma)
        ident = identify_matrix_algebra(sigma.group.order, numeric) if numeric == combinatorial else None
        tag = f"M_{ident}(C)" if ident else "not a full matrix algebra"
        print(
            f"  (n={n}, k={k}, gcd={gcd(k, n)}): center dim {combinatorial} (combinatorial)"
            f" = {numeric} (numeric SVD), {tag}"
        )

    print("\n== a coboundary twist changes no answer ==")
    sigma = tk.klein(4, 2)
    beta = [rot(0)] + [rot(f"{a % 5}/8") for a in range(1, sigma.group.order)]  # beta(e) = 1
    for name, s in (("sigma_2", sigma), ("sigma_2 + d beta", coboundary_twist(sigma, beta))):
        report = regular_classes(s)
        print(
            f"  {name} on Z4xZ4: ok={validate(s).ok}, {report.regular_element_count} regular elements,"
            f" center dim {len(center_basis(s))}"
        )


if __name__ == "__main__":
    main()

"""Exact linear algebra over Q and Z, with one elimination routine: the
Hermite form.

The Hermite normal form row-reduces [A | I], so each row operation makes
the form and its transform at once, and uses minimal-absolute-value
pivoting to keep entry growth in check; integer kernels are read off it
(a rational matrix first has its denominators cleared, which does not
change its kernel), and a rank over Q is the column count less the
kernel's.  Everything runs on Python big integers and Fraction, so
results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = list[list[int]]


def _copy_int_matrix(rows) -> Matrix:
    out = []
    for row in rows:
        r = [int(x) for x in row]
        for x, orig in zip(r, row):
            if x != orig:
                raise ValueError(f"non-integer entry {orig!r}")
        out.append(r)
    return out


def hermite_normal_form(rows) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot).  Pivot rows are chosen by
    minimal |entry| to limit coefficient growth.
    """
    a = _copy_int_matrix(rows)
    m = len(a)
    n = len(a[0]) if a else 0
    a = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    r = 0
    for col in range(n):
        while True:
            nz = [i for i in range(r, m) if a[i][col]]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][col]))
            a[r], a[best] = a[best], a[r]
            if a[r][col] < 0:
                a[r] = [-x for x in a[r]]
            p = a[r][col]
            done = True
            for i in range(r + 1, m):
                if a[i][col]:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if r < m and a[r][col]:
            p = a[r][col]
            for i in range(r):
                q = a[i][col] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == m:
                break
    return [row[:n] for row in a], [row[n:] for row in a]


def integer_kernel(rows, ncols: int | None = None) -> list[list[int]]:
    """Basis of the lattice {x in Z^n : A x = 0}.

    Row-reduce A^T unimodularly; the transform rows matching zero rows of
    the Hermite form are a basis (primitive, since the kernel lattice of
    an integer matrix is saturated and the transform is unimodular).  The
    form checks the entries.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    h, u = hermite_normal_form([[row[j] for row in rows] for j in range(ncols)])
    return [u[i] for i in range(ncols) if not any(h[i])]


def clear_denominators(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    """Scale a matrix of ints and Fractions by the lcm of all denominators
    (kernel-preserving; an integer matrix is copied unscaled)."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows]


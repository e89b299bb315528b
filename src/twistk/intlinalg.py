"""Exact linear algebra over Q and Z, with one elimination routine: the
Hermite form.

The Hermite normal form uses minimal-absolute-value pivoting to keep
entry growth in check; integer kernels and ranks over Q are read off it
(a rational matrix first has its denominators cleared, which changes
neither its kernel nor its rank).  Everything runs on Python big
integers and Fraction, so results are exact.
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


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_normal_form(rows) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot).  Pivot rows are chosen by
    minimal |entry| to limit coefficient growth.
    """
    a = _copy_int_matrix(rows)
    m = len(a)
    u = _identity(m)
    if m == 0:
        return a, u
    n = len(a[0])
    r = 0
    for col in range(n):
        while True:
            nz = [i for i in range(r, m) if a[i][col]]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][col]))
            a[r], a[best] = a[best], a[r]
            u[r], u[best] = u[best], u[r]
            if a[r][col] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            p = a[r][col]
            done = True
            for i in range(r + 1, m):
                if a[i][col]:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
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
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == m:
                break
    return a, u


def integer_kernel(rows, ncols: int | None = None) -> list[list[int]]:
    """Basis of the lattice {x in Z^n : A x = 0}.

    Row-reduce A^T unimodularly; the transform rows matching zero rows of
    the Hermite form are a basis (primitive, since the kernel lattice of
    an integer matrix is saturated and the transform is unimodular).
    """
    a = _copy_int_matrix(rows)
    if ncols is None:
        if not a:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(a[0])
    if not a:
        return _identity(ncols)
    at = [[a[i][j] for i in range(len(a))] for j in range(ncols)]
    h, u = hermite_normal_form(at)
    return [u[i] for i in range(ncols) if not any(h[i])]


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    """Scale a rational matrix by the lcm of all denominators (kernel-preserving)."""
    denoms = [Fraction(x).denominator for row in rows for x in row]
    scale = lcm(*denoms) if denoms else 1
    return [[int(Fraction(x) * scale) for x in row] for row in rows]


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: the number of nonzero rows of the Hermite form of the
    denominator-cleared matrix."""
    h, _ = hermite_normal_form(clear_denominators(rows))
    return sum(1 for row in h if any(row))

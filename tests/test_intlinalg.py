import random
from fractions import Fraction
from itertools import product
from math import gcd

import sympy

from reference import hermite_normal_form_ref, rank_ref

from twistk.intlinalg import clear_denominators, hermite_normal_form, integer_kernel


def _random_matrix(rng, m, n, bound=6):
    return [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]


def _det(mat):
    return sympy.Matrix(mat).det()


def _is_row_hnf(h):
    m = len(h)
    n = len(h[0]) if m else 0
    pivots = []
    for i in range(m):
        row = h[i]
        nz = next((j for j in range(n) if row[j]), None)
        if nz is None:
            assert all(not any(h[k]) for k in range(i, m)), "zero rows must trail"
            break
        assert row[nz] > 0
        if pivots:
            assert nz > pivots[-1][1]
        for k in range(i):
            assert 0 <= h[k][nz] < row[nz]
        pivots.append((i, nz))
    return True


def test_hnf_properties_random():
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = _random_matrix(rng, m, n)
        h, u = hermite_normal_form(a)
        assert abs(_det(u)) == 1
        assert sympy.Matrix(u) * sympy.Matrix(a) == sympy.Matrix(h)
        assert _is_row_hnf(h)


def test_hnf_matches_reference():
    # the [A | I] form against the reference that keeps U beside A, on
    # empty, zero-column, tall, wide and large-entry matrices
    rng = random.Random(26)
    shapes = [(0, 0), (3, 0), (1, 1), (32, 64), (64, 32)] + [(rng.randrange(1, 9), rng.randrange(1, 13)) for _ in range(400)]
    for m, n in shapes:
        a = _random_matrix(rng, m, n, bound=rng.choice((1, 6, 10**6)))
        for j in rng.sample(range(n), n // 3):
            for row in a:
                row[j] = 0
        assert hermite_normal_form(a) == hermite_normal_form_ref(a), a


def test_integer_kernel_random():
    rng = random.Random(4)
    for _ in range(50):
        m, n = rng.randrange(1, 4), rng.randrange(1, 5)
        a = _random_matrix(rng, m, n, bound=4)
        basis = integer_kernel(a)
        am = sympy.Matrix(a)
        for v in basis:
            assert am * sympy.Matrix(n, 1, v) == sympy.zeros(m, 1)
        assert len(basis) == n - am.rank()
        # completeness incl. saturation: every small kernel point is an
        # integer combination of the basis
        if basis and n <= 3:
            bt = sympy.Matrix(basis).T
            for x in product(range(-3, 4), repeat=n):
                if any(x) and all(sum(a[i][j] * x[j] for j in range(n)) == 0 for i in range(m)):
                    combo, params = bt.gauss_jordan_solve(sympy.Matrix(n, 1, x))
                    assert params.shape[0] == 0
                    assert all(c.is_integer for c in combo)


def test_integer_kernel_zero_and_empty():
    assert integer_kernel([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert integer_kernel([], ncols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert integer_kernel([[1, 0], [0, 1]]) == []


def _rank(rows, ncols):
    """Rank over Q as read by ``lattices.qtheta_dimension``: the number of
    columns less the rank of the integer kernel."""
    return ncols - len(integer_kernel(clear_denominators(rows), ncols=ncols))


def test_rational_kernel_and_rank():
    rows = [[Fraction(1, 2), Fraction(1), Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3), Fraction(1)]]
    assert _rank(rows, 3) == rank_ref(rows) == 1
    basis = integer_kernel(clear_denominators(rows))
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in rows)
    assert _rank([], 0) == rank_ref([]) == 0
    assert _rank([[Fraction(0), Fraction(0)]], 2) == rank_ref([[Fraction(0), Fraction(0)]]) == 0
    diagonal = [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(-2, 7)]]
    assert _rank(diagonal, 2) == rank_ref(diagonal) == 2
    rng = random.Random(6)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        q = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 6)) for _ in range(n)] for _ in range(m)]
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in q]).rank()
        assert _rank(q, n) == rank_ref(q) == expected


def test_clear_denominators_and_primitive():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5, 6)]]
    assert clear_denominators(rows) == [[3, 2], [0, 5]]
    # integer kernel vectors are primitive: the kernel lattice is saturated
    for v in integer_kernel([[4, -6, 2], [2, 2, 2]]) + integer_kernel([[6, 10, 0]]):
        assert gcd(*v) == 1

import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import finite_catalog, klein_catalog, symmetric
from reference import GenPermMatrix, lambda_exact, rho_bar_exact

from twistk.algebra import (
    AlgebraElement,
    IllConditioned,
    PhaseSum,
    center_dimension_numeric,
    convolve,
    identify_matrix_algebra,
    trace,
)
from twistk.groups import cyclic
from twistk.multipliers import klein, trivial_multiplier
from twistk.torus import ZERO, rot


def random_element(group, rng, max_support=4):
    support = rng.sample(range(group.order), min(group.order, rng.randint(1, max_support)))
    return AlgebraElement(
        group,
        {
            a: PhaseSum.phase(
                rot(Fraction(rng.randrange(12), 12)), Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            )
            for a in support
        },
    )


def test_convolve_delta_identity():
    s = klein(2, 1)
    g = s.group
    rng = random.Random(0)
    f = random_element(g, rng)
    assert convolve(s, AlgebraElement.delta(g, g.identity), f) == f
    assert convolve(s, f, AlgebraElement.delta(g, g.identity)) == f


def test_convolve_delta_pair():
    s = klein(2, 1)
    g = s.group
    for a in g.elements():
        for b in g.elements():
            got = convolve(s, AlgebraElement.delta(g, a), AlgebraElement.delta(g, b))
            assert got == AlgebraElement.delta(g, g.mul(a, b), phase=s.value(a, b))
    # the specific phase: delta_(0,1) * delta_(1,0) = e^(pi i) delta_(1,1)
    got = convolve(s, AlgebraElement.delta(g, 1), AlgebraElement.delta(g, 2))
    assert got == AlgebraElement.delta(g, 3, phase=rot("1/2"))


def test_convolve_associative_random():
    s = klein(3, 2)
    rng = random.Random(1)
    for _ in range(60):
        f = random_element(s.group, rng)
        g_ = random_element(s.group, rng)
        h = random_element(s.group, rng)
        assert convolve(s, convolve(s, f, g_), h) == convolve(s, f, convolve(s, g_, h))


def test_trace():
    s = klein(2, 1)
    g = s.group
    assert trace(AlgebraElement.delta(g, g.identity)) == PhaseSum.phase(ZERO)
    assert trace(AlgebraElement.delta(g, 3)) == PhaseSum.zero()
    rng = random.Random(4)
    for _ in range(60):
        f = random_element(g, rng)
        h = random_element(g, rng)
        assert trace(convolve(s, f, h)) == trace(convolve(s, h, f))


def test_lambda_projective_exact():
    s = klein(3, 2)
    g = s.group
    n = g.order
    assert lambda_exact(s, g.identity) == GenPermMatrix.identity(n)
    for a in g.elements():
        for b in g.elements():
            lhs = lambda_exact(s, a) @ lambda_exact(s, b)
            rhs = lambda_exact(s, g.mul(a, b)).scaled(s.value(a, b))
            assert lhs == rhs


def test_rho_bar_conjugate_projective_exact():
    s = klein(2, 1)
    g = s.group
    for a in g.elements():
        for b in g.elements():
            lhs = rho_bar_exact(s, a) @ rho_bar_exact(s, b)
            rhs = rho_bar_exact(s, g.mul(a, b)).scaled(-s.value(a, b))
            assert lhs == rhs


def test_commutant_relation():
    s = klein(3, 1)
    g = s.group
    for a in g.elements():
        for b in g.elements():
            assert lambda_exact(s, a) @ rho_bar_exact(s, b) == rho_bar_exact(s, b) @ lambda_exact(s, a)
            lam, rho = lambda_exact(s, a).to_array(), rho_bar_exact(s, b).to_array()
            fl = lam @ rho - rho @ lam
            assert np.max(np.abs(fl)) < 1e-10


def test_lambda_rho_fix_delta_e():
    s = klein(4, 3)
    g = s.group
    e = g.identity
    for a in g.elements():
        m = lambda_exact(s, a) @ rho_bar_exact(s, a)
        row, phase = m.apply_delta(e)
        assert row == e and phase.is_integral()
        m2 = rho_bar_exact(s, a) @ lambda_exact(s, a)
        assert m2.apply_delta(e) == (e, ZERO)


def test_matrices_unitary():
    s = klein(4, 1)
    n = s.group.order
    for a in s.group.elements():
        for mat in (lambda_exact(s, a).to_array(), rho_bar_exact(s, a).to_array()):
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(n))) < 1e-10


def test_center_dimension_numeric():
    assert center_dimension_numeric(klein(3, 1)) == 1
    assert center_dimension_numeric(klein(5, 2)) == 1
    assert center_dimension_numeric(trivial_multiplier(cyclic(6))) == 6
    assert center_dimension_numeric(klein(4, 2)) == 4
    assert center_dimension_numeric(trivial_multiplier(symmetric(3))) == 3


def _full_commutator_svals(sigma):
    """Reference oracle: singular values of all |G|^2 commutators
    [lambda(a), lambda(g)] stacked into an |G|^3 x |G| system (|G|^4 memory)."""
    n = sigma.group.order
    lam = np.stack([lambda_exact(sigma, a).to_array() for a in range(n)])
    prod = np.einsum("aij,gjk->agik", lam, lam)
    comm = prod - prod.transpose(1, 0, 2, 3)
    return np.linalg.svd(comm.transpose(0, 2, 3, 1).reshape(-1, n), compute_uv=False)


def test_center_dimension_matches_full_commutators():
    entries = finite_catalog()
    names = {name for name, _ in entries}
    assert all(name in names for name, _ in klein_catalog())
    for name, sigma in entries:
        assert sigma.group.order <= 36
        expected = int(np.sum(_full_commutator_svals(sigma) < 1e-8))
        assert center_dimension_numeric(sigma) == expected, name


def test_center_dimension_peak_memory():
    # klein(16, k) has |G| = 256, where a |G|^3 stack of lambda matrices
    # alone would take 256 MiB
    for sigma, dimension in ((klein(7, 1), 1), (klein(16, 1), 1), (klein(16, 4), 16)):
        tracemalloc.start()
        try:
            assert center_dimension_numeric(sigma) == dimension
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, (sigma.n, sigma.k)


def test_center_dimension_ill_conditioned():
    s = klein(2, 1)
    g = s.group
    lam = [lambda_exact(s, a) for a in g.elements()]
    # the system of the oracle: [lambda(t), lambda(c)] delta_e for t in S
    system = [
        [((lam[t] @ lam[c]).to_array() - (lam[c] @ lam[t]).to_array())[:, g.identity] for c in g.elements()]
        for t in g.generators()
    ]
    svals = np.linalg.svd(np.concatenate([np.stack(cols, axis=1) for cols in system]), compute_uv=False)
    genuine = svals[svals > 1e-8].min()
    assert abs(genuine - 2.0) < 1e-12
    # a tol that swallows it without a clean 10x gap must be refused
    # rather than guessed at
    with pytest.raises(IllConditioned):
        center_dimension_numeric(s, tol=genuine * 6)
    assert center_dimension_numeric(s, tol=genuine * 0.5) == 1


def test_center_dimension_refuses_a_spectrum_with_no_zero(monkeypatch):
    # lambda(e) is central, so some singular value of a true system is 0;
    # a spectrum with none below tol is refused, not counted as 0
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.full(min(a.shape), 1.0))
    with pytest.raises(IllConditioned, match="no singular value below tol"):
        center_dimension_numeric(klein(3, 1))


def test_identify_matrix_algebra():
    assert identify_matrix_algebra(9, center_dimension_numeric(klein(3, 1))) == 3
    assert identify_matrix_algebra(16, center_dimension_numeric(klein(4, 2))) is None
    assert identify_matrix_algebra(1, 1) == 1
    assert identify_matrix_algebra(6, 1) is None  # |G| not a square
    assert identify_matrix_algebra(4, center_dimension_numeric(trivial_multiplier(cyclic(4)))) is None  # central


def test_delta_e_separating_on_lambda_span():
    s = klein(3, 2)
    g = s.group
    n = g.order
    # x = sum c_a lambda(a); x delta_e has coefficients c_a exactly, so the
    # map c -> x delta_e is injective
    cols = np.stack([lambda_exact(s, a).to_array()[:, g.identity] for a in g.elements()], axis=1)
    assert np.linalg.matrix_rank(cols) == n

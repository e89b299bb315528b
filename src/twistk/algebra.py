"""The twisted convolution algebra of a finite group with a multiplier.

Two evaluation paths coexist on purpose.  The exact path works with
formal Q-linear combinations of unit phases (PhaseSum) so convolution,
trace and commutation identities hold with zero tolerance.
Every exact result is collected by one routine, ``_summed``, from its
(phase, magnitude) terms: ``convolve`` emits one term per pair of
coefficient terms and collects each product coefficient once.
The float path counts the center dimension as the SVD nullspace of the
commutators with lambda(s), s in a generating set; it is an oracle
independent of the combinatorial machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .groups import FiniteGroup
from .multipliers import FiniteMultiplier
from .torus import ZERO, MissingHint, RotationNumber


class IllConditioned(RuntimeError):
    """Singular values cluster at the tolerance; refusing to guess."""


def _summed(pairs: Iterable[tuple[RotationNumber, Fraction]]) -> dict[RotationNumber, Fraction]:
    """The magnitudes of (phase, magnitude) pairs summed per phase, with the
    phases whose sum is zero dropped."""
    acc: dict[RotationNumber, Fraction] = {}
    for phase, mag in pairs:
        old = acc.get(phase)
        acc[phase] = mag if old is None else old + mag
    return {phase: mag for phase, mag in acc.items() if mag}


class PhaseSum:
    """Exact scalar: a finite Q-linear combination of unit circle phases.

    Represents sum_i q_i * e^(2 pi i x_i) with rational q_i and exponents
    x_i (RotationNumber), built from (phase, magnitude) pairs by
    ``_summed``; ``convolve`` and ``trace`` make them.  Equality is formal,
    which is sound (equal formal sums evaluate equal) and complete for
    every identity this package asserts, since those identities match
    term by term.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs: Iterable[tuple[RotationNumber, Fraction]] = ()):
        self.terms = _summed(pairs)

    @staticmethod
    def zero() -> "PhaseSum":
        return PhaseSum()

    @staticmethod
    def phase(x: RotationNumber, mag: Fraction | int = 1) -> "PhaseSum":
        return PhaseSum([(x, Fraction(mag))])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseSum):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "PhaseSum(0)"
        bits = " + ".join(f"{m}*e({p!r})" for p, m in sorted(self.terms.items(), key=str))
        return f"PhaseSum({bits})"


class AlgebraElement:
    """Finitely supported function G -> PhaseSum (an l^1(G, sigma) element);
    zero coefficients are dropped."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Mapping[int, PhaseSum] | None = None):
        self.group = group
        self.coeffs: dict[int, PhaseSum] = {int(a): v for a, v in (coeffs or {}).items() if v}

    @staticmethod
    def delta(group: FiniteGroup, a: int, phase: RotationNumber = ZERO, mag: Fraction | int = 1) -> "AlgebraElement":
        return AlgebraElement(group, {a: PhaseSum.phase(phase, mag)})

    def coeff(self, a: int) -> PhaseSum:
        return self.coeffs.get(a, PhaseSum.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return np.array_equal(self.group.array, other.group.array) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"AlgebraElement({self.coeffs!r})"


# -- exact operations ---------------------------------------------------------


def convolve(sigma: FiniteMultiplier, f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Twisted convolution: (f * g)(a) = sum_b f(b) sigma(b, b^-1 a) g(b^-1 a).

    Each pair of coefficient terms p, m of f(b) and q, n of g(d) emits the
    one term (p + q + sigma(b, d), m n) of the product coefficient at bd;
    the terms of each product coefficient are collected once, by
    ``_summed``."""
    grp, terms = sigma.group, {}
    for b, fb in f.coeffs.items():
        for d, gd in g.coeffs.items():
            x, pairs = sigma.value(b, d), terms.setdefault(grp.mul(b, d), [])
            pairs.extend((p + q + x, m * n) for p, m in fb.terms.items() for q, n in gd.terms.items())
    return AlgebraElement(grp, {a: PhaseSum(pairs) for a, pairs in terms.items()})


def trace(f: AlgebraElement) -> PhaseSum:
    """The canonical faithful trace: the coefficient at the identity."""
    return f.coeff(f.group.identity)


# -- numeric center oracle ------------------------------------------------------


GAP = 10.0


def _commutator_system(sigma: FiniteMultiplier) -> np.ndarray:
    """The matrix of c -> [lambda(s), sum_g c_g lambda(g)] delta_e, one block of
    |G| rows per s in S = ``FiniteGroup.generators`` (S = (e,) for the trivial
    group).  Column g of block s holds sigma(g,e) sigma(s,g) at row sg and
    -sigma(s,e) sigma(g,s) at row gs, from symbol-free compiled exponents."""
    g = sigma.group
    ex = sigma.exponents()
    phase = np.exp(2j * np.pi * (ex.array[..., 0] / ex.D).astype(float))  # sigma(a, b)
    s = np.array(g.generators() or (g.identity,), dtype=np.intp)
    e, cols, block = g.identity, np.arange(g.order), np.arange(len(s))[:, None]
    mat = np.zeros((len(s), g.order, g.order), dtype=complex)
    mat[block, g.array[s], cols] = phase[:, e] * phase[s]
    mat[block, g.array[:, s].T, cols] -= phase[s, e][:, None] * phase[:, s].T
    return mat.reshape(-1, g.order)


def center_dimension_numeric(sigma: FiniteMultiplier, tol: float = 1e-8) -> int:
    """dim { x in span(lambda(G)) : lambda(a) x = x lambda(a) for all a }.

    lambda(s) lambda(t) = sigma(s,t) lambda(st), so x commutes with lambda(G)
    once it commutes with lambda(s) for s in a generating set S, and delta_e
    is separating (Zeller-Meier): this counts the singular values below tol
    of ``_commutator_system``.  The reduction to S needs the cocycle
    identity: on a table that is not a multiplier (``require_multiplier``)
    the count may differ.  A symbolic entry raises MissingHint naming its
    first symbol.  Refuses (raises IllConditioned) when the spectrum shows
    no clean gap of ratio >= GAP between the "zero" and "nonzero" groups.
    """
    ex = sigma.exponents()
    symbolic = np.flatnonzero((ex.array[..., 1:] != 0).any(axis=-1))
    if symbolic.size:
        a, b = divmod(int(symbolic[0]), sigma.group.order)
        raise MissingHint(ex.labels[int(np.flatnonzero(ex.array[a, b, 1:])[0])])
    svals = np.linalg.svd(_commutator_system(sigma), compute_uv=False)
    zeros = svals[svals < tol]
    if zeros.size == 0:
        raise IllConditioned("no singular value below tol; the center contains the identity")
    if zeros.max() * GAP > tol:
        raise IllConditioned(
            f"a 'zero' singular value {zeros.max():.3e} sits within {GAP}x of tol {tol:.3e}"
        )
    return int(zeros.size)


def identify_matrix_algebra(order: int, center_dimension: int) -> int | None:
    """n when the twisted algebra of a group of this order with a center of
    this dimension is the full n x n matrix algebra (|G| = n^2 and a trivial
    center; semisimplicity is automatic under the involution), else None."""
    n = math.isqrt(order)
    if n * n != order or center_dimension != 1:
        return None
    return n

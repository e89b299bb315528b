"""Infinite cocycle families on integer lattices.

Two families: Z^n with the bilinear cocycles of the noncommutative
n-torus, and the free nilpotent group of class 2 and rank 3 (as Z^6 with
a twisted product).  Condition K for both reduces to the existence of a
nonzero integer vector killed by the irrational components of an exact
matrix, decided by an integer kernel computation plus a denominator-
clearing scaling for the rational component.

The parameters (the theta entries; the eight mu, in the order
``g3_value`` uses them) are compiled once to ``Exponents``, and
``vector`` dots the integer coefficients (a_i b_j, or the eight g3
exponents) with the parameter rows.  M^T and the g3 rows are kept per
slot over D (slot 0 rational, slot i the i-th compiled label): the
regularity test and the witness re-checks are integer sums on them, and
the Hermite form gets the symbol slots as they are, times D
(``clear_denominators`` finds nothing to clear there and stays the named
step that ``bench/spans.py`` times).  With its minimal-|pivot| choice the
form makes the same row operations on any positive multiple of its input
((c a) // (c p) = a // p), so the kernel basis, and with it the witness,
is the one the rational matrix gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from .intlinalg import clear_denominators, integer_kernel, rational_rank
from .multipliers import Exponents, Multiplier, compile_params
from .torus import ZERO, IrrationalBasis, RotationNumber

Vector = tuple[int, ...]
SlotMatrix = list[list[list[int]]]  # [slot][row][column], Python ints over D


class RankMismatch(ValueError):
    pass


@dataclass(frozen=True)
class LatticeDecision:
    condition_k: bool
    witness: Vector | None = None

    def to_json(self) -> dict:
        return {
            "condition_k": self.condition_k,
            "witness": list(self.witness) if self.witness is not None else None,
        }


class Theta:
    """Upper-triangular exponent data t_ij (0-based, i < j) on Z^n."""

    def __init__(
        self,
        n: int,
        entries: Mapping[tuple[int, int], RotationNumber],
        basis: IrrationalBasis | None = None,
    ):
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n = n
        self.basis = basis if basis is not None else IrrationalBasis(())
        ent: dict[tuple[int, int], RotationNumber] = {}
        for (i, j), v in entries.items():
            if not 0 <= i < j < n:
                raise ValueError(f"entry index ({i},{j}) out of range for rank {n}")
            self.basis.check(v)
            if not v.is_integral():
                ent[(i, j)] = v
        self.entries = ent
        self.pairs = tuple(ent)  # (i, j) of each parameter row
        self.exponents = compile_params(ent.values())

    @cached_property
    def transpose(self) -> SlotMatrix:
        """M^T per slot, for the antisymmetric M with M_ij = t_ij (i < j)."""
        mt = [[[0] * self.n for _ in range(self.n)] for _ in range(self.exponents.array.shape[1])]
        for (i, j), row in zip(self.pairs, self.exponents.array.tolist()):
            for slot, x in zip(mt, row):
                slot[j][i], slot[i][j] = x, -x
        return mt

    def entry(self, i: int, j: int) -> RotationNumber:
        return self.entries.get((i, j), ZERO)

    def to_json(self) -> dict:
        return {
            "type": "torus",
            "n": self.n,
            "theta": {f"{i + 1},{j + 1}": v.to_json() for (i, j), v in sorted(self.entries.items())},
            "basis": list(self.basis.labels),
            "hints": dict(self.basis.float_hints),
        }


def _check_rank(theta: Theta, vec: Sequence[int]) -> Vector:
    v = tuple(int(x) for x in vec)
    if len(v) != theta.n:
        raise RankMismatch(f"vector rank {len(v)} != {theta.n}")
    return v


def _torus_vector(theta: Theta, a: Vector, b: Vector) -> list[int]:
    return theta.exponents.combine([a[i] * b[j] for i, j in theta.pairs])


def torus_value(theta: Theta, a: Sequence[int], b: Sequence[int]) -> RotationNumber:
    """Exponent sum_{i<j} a_i t_ij b_j."""
    return theta.exponents.rotation(_torus_vector(theta, _check_rank(theta, a), _check_rank(theta, b)))


def commutator_phase(theta: Theta, a: Sequence[int], b: Sequence[int]) -> RotationNumber:
    """Exponent of sigma(a,b) conj(sigma(b,a)): sum_{i<j} t_ij (a_i b_j - b_i a_j)."""
    a = _check_rank(theta, a)
    b = _check_rank(theta, b)
    return theta.exponents.rotation(theta.exponents.combine([a[i] * b[j] - b[i] * a[j] for i, j in theta.pairs]))


def _integral(D: int, matrix: SlotMatrix, v: Sequence[int]) -> bool:
    """Whether every component of R v is integral, R given per slot over D."""
    rat, *symbols = matrix
    return all(sum(map(mul, row, v)) % D == 0 for row in rat) and not any(
        sum(map(mul, row, v)) for rows in symbols for row in rows
    )


def is_regular_lattice(theta: Theta, a: Sequence[int]) -> bool:
    """True iff every component of a^T M is integral, for the antisymmetric
    matrix M with M_ij = t_ij above the diagonal.

    The pairing b -> a^T M b is Z-linear in b, so integrality against the
    standard basis decides regularity against all of Z^n exactly.  The
    components are integer sums on the compiled M^T (this sits inside box
    scans).
    """
    return _integral(theta.exponents.D, theta.transpose, _check_rank(theta, a))


def _kernel_witness(ex: Exponents, matrix: SlotMatrix, labels: Sequence[str]) -> Vector | None:
    """A nonzero integer vector c with every component of R c integral, or None.

    R = R0 + sum_k R_k t_k is given per slot over ex.D (``matrix[0]`` is
    R0 times D, ``matrix[i]`` is R_k times D for the i-th compiled label).
    c must lie in the kernel of every R_k, which the Hermite form gives
    over Z (the R_k times D stacked in the order of the basis ``labels``,
    a label no entry uses giving zero rows).  Scaling the first kernel
    vector by the lcm of the denominators of R0 c lands every component
    in Z while the symbol parts stay zero.
    """
    rat = matrix[0]
    n = len(rat[0])
    symbols = dict(zip(ex.labels, matrix[1:]))
    zero = [[0] * n] * len(rat)
    stacked = [row for label in labels for row in symbols.get(label, zero)]
    kernel = integer_kernel(clear_denominators(stacked), ncols=n)
    if not kernel:
        return None
    v = kernel[0]
    scale = lcm(*(ex.D // gcd(sum(map(mul, row, v)), ex.D) for row in rat))
    return tuple(scale * x for x in v)


def condition_k_lattice(theta: Theta) -> LatticeDecision:
    """Decide whether (Z^n, sigma_theta) has no nonzero regular vector.

    Split the antisymmetric matrix M = M0 + sum_k M_k t_k over the basis
    symbols, intersect the rational kernels of the M_k^T with Z^n through
    the Hermite form, and either report condition K (trivial kernel) or
    return a denominator-cleared witness vector, re-verified pointwise.
    """
    witness = _kernel_witness(theta.exponents, theta.transpose, theta.basis.labels)
    if witness is None:
        return LatticeDecision(True, None)
    if not is_regular_lattice(theta, witness):
        raise RuntimeError(f"scaling lemma failed for witness {witness}; decision procedure bug")
    return LatticeDecision(False, witness)


def qtheta_dimension(theta: Theta) -> int:
    """Rank over Q of {1, t_12, t_13, t_23} in (rational, symbol) coordinates."""
    if theta.n != 3:
        raise RankMismatch("Q_theta dimension is defined for rank 3")
    labels = theta.basis.labels
    vectors = [[Fraction(1)] + [Fraction(0)] * len(labels)]
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        v = theta.entry(i, j)
        coeffs = dict(v.coeffs)
        vectors.append([v.rat] + [coeffs.get(label, Fraction(0)) for label in labels])
    return rational_rank(vectors)


class LatticeMultiplier(Multiplier):
    """sigma_theta(a, b) = e^(2 pi i sum_{i<j} a_i t_ij b_j) on Z^n."""

    def __init__(self, theta: Theta):
        self.theta = theta
        self.n = theta.n

    def value(self, a, b) -> RotationNumber:
        return torus_value(self.theta, a, b)

    def exponents(self) -> Exponents:
        return self.theta.exponents

    def vector(self, a, b) -> list[int]:
        return _torus_vector(self.theta, a, b)

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(_check_rank(self.theta, a), _check_rank(self.theta, b)))

    def inverse(self, a):
        return tuple(-x for x in _check_rank(self.theta, a))

    def identity_element(self):
        return (0,) * self.n

    def random_element(self, rng: random.Random, box: int):
        return tuple(rng.randint(-box, box) for _ in range(self.n))


# -- the rank-3 free nilpotent group of class 2 --------------------------------


G3_IDENTITY: Vector = (0, 0, 0, 0, 0, 0)


def g3_multiply(a: Sequence[int], b: Sequence[int]) -> Vector:
    """(a . b) = (a1+b1, a2+b2, a3+b3, a4+b4+a1 b2, a5+b5+a1 b3, a6+b6+a2 b3)."""
    a1, a2, a3, a4, a5, a6 = a
    b1, b2, b3, b4, b5, b6 = b
    return (a1 + b1, a2 + b2, a3 + b3, a4 + b4 + a1 * b2, a5 + b5 + a1 * b3, a6 + b6 + a2 * b3)


def g3_inverse(a: Sequence[int]) -> Vector:
    a1, a2, a3, a4, a5, a6 = a
    return (-a1, -a2, -a3, -a4 + a1 * a2, -a5 + a1 * a3, -a6 + a2 * a3)


_MU_KEYS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
# the parameter rows of a compiled MuMatrix: the order g3_value uses them
_G3_ORDER = ((1, 3), (2, 2), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 3))


class MuMatrix:
    """The eight exponent parameters mu_ij of the rank-3 family.

    The ninth value mu_31 is never supplied: it is derived as
    mu_22 - mu_13 (additively) and appears only in the regularity rows,
    where it is exactly the coefficient the central-phase expansion of
    the cocycle produces (see g3_central_phase and the tests).  ``rows``
    is ``row_matrix()`` per slot over ``exponents.D``.
    """

    def __init__(
        self,
        mu: Mapping[tuple[int, int], RotationNumber],
        basis: IrrationalBasis | None = None,
    ):
        self.basis = basis if basis is not None else IrrationalBasis(())
        given = dict(mu)
        if (3, 1) in given:
            raise ValueError("mu_31 is derived (mu_13 - mu_22); do not supply it")
        unknown = set(given) - set(_MU_KEYS)
        if unknown:
            raise ValueError(f"unknown mu keys: {sorted(unknown)}")
        self.mu = {key: given.get(key, ZERO) for key in _MU_KEYS}
        for v in self.mu.values():
            self.basis.check(v)
        self.exponents = compile_params(self.mu[key] for key in _G3_ORDER)
        row = dict(zip(_G3_ORDER, self.exponents.array.tolist()))
        row[(3, 1)] = [x - y for x, y in zip(row[(2, 2)], row[(1, 3)])]
        self.rows = [[[row[(i, j)][slot] for j in (1, 2, 3)] for i in (1, 2, 3)] for slot in range(len(row[(3, 1)]))]

    def param(self, i: int, j: int) -> RotationNumber:
        if (i, j) == (3, 1):
            return self.mu[(2, 2)] - self.mu[(1, 3)]
        return self.mu[(i, j)]

    def row_matrix(self) -> list[list[RotationNumber]]:
        """The 3x3 matrix R with R[i][j] = mu_{i+1, j+1}, row 3 derived."""
        return [[self.param(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]

    def to_json(self) -> dict:
        return {
            "type": "g3",
            "mu": {f"{i}{j}": self.mu[(i, j)].to_json() for (i, j) in _MU_KEYS},
            "basis": list(self.basis.labels),
            "hints": dict(self.basis.float_hints),
        }


def _g3_vector(mu: MuMatrix, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The eight integer exponents of the mu parameters, in _G3_ORDER,
    dotted with the parameter rows.

    The half-terms like b2 a1 (a1 - 1)/2 are products of consecutive
    integers divided by two, hence integers; all eight exponents are
    plain integer multipliers of the mu parameters.  The signs of the a4
    terms in the mu_13 and mu_22 exponents are the unique choice for
    which the cocycle identity holds for arbitrary parameters (verified
    symbolically; the whole-identity defect otherwise is
    (mu_22 - mu_13)^(2 a1 b2 c3)).
    """
    a1, a2, a3, a4, a5, a6 = a
    b1, b2, b3, b4, b5, b6 = b
    return mu.exponents.combine((
        b6 * a1 + b3 * a4,
        b5 * a2 + b3 * (a1 * a2 - a4),
        b4 * a1 + b2 * (a1 * (a1 - 1) // 2),
        a2 * (b4 + a1 * b2) + a1 * (b2 * (b2 - 1) // 2),
        b5 * a1 + b3 * (a1 * (a1 - 1) // 2),
        a3 * (b5 + a1 * b3) + a1 * (b3 * (b3 - 1) // 2),
        b6 * a2 + b3 * (a2 * (a2 - 1) // 2),
        a3 * (b6 + a2 * b3) + a2 * (b3 * (b3 - 1) // 2),
    ))


def g3_value(mu: MuMatrix, a: Sequence[int], b: Sequence[int]) -> RotationNumber:
    """Exact exponent of sigma_mu(a, b) (see _g3_vector)."""
    return mu.exponents.rotation(_g3_vector(mu, a, b))


def _g3_central_vector(mu: MuMatrix, a: Sequence[int], c: Sequence[int]) -> list[int]:
    central = (0, 0, 0, c[0], c[1], c[2])
    return [x - y for x, y in zip(_g3_vector(mu, a, central), _g3_vector(mu, central, a))]


def g3_central_phase(mu: MuMatrix, a: Sequence[int], c: Sequence[int]) -> RotationNumber:
    """Phase sigma(a, c~) conj(sigma(c~, a)) for the central element
    c~ = (0, 0, 0, c1, c2, c3), evaluated directly from the cocycle."""
    return mu.exponents.rotation(_g3_central_vector(mu, a, c))


_G3_PROBES = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (2, -1, 3, 5, -2, 4),
    (-3, 2, -1, 0, 7, 1),
)


def g3_condition_k(mu: MuMatrix) -> LatticeDecision:
    """Decide condition K for the rank-3 family.

    Central regularity of c in Z^3 is equivalent to integrality of R c
    componentwise, where R is the mu row matrix with the derived third
    row.  The same kernel + Hermite + denominator-clearing procedure as
    the torus case decides existence of a nonzero such c; any "false"
    witness is re-verified against direct phase evaluations, and a
    mismatch raises instead of being patched over.
    """
    witness = _kernel_witness(mu.exponents, mu.rows, mu.basis.labels)
    if witness is None:
        return LatticeDecision(True, None)
    for i in range(3):
        if not _integral(mu.exponents.D, [slot[i : i + 1] for slot in mu.rows], witness):
            raise RuntimeError(f"witness {witness} fails criterion row {i + 1}")
    for probe in _G3_PROBES:
        if not mu.exponents.vanishes(_g3_central_vector(mu, probe, witness)):
            raise RuntimeError(
                f"criterion/phase mismatch: witness {witness} not regular against {probe}"
            )
    return LatticeDecision(False, witness)


class G3Multiplier(Multiplier):
    """sigma_mu on the rank-3 free nilpotent group of class 2."""

    def __init__(self, mu: MuMatrix):
        self.mu = mu

    def exponents(self) -> Exponents:
        return self.mu.exponents

    def vector(self, a, b) -> list[int]:
        return _g3_vector(self.mu, a, b)

    def multiply(self, a, b):
        return g3_multiply(a, b)

    def inverse(self, a):
        return g3_inverse(a)

    def identity_element(self):
        return G3_IDENTITY

    def random_element(self, rng: random.Random, box: int):
        return tuple(rng.randint(-box, box) for _ in range(6))

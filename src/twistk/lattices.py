"""Infinite cocycle families on integer lattices.

Two families: Z^n with the bilinear cocycles of the noncommutative
n-torus, and the free nilpotent group of class 2 and rank 3 (as Z^6 with
a twisted product).  Condition K for both reduces to the existence of a
nonzero integer vector killed by the irrational components of an exact
matrix, decided by an integer kernel computation plus a denominator-
clearing scaling for the rational component.

The parameters (the theta entries; the eight mu, in the order
``g3_value`` uses them) are held only compiled, as ``Exponents``, and
``vector`` dots the integer coefficients (a_i b_j, or the eight g3
exponents) with the parameter rows; ``to_json`` and ``row_matrix`` alone
turn a row back into a RotationNumber.

Each family states its formula once, for one pair and for m pairs as
coordinate columns alike: ``_torus_vector`` gathers the products a_i b_j
of the P entries and multiplies them into the compiled rows, and
``g3_multiply`` and ``_g3_vector`` are integer arithmetic on ints or
columns.  ``validate`` draws a chunk of triples through
``random_element``, in the loop's order on the ``rng.randint`` stream,
checks it in one ``vector`` call on about BLOCK words, and on a failure
rewinds the stream and draws again up to the failing triple.  The
columns are int64 where every coordinate and sum stays below 2^63
(``column_dtype``: a coefficient is at most 2 box^2 on the torus and
28 box^3 on g3), and exact Python ints otherwise.

M^T and the g3 rows are kept per slot over D (slot 0 rational, slot i
the i-th compiled label): the regularity test and the witness re-checks
are integer sums on them, and the Hermite form gets the symbol slots as
they are, times D (``clear_denominators`` finds nothing to clear there
and stays the named step that ``bench/spans.py`` times).  With its
minimal-|pivot| choice the form makes the same row operations on any
positive multiple of its input ((c a) // (c p) = a // p), so the kernel
basis, and with it the witness, is the one the rational matrix gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Mapping, Sequence

import numpy as np

from .intlinalg import clear_denominators, integer_kernel
from .multipliers import BLOCK, Exponents, Multiplier, compile_params, draw
from .torus import IrrationalBasis, RotationNumber

Vector = tuple[int, ...]
Pair = tuple[int, int]
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
    """Upper-triangular exponent data t_ij (0-based, i < j) on Z^n, held
    compiled: ``exponents`` has a row per entry that is not integral, and
    ``pairs`` its (i, j).  The constructor compiles RotationNumbers;
    ``from_compiled`` takes every entry's (i, j) and row, as ``io`` decodes
    them.  Each entry is checked in order: index range, then symbols."""

    def __init__(self, n: int, entries: Mapping[Pair, RotationNumber], basis: IrrationalBasis | None = None):
        self._init(n, tuple(entries), compile_params(entries.values()), basis)

    @classmethod
    def from_compiled(cls, n: int, pairs: Sequence[Pair], compiled: Exponents, basis: IrrationalBasis) -> "Theta":
        theta = cls.__new__(cls)
        theta._init(n, pairs, compiled, basis)
        return theta

    def _init(self, n: int, pairs: Sequence[Pair], compiled: Exponents, basis: IrrationalBasis | None) -> None:
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n = n
        self.basis = basis if basis is not None else IrrationalBasis(())
        rows = compiled.array.tolist()
        for (i, j), row in zip(pairs, rows):
            if not 0 <= i < j < n:
                raise ValueError(f"entry index ({i},{j}) out of range for rank {n}")
            self.basis.check_labels(label for label, c in zip(compiled.labels, row[1:]) if c)
        kept = [p for p, row in enumerate(rows) if any(row)]
        self.pairs = tuple(pairs[p] for p in kept)
        self.exponents = Exponents(compiled.D, compiled.labels, compiled.array[kept])

    @cached_property
    def _index(self) -> np.ndarray:
        """The (i, j) of the kept entries as a (2, P) index array."""
        return np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T

    @cached_property
    def transpose(self) -> SlotMatrix:
        """M^T per slot, for the antisymmetric M with M_ij = t_ij (i < j)."""
        mt = [[[0] * self.n for _ in range(self.n)] for _ in range(self.exponents.array.shape[1])]
        for (i, j), row in zip(self.pairs, self.exponents.array.tolist()):
            for slot, x in zip(mt, row):
                slot[j][i], slot[i][j] = x, -x
        return mt

    def to_json(self) -> dict:
        rows = sorted(zip(self.pairs, self.exponents.array.tolist()))
        return {
            "type": "torus",
            "n": self.n,
            "theta": {f"{i + 1},{j + 1}": self.exponents.rotation(row).to_json() for (i, j), row in rows},
            "basis": list(self.basis.labels),
        }


def _check_rank(theta: Theta, vec: Sequence[int]) -> Vector:
    v = tuple(int(x) for x in vec)
    if len(v) != theta.n:
        raise RankMismatch(f"vector rank {len(v)} != {theta.n}")
    return v


def _torus_vector(theta: Theta, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{i<j} a_i b_j t_ij per slot, (1+k,) or (1+k, m), for coordinate
    arrays a and b of shape (n,) or (n, m) in a dtype that holds every sum:
    the products a_i b_j of the P kept entries times the compiled rows,
    BLOCK // m entries at a time."""
    i, j = theta._index
    rows = theta.exponents.array
    step = max(1, BLOCK * len(a) // a.size)
    total = 0
    for p in range(0, max(len(i), 1), step):  # one pass with no entries: a zero of the right shape
        k = a[i[p : p + step]]
        k *= b[j[p : p + step]]
        total = total + rows[p : p + step].T @ k
    return total


def torus_value(theta: Theta, a: Sequence[int], b: Sequence[int]) -> RotationNumber:
    """Exponent sum_{i<j} a_i t_ij b_j."""
    a, b = _check_rank(theta, a), _check_rank(theta, b)
    dtype = theta.exponents.combination_dtype(max(map(abs, a + b), default=0) ** 2)
    return theta.exponents.rotation(_torus_vector(theta, np.array(a, dtype=dtype), np.array(b, dtype=dtype)).tolist())


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


def _decide(
    ex: Exponents, matrix: SlotMatrix, labels: Sequence[str], regular: Callable[[Vector], bool]
) -> LatticeDecision:
    """Condition K from a nonzero integer vector c with every component of
    R c integral: none gives condition K, else c is the witness.

    R = R0 + sum_k R_k t_k is given per slot over ex.D (``matrix[0]`` is
    R0 times D, ``matrix[i]`` is R_k times D for the i-th compiled label).
    c must lie in the kernel of every R_k, which the Hermite form gives
    over Z (the R_k times D of the labels with a slot, in the order of the
    basis ``labels``: another label's zero rows would change no row
    operation of the form).  Scaling the first kernel vector by the lcm of
    the denominators of R0 c lands every component in Z while the symbol
    parts stay zero.  The family's own test ``regular`` re-checks the
    witness, and a failure raises instead of being patched over.
    """
    rat = matrix[0]
    symbols = dict(zip(ex.labels, matrix[1:]))
    stacked = [row for label in labels if label in symbols for row in symbols[label]]
    kernel = integer_kernel(clear_denominators(stacked), ncols=len(rat[0]))
    if not kernel:
        return LatticeDecision(True, None)
    v = kernel[0]
    scale = lcm(*(ex.D // gcd(sum(map(mul, row, v)), ex.D) for row in rat))
    witness = tuple(scale * x for x in v)
    if not regular(witness):
        raise RuntimeError(f"witness {witness} fails the regularity re-check; decision procedure bug")
    return LatticeDecision(False, witness)


def condition_k_lattice(theta: Theta) -> LatticeDecision:
    """Decide whether (Z^n, sigma_theta) has no nonzero regular vector.

    Split the antisymmetric matrix M = M0 + sum_k M_k t_k over the basis
    symbols, intersect the rational kernels of the M_k^T with Z^n through
    the Hermite form, and either report condition K (trivial kernel) or
    return a denominator-cleared witness vector, re-verified pointwise.
    """
    return _decide(theta.exponents, theta.transpose, theta.basis.labels, lambda v: is_regular_lattice(theta, v))


def qtheta_dimension(theta: Theta) -> int:
    """Rank over Q of {1, t_12, t_13, t_23}: the compiled rows of the three
    entries (zero where one is integral) and the row [D, 0, ...] for 1, read
    as the number of columns less the rank of their integer kernel."""
    if theta.n != 3:
        raise RankMismatch("Q_theta dimension is defined for rank 3")
    ex = theta.exponents
    zero = [0] * ex.array.shape[1]
    row = dict(zip(theta.pairs, ex.array.tolist()))
    rows = [[ex.D, *zero[1:]]] + [row.get(pair, zero) for pair in ((0, 1), (0, 2), (1, 2))]
    return len(zero) - len(integer_kernel(rows))


class LatticeMultiplier(Multiplier):
    """sigma_theta(a, b) = e^(2 pi i sum_{i<j} a_i t_ij b_j) on Z^n."""

    def __init__(self, theta: Theta):
        self.theta = theta
        self.n = theta.n

    def value(self, a, b) -> RotationNumber:
        return torus_value(self.theta, a, b)

    def exponents(self) -> Exponents:
        return self.theta.exponents

    def vector(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _torus_vector(self.theta, a, b)

    def multiply(self, a, b):
        """a + b, of two elements or of two (n, m) coordinate arrays."""
        if isinstance(a, np.ndarray):
            return a + b
        return tuple(x + y for x, y in zip(_check_rank(self.theta, a), _check_rank(self.theta, b)))

    def column_dtype(self, box: int):
        """Each coefficient a_i b_j of ``validate`` has a drawn factor (at most
        box) and one drawn or of a product (2 box): at most 2 box^2."""
        return self.theta.exponents.combination_dtype(2 * box * box)

    def identity_element(self):
        return (0,) * self.n

    def random_element(self, rng: random.Random, box: int):
        return tuple([draw(rng, -box, box) for _ in range(self.n)])


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
    """The eight exponent parameters mu_ij of the rank-3 family, held
    compiled (0 where one is not given), built like ``Theta``: from
    RotationNumbers, or ``from_compiled`` from the keys (i, j) and rows.

    The ninth value mu_31 is never supplied: it is derived as
    mu_22 - mu_13 (additively) and appears only in the regularity rows,
    where it is exactly the coefficient the central-phase expansion of
    the cocycle produces (see g3_central_phase and the tests).  ``rows``
    is ``row_matrix()`` per slot over ``exponents.D``.
    """

    def __init__(self, mu: Mapping[Pair, RotationNumber], basis: IrrationalBasis | None = None):
        self._init(tuple(mu), compile_params(mu.values()), basis)

    @classmethod
    def from_compiled(cls, keys: Sequence[Pair], compiled: Exponents, basis: IrrationalBasis) -> "MuMatrix":
        mu = cls.__new__(cls)
        mu._init(keys, compiled, basis)
        return mu

    def _init(self, keys: Sequence[Pair], compiled: Exponents, basis: IrrationalBasis | None) -> None:
        self.basis = basis if basis is not None else IrrationalBasis(())
        if (3, 1) in keys:
            raise ValueError("mu_31 is derived (mu_13 - mu_22); do not supply it")
        unknown = set(keys) - set(_MU_KEYS)
        if unknown:
            raise ValueError(f"unknown mu keys: {sorted(unknown)}")
        given = dict(zip(keys, compiled.array.tolist()))
        for key in sorted(given):  # the order of _MU_KEYS
            self.basis.check_labels(label for label, c in zip(compiled.labels, given[key][1:]) if c)
        row = {key: given.get(key, [0] * compiled.array.shape[1]) for key in _G3_ORDER}
        array = np.array(list(row.values()), dtype=compiled.array.dtype)
        self.exponents = Exponents(compiled.D, compiled.labels, array)
        row[(3, 1)] = [x - y for x, y in zip(row[(2, 2)], row[(1, 3)])]
        self.rows = [[[row[(i, j)][slot] for j in (1, 2, 3)] for i in (1, 2, 3)] for slot in range(len(row[(3, 1)]))]

    def row_matrix(self) -> list[list[RotationNumber]]:
        """The 3x3 matrix R with R[i][j] = mu_{i+1, j+1}, row 3 derived."""
        return [[self.exponents.rotation([slot[i][j] for slot in self.rows]) for j in range(3)] for i in range(3)]

    def to_json(self) -> dict:
        rows = self.row_matrix()
        return {
            "type": "g3",
            "mu": {f"{i}{j}": rows[i - 1][j - 1].to_json() for (i, j) in _MU_KEYS},
            "basis": list(self.basis.labels),
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
    the torus case decides existence of a nonzero such c; ``_decide``
    re-checks a witness on all three rows of R and against direct phase
    evaluations at ``_G3_PROBES``, and a mismatch raises.
    """

    def regular(v: Vector) -> bool:
        if not _integral(mu.exponents.D, mu.rows, v):
            return False
        return all(mu.exponents.vanishes(_g3_central_vector(mu, probe, v)) for probe in _G3_PROBES)

    return _decide(mu.exponents, mu.rows, mu.basis.labels, regular)


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

    def column_dtype(self, box: int):
        """With r = box, a coordinate of a product is at most p = 2r (first
        three) or q = r^2 + 2r (last three), so each coefficient of
        ``_g3_vector`` and its partial terms are at most 2pq + 2p^3 <= 28r^3."""
        return self.mu.exponents.combination_dtype(28 * box**3)

    def random_element(self, rng: random.Random, box: int):
        return tuple([draw(rng, -box, box) for _ in range(6)])

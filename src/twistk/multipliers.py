"""Multipliers (2-cocycles with values in the circle) and their algebra.

A multiplier on G is a function sigma: G x G -> T with

    sigma(a,b) sigma(ab,c) = sigma(a,bc) sigma(b,c),
    sigma(a,e) = sigma(e,a) = 1,

stored here additively as RotationNumber exponents.

A finite multiplier is compiled once, by ``exponents()``, to integers
over a common denominator D (``Exponents``): slot 0 of an (|G|, |G|, 1+k)
array holds the rational part times D, mod D, and slot i the coefficient
of the i-th declared symbol times D.  Every finite class of H^2(G, T) has
a representative with values in the |G|-th roots of unity, so D stays
small in practice; an array whose sums could pass 2^63 holds exact
Python ints instead of int64, so no comparison ever wraps.  A finite
multiplier has one proof, run as numpy operations on this array and the
group's ``array``: ``validate`` checks the identity row and column, then
the cocycle identity on the |S| |G|^2 triples (a, s, c) with s in the
generating set S of ``FiniteGroup.generators``, which proves it on all
|G|^3 triples (Light's test); ``require_multiplier`` raises on its
failure.

A finite family writes its closed form once, in ``_compile``; ``vector``
and ``value`` read the compiled entry (a table keeps its stored values).

An infinite family (torus, g3, free product) takes integer combinations
of finitely many parameters: ``exponents()`` holds the P parameters,
compiled once (``compile_params``) to a (P, 1+k) array over a common D,
and ``vector(a, b)`` is the exponent of sigma(a, b) times D, as 1+k
Python ints (``Exponents.combine`` of the parameter rows).  ``validate``
fuzzes these families on random triples from a bounded box with integer
vector sums, exact at any box; a ``RotationNumber`` is built
(``Exponents.rotation``) only where a value leaves the engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import FiniteGroup, cyclic, direct_product
from .torus import ZERO, RotationNumber

# 8-byte words per temporary of the blockwise cocycle scans (1 MiB of int64).
BLOCK = 1 << 17


class DomainMismatch(ValueError):
    """Operands live on different groups."""


class NotNormalized(ValueError):
    """A normalized multiplier was required (sigma(a, a^-1) = 1)."""


class NotAMultiplier(ValueError):
    """A finite table breaks the cocycle identities; ``witness`` is a
    violating triple (a, b, c) or identity pair (a, e)."""

    def __init__(self, witness: tuple, reason: str):
        super().__init__(f"{reason} fails at {witness}")
        self.witness = witness
        self.reason = reason


@dataclass(frozen=True, eq=False)
class Exponents:
    """Exponents over a common denominator D: entry x of ``array`` (its last
    axis) stands for (x[0] + sum_i x[i] * labels[i - 1]) / D, with x[0] in
    [0, D).  ``array`` is (|G|, |G|, 1+k) for a finite multiplier and
    (P, 1+k) for the parameters of an infinite family; int64, or object
    (exact Python ints) when a sum of four entries could reach 2^63."""

    D: int
    labels: tuple[str, ...]
    array: np.ndarray

    def is_zero(self, diff: np.ndarray) -> np.ndarray:
        """Which exponents of a difference (last axis the slots) are 0 mod 1:
        slot 0 vanishes mod D and every symbol slot vanishes."""
        zero = diff[..., 0] % self.D == 0
        if diff.shape[-1] > 1:
            zero &= (diff[..., 1:] == 0).all(axis=-1)
        return zero

    def vanishes(self, x: Sequence[int]) -> bool:
        """Whether one vector of Python ints is 0 mod 1 (``is_zero`` of one exponent)."""
        return x[0] % self.D == 0 and not any(x[1:])

    def rotation(self, x: Sequence[int]) -> RotationNumber:
        """The exponent x / D of one vector as a RotationNumber."""
        D = self.D
        return RotationNumber(Fraction(x[0], D), {label: Fraction(c, D) for label, c in zip(self.labels, x[1:]) if c})

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.T.tolist()))

    def combine(self, coefficients: Sequence[int]) -> list[int]:
        """sum_p coefficients[p] * array[p] for a (P, 1+k) parameter array:
        the vector of that integer combination of the parameters."""
        return [sum(map(mul, coefficients, column)) for column in self._columns]

    def recast(self, D: int, labels: tuple[str, ...], dtype) -> np.ndarray:
        """The array over the denominator D (a multiple of self.D) and the slots of ``labels``."""
        out = np.zeros(self.array.shape[:-1] + (1 + len(labels),), dtype=dtype)
        slots = [0] + [1 + labels.index(label) for label in self.labels]
        out[..., slots] = self.array.astype(dtype) * (D // self.D)
        return out


def common_frame(parts: Sequence[Exponents]) -> tuple[int, tuple[str, ...]]:
    """The denominator and labels that ``recast`` can take every part to."""
    return math.lcm(*(p.D for p in parts)), tuple(sorted(set().union(*(p.labels for p in parts))))


def exact_dtype(bound: int):
    """int64 while four entries of magnitude ``bound`` (and D) cannot reach 2^63."""
    return np.int64 if 4 * bound < 2**63 else object


def compile_values(rows: Sequence[Sequence[RotationNumber]]) -> Exponents:
    """A dense table of exponents compiled: each distinct entry object is
    converted once, then the table is gathered from them."""
    flat = [x for row in rows for x in row]
    ids = np.fromiter(map(id, flat), dtype=np.uint64, count=len(flat))
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [flat[i] for i in first]
    D = math.lcm(*(x.rat.denominator for x in distinct), *(c.denominator for x in distinct for _, c in x.coeffs))
    labels = tuple(sorted({label for x in distinct for label, _ in x.coeffs}))
    slot = {label: i for i, label in enumerate(labels, 1)}
    unique = []
    for x in distinct:
        entry = [x.rat.numerator * (D // x.rat.denominator)] + [0] * len(labels)
        for label, c in x.coeffs:
            entry[slot[label]] = c.numerator * (D // c.denominator)
        unique.append(entry)
    bound = max(D, max((abs(v) for entry in unique for v in entry), default=0))
    table = np.array(unique, dtype=exact_dtype(bound))[index]
    return Exponents(D, labels, table.reshape(len(rows), len(rows[0]), 1 + len(labels)))


def compile_params(values: Iterable[RotationNumber]) -> Exponents:
    """The P parameters of an infinite family compiled to a (P, 1+k) array."""
    ex = compile_values([list(values)])
    return Exponents(ex.D, ex.labels, ex.array[0])


@dataclass
class ValidationReport:
    ok: bool
    checked: int
    mode: str  # "exhaustive" | "fuzz"
    witness: tuple | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class Multiplier:
    """Base interface: an exact cocycle value for a pair of elements."""

    def value(self, a, b) -> RotationNumber:
        return self.exponents().rotation(self.vector(a, b))

    def exponents(self) -> Exponents:
        raise NotImplementedError

    def vector(self, a, b) -> list[int]:
        """The exponent of sigma(a, b) times exponents().D, as Python ints."""
        raise NotImplementedError

    def multiply(self, a, b):
        """Group multiplication in the multiplier's domain."""
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def identity_element(self):
        raise NotImplementedError

    def random_element(self, rng: random.Random, box: int):
        """A random domain element with coordinates in [-box, box] (infinite families)."""
        raise NotImplementedError


class FiniteMultiplier(Multiplier):
    """A multiplier on a finite table group; elements are indices."""

    group: FiniteGroup
    _exponents: Exponents | None = None

    def exponents(self) -> Exponents:
        """The compiled (|G|, |G|, 1+k) form, computed once per instance."""
        if self._exponents is None:
            self._exponents = self._compile()
        return self._exponents

    def _compile(self) -> Exponents:
        raise NotImplementedError

    def vector(self, a: int, b: int) -> list[int]:
        return self.exponents().array[a, b].tolist()

    def multiply(self, a: int, b: int) -> int:
        return self.group.mul(a, b)

    def inverse(self, a: int) -> int:
        return self.group.inv(a)

    def identity_element(self) -> int:
        return self.group.identity

    def to_table(self) -> "TableMultiplier":
        n = self.group.order
        return TableMultiplier(self.group, [[self.value(a, b) for b in range(n)] for a in range(n)])

    def is_normalized(self) -> bool:
        g = self.group
        return all(self.value(a, g.inv(a)).is_integral() for a in g.elements())


class TableMultiplier(FiniteMultiplier):
    """Dense |G| x |G| table of exponents."""

    def __init__(self, group: FiniteGroup, values: Sequence[Sequence[RotationNumber]]):
        n = group.order
        if len(values) != n or any(len(row) != n for row in values):
            raise DomainMismatch("table shape does not match group order")
        self.group = group
        self.values = tuple(tuple(row) for row in values)

    def value(self, a: int, b: int) -> RotationNumber:
        return self.values[a][b]

    def _compile(self) -> Exponents:
        return compile_values(self.values)

    def to_table(self) -> "TableMultiplier":
        return self


class KleinMultiplier(FiniteMultiplier):
    """sigma_k on Z_n x Z_n: sigma_k((a1,a2),(b1,b2)) = e^(2 pi i (k/n) a2 b1).

    These represent the order-n cyclic family of cohomology classes on
    Z_n x Z_n; k coprime to n gives the matrix-algebra case.
    """

    def __init__(self, n: int, k: int):
        if n < 2:
            raise ValueError("klein multiplier needs n >= 2")
        if not 0 <= k < n:
            raise ValueError("klein multiplier needs 0 <= k < n")
        self.n = n
        self.k = k
        z = cyclic(n)
        self.group = direct_product(z, z)

    def _compile(self) -> Exponents:
        x = np.arange(self.n * self.n, dtype=np.int64)
        table = self.k * (x % self.n)[:, None] * (x // self.n)[None, :] % self.n
        return Exponents(self.n, (), table[:, :, None])


def klein(n: int, k: int) -> KleinMultiplier:
    return KleinMultiplier(n, k)


def trivial_multiplier(group: FiniteGroup) -> TableMultiplier:
    n = group.order
    return TableMultiplier(group, [[ZERO] * n for _ in range(n)])


def abelian_group(orders: Sequence[int]) -> FiniteGroup:
    """Product of cyclic groups Z_orders[0] x Z_orders[1] x ..., row-major packing."""
    g = cyclic(orders[0])
    for n in orders[1:]:
        g = direct_product(g, cyclic(n))
    return g


def bilinear_multiplier(orders: Sequence[int], bmatrix: Sequence[Sequence[Fraction]]) -> TableMultiplier:
    """sigma(a, b) = sum_ij B[i][j] a_i b_j on a product of cyclic groups.

    Any bilinear form is a 2-cocycle; well-definedness mod the cyclic
    orders requires B[i][j] * orders[i] and B[i][j] * orders[j] integral,
    i.e. B[i][j] a multiple of 1/gcd(orders[i], orders[j]).
    """
    k = len(orders)
    for i in range(k):
        for j in range(k):
            c = Fraction(bmatrix[i][j])
            g = math.gcd(orders[i], orders[j])
            if (c * g).denominator != 1:
                raise ValueError(f"B[{i}][{j}] = {c} is not a multiple of 1/gcd = 1/{g}")
    group = abelian_group(orders)

    def unpack(idx: int) -> list[int]:
        coords = []
        for n in reversed(orders):
            idx, r = divmod(idx, n)
            coords.append(r)
        return coords[::-1]

    coords = [unpack(a) for a in range(group.order)]
    values = [
        [
            RotationNumber(sum(Fraction(bmatrix[i][j]) * ca[i] * cb[j] for i in range(k) for j in range(k)))
            for cb in coords
        ]
        for ca in coords
    ]
    return TableMultiplier(group, values)


# -- validation --------------------------------------------------------------


def validate(
    sigma: Multiplier,
    rng: random.Random | None = None,
    triples: int = 10000,
    box: int = 5,
) -> ValidationReport:
    """Check the cocycle identity and the identity-row normalization.

    A finite multiplier is proven through the generating set S of its
    group: the identity row and column, then the cocycle identity on the
    triples (a, s, c) with s in S.  In the extension T x G with product
    (x,a)(y,b) = (x+y+sigma(a,b), ab) these say that every (x, s)
    associates in the middle; the middle elements that associate are
    closed under products (Light's test) and (x, e) is one of them, so the
    closure of {e} under y -> y s, which is G, satisfies the identity for
    all a, c.  A valid table reports ``checked`` = |G|^3, the triples the
    proof covers.  A failure reports the first (a, s, c) in the order a,
    then s in the order of S, then c, and ``checked`` = (a |S| + j) |G| + c
    triples compared before it, s the j-th generator; a failing identity
    row or column reports (a, e) and ``checked`` = |G|.

    Infinite families are fuzzed on `triples` random triples with
    coordinates in [-box, box].  A violation is reported with its witness
    triple, not raised.
    """
    if isinstance(sigma, FiniteMultiplier):
        g = sigma.group
        n, e = g.order, g.identity
        ex = sigma.exponents()
        a = _unit_failure(ex, e)
        if a is not None:
            return ValidationReport(False, n, "exhaustive", (a, e, None), "identity row/column")
        failure = _cocycle_failure(ex, g)
        if failure is not None:
            checked, witness = failure
            return ValidationReport(False, checked, "exhaustive", witness, "cocycle identity")
        return ValidationReport(True, n**3, "exhaustive")

    rng = rng or random.Random(0)
    e = sigma.identity_element()
    vanishes = sigma.exponents().vanishes
    vector = sigma.vector
    for checked in range(triples):
        a = sigma.random_element(rng, box)
        b = sigma.random_element(rng, box)
        c = sigma.random_element(rng, box)
        if not vanishes(vector(a, e)) or not vanishes(vector(e, a)):
            return ValidationReport(False, checked, "fuzz", (a, e, None), "identity row/column")
        ab = sigma.multiply(a, b)
        bc = sigma.multiply(b, c)
        defect = [p + q - r - s for p, q, r, s in zip(vector(a, b), vector(ab, c), vector(a, bc), vector(b, c))]
        if not vanishes(defect):
            return ValidationReport(False, checked, "fuzz", (a, b, c), "cocycle identity")
    return ValidationReport(True, triples, "fuzz")


def _unit_failure(ex: Exponents, e: int) -> int | None:
    """The first a with sigma(a, e) or sigma(e, a) not 1."""
    bad = ~(ex.is_zero(ex.array[:, e]) & ex.is_zero(ex.array[e, :]))
    return int(bad.argmax()) if bad.any() else None


def _cocycle_failure(ex: Exponents, g: FiniteGroup) -> tuple[int, tuple[int, int, int]] | None:
    """The first (a, s, c), s in ``g.generators()``, with
    sigma(a,s) + sigma(as,c) != sigma(a,sc) + sigma(s,c), in the order a,
    s, c, and the number of triples compared before it; scanned in blocks
    of a so that no temporary holds more than about BLOCK 8-byte words (an
    exact int of an object array counts as 4 + D.bit_length() // 60 words)."""
    s = np.asarray(g.generators(), dtype=np.intp)
    if not s.size:  # the trivial group has no generators
        return None
    E, t = ex.array, g.array
    n = len(t)
    sc, sigma_sc = t[s], E[s]
    words = 4 + ex.D.bit_length() // 60 if E.dtype == object else 1
    step = max(1, BLOCK // (len(s) * n * E.shape[-1] * words))
    for a0 in range(0, n, step):
        a = np.arange(a0, min(n, a0 + step))
        defect = E[t[np.ix_(a, s)]]  # sigma(as, c)
        defect += E[np.ix_(a, s)][:, :, None]
        defect -= E[a[:, None, None], sc]
        defect -= sigma_sc
        bad = np.flatnonzero(~ex.is_zero(defect))
        if bad.size:
            i, j, c = np.unravel_index(bad[0], defect.shape[:3])
            return a0 * len(s) * n + int(bad[0]), (int(a[i]), int(s[j]), int(c))
    return None


def require_multiplier(sigma: FiniteMultiplier) -> None:
    """Raise NotAMultiplier, with the witness of ``validate`` ((a, s, c), or
    (a, e) for the identity row and column), unless sigma is a multiplier."""
    report = validate(sigma)
    if not report:
        raise NotAMultiplier(tuple(w for w in report.witness if w is not None), report.reason)


# -- similarity ---------------------------------------------------------------


class SimilarityWitness:
    """The function beta: G -> T of a coboundary, with beta(e) = 1."""

    def __init__(self, beta: Sequence | Callable):
        if callable(beta):
            self._fn = beta
        else:
            values = tuple(beta)
            self._fn = lambda a: values[a]

    def __call__(self, a) -> RotationNumber:
        return self._fn(a)


def is_similar(
    sigma: Multiplier,
    tau: Multiplier,
    witness: SimilarityWitness,
    pairs: Iterable[tuple] | None = None,
) -> bool:
    """tau(a,b) = beta(a) beta(b) conj(beta(ab)) sigma(a,b) on all checked pairs."""
    if pairs is None:
        if not (isinstance(sigma, FiniteMultiplier) and isinstance(tau, FiniteMultiplier)):
            raise ValueError("explicit pairs required for infinite domains")
        if sigma.group.table != tau.group.table:
            raise DomainMismatch("similarity requires a common group")
        g = sigma.group
        pairs = ((a, b) for a in g.elements() for b in g.elements())
        mul = g.mul
    else:
        mul = sigma.multiply  # word-domain multipliers provide multiply()
    for a, b in pairs:
        ab = mul(a, b)
        if tau.value(a, b) != witness(a) + witness(b) - witness(ab) + sigma.value(a, b):
            return False
    return True


def coboundary_twist(sigma: FiniteMultiplier, beta: Sequence[RotationNumber]) -> TableMultiplier:
    """The similar multiplier tau(a,b) = beta(a)+beta(b)-beta(ab)+sigma(a,b)."""
    g = sigma.group
    if len(beta) != g.order:
        raise DomainMismatch("beta length != group order")
    if not (-beta[g.identity]).is_integral():
        raise ValueError("beta(e) must be 1")
    values = [
        [beta[a] + beta[b] - beta[g.mul(a, b)] + sigma.value(a, b) for b in g.elements()]
        for a in g.elements()
    ]
    return TableMultiplier(g, values)


def random_coboundary(
    group: FiniteGroup,
    rng: random.Random,
    denominators: Sequence[int] = (2, 3, 4, 5, 6, 8, 12),
) -> list[RotationNumber]:
    """A random beta: G -> T with rational values and beta(e) = 1."""
    beta = []
    for a in group.elements():
        if a == group.identity:
            beta.append(ZERO)
        else:
            q = rng.choice(denominators)
            beta.append(RotationNumber(Fraction(rng.randrange(q), q)))
    return beta


# -- normalization ------------------------------------------------------------


def normalize(sigma: FiniteMultiplier) -> tuple[TableMultiplier, SimilarityWitness]:
    """A similar multiplier with sigma'(a, a^-1) = 1 for every a.

    beta is chosen pairwise: on each pair {a, a^-1} with a != a^-1 one
    representative gets beta = 1 and the other beta = conj(sigma(r, r^-1));
    an involution a = a^-1 gets beta(a) = conj(halve(sigma(a, a))), using
    the square root with representative in [0, 1).  Since any multiplier
    has sigma(a, a^-1) = sigma(a^-1, a), this normalizes both orders.
    """
    g = sigma.group
    beta: list[RotationNumber | None] = [None] * g.order
    for a in g.elements():
        if beta[a] is not None:
            continue
        ainv = g.inv(a)
        if a == ainv:
            beta[a] = -sigma.value(a, a).halve()
        else:
            beta[a] = ZERO
            beta[ainv] = -sigma.value(a, ainv)
    beta[g.identity] = ZERO
    normalized = coboundary_twist(sigma, beta)  # type: ignore[arg-type]
    return normalized, SimilarityWitness(tuple(beta))

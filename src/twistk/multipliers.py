"""Multipliers (2-cocycles with values in the circle) and their algebra.

A multiplier on G is a function sigma: G x G -> T with

    sigma(a,b) sigma(ab,c) = sigma(a,bc) sigma(b,c),
    sigma(a,e) = sigma(e,a) = 1,

stored here additively as RotationNumber exponents.  Finite-domain
multipliers are validated exhaustively; infinite families are fuzzed on
random triples from a bounded box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .groups import FiniteGroup, cyclic, direct_product
from .torus import ZERO, RotationNumber, rot


class DomainMismatch(ValueError):
    """Operands live on different groups."""


class NotNormalized(ValueError):
    """A normalized multiplier was required (sigma(a, a^-1) = 1)."""


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

    def is_finite(self) -> bool:
        return False


class FiniteMultiplier(Multiplier):
    """A multiplier on a finite table group; elements are indices."""

    group: FiniteGroup

    def multiply(self, a: int, b: int) -> int:
        return self.group.mul(a, b)

    def inverse(self, a: int) -> int:
        return self.group.inv(a)

    def identity_element(self) -> int:
        return self.group.identity

    def is_finite(self) -> bool:
        return True

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

    def coords(self, a: int) -> tuple[int, int]:
        return divmod(a, self.n)

    def value(self, a: int, b: int) -> RotationNumber:
        _, a2 = divmod(a, self.n)
        b1, _ = divmod(b, self.n)
        return RotationNumber(Fraction(self.k * a2 * b1, self.n))


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
    import math

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

    Finite domains are checked exhaustively over all |G|^3 triples;
    infinite families are fuzzed on `triples` random triples with
    coordinates in [-box, box].  A violation is reported with its witness
    triple, not raised.
    """
    if sigma.is_finite():
        g = sigma.group
        n = g.order
        e = g.identity
        val = sigma.value
        for a in range(n):
            if not val(a, e).is_integral() or not val(e, a).is_integral():
                return ValidationReport(False, n, "exhaustive", (a, e, None), "identity row/column")
        checked = 0
        table = [[val(a, b) for b in range(n)] for a in range(n)]
        mul = g.table
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                s_ab = table[a][b]
                row_b = mul[b]
                for c in range(n):
                    if s_ab + table[ab][c] != table[a][row_b[c]] + table[b][c]:
                        return ValidationReport(False, checked, "exhaustive", (a, b, c), "cocycle identity")
                    checked += 1
        return ValidationReport(True, checked, "exhaustive")

    rng = rng or random.Random(0)
    e = sigma.identity_element()
    checked = 0
    for _ in range(triples):
        a = sigma.random_element(rng, box)
        b = sigma.random_element(rng, box)
        c = sigma.random_element(rng, box)
        if not sigma.value(a, e).is_integral() or not sigma.value(e, a).is_integral():
            return ValidationReport(False, checked, "fuzz", (a, e, None), "identity row/column")
        ab = sigma.multiply(a, b)
        bc = sigma.multiply(b, c)
        lhs = sigma.value(a, b) + sigma.value(ab, c)
        rhs = sigma.value(a, bc) + sigma.value(b, c)
        if lhs != rhs:
            return ValidationReport(False, checked, "fuzz", (a, b, c), "cocycle identity")
        checked += 1
    return ValidationReport(True, checked, "fuzz")


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
        if not (sigma.is_finite() and tau.is_finite()):
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

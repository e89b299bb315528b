"""Multipliers on direct products G1 x G2 assembled from a triple
(sigma1, sigma2, f) with f a bihomomorphism, and the combinatorial
primeness criterion for such products.

Every multiplier on a direct product is similar to one of this shape;
the cross-term f is what obstructs a tensor factorization, and its
degeneracy on finite classes decides condition K for the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import FiniteGroup, cyclic, direct_product
from .multipliers import DomainMismatch, FiniteMultiplier
from .regularity import is_regular_element
from .torus import ZERO, RotationNumber


class InvalidBihomomorphism(ValueError):
    pass


class LemmaViolation(RuntimeError):
    """The two-of-three regularity lemma failed: an implementation bug."""


class Bihomomorphism:
    """f: G1 x G2 -> T, multiplicative in each variable separately.

    Stored as a dense exponent table and validated exhaustively on
    construction: f(a1 b1, a2) = f(a1, a2) + f(b1, a2) and symmetrically,
    which forces f(e, .) = f(., e) = 0.
    """

    def __init__(self, g1: FiniteGroup, g2: FiniteGroup, table: Sequence[Sequence[RotationNumber]]):
        if len(table) != g1.order or any(len(row) != g2.order for row in table):
            raise InvalidBihomomorphism("table shape does not match |G1| x |G2|")
        self.g1 = g1
        self.g2 = g2
        self.table = tuple(tuple(row) for row in table)
        self._validate()

    def _validate(self) -> None:
        t = self.table
        for a1 in self.g1.elements():
            for b1 in self.g1.elements():
                prod = self.g1.mul(a1, b1)
                for a2 in self.g2.elements():
                    if t[prod][a2] != t[a1][a2] + t[b1][a2]:
                        raise InvalidBihomomorphism(
                            f"not multiplicative in slot 1 at ({a1},{b1};{a2})"
                        )
        for a2 in self.g2.elements():
            for b2 in self.g2.elements():
                prod = self.g2.mul(a2, b2)
                for a1 in self.g1.elements():
                    if t[a1][prod] != t[a1][a2] + t[a1][b2]:
                        raise InvalidBihomomorphism(
                            f"not multiplicative in slot 2 at ({a1};{a2},{b2})"
                        )

    def value(self, a1: int, a2: int) -> RotationNumber:
        return self.table[a1][a2]


def trivial_bihom(g1: FiniteGroup, g2: FiniteGroup) -> Bihomomorphism:
    return Bihomomorphism(g1, g2, [[ZERO] * g2.order for _ in range(g1.order)])


def cyclic_bihom(n1: int, n2: int, numerator: int) -> Bihomomorphism:
    """On Z_n1 x Z_n2: f(x, y) = numerator * x * y / gcd(n1, n2).

    The gcd denominator is exactly what well-definedness mod both cyclic
    orders allows, so every bihomomorphism of cyclic groups arises this
    way; this is the convenience constructor for cyclic factors only.
    """
    g = math.gcd(n1, n2)
    table = [
        [RotationNumber(Fraction(numerator * x * y, g)) for y in range(n2)] for x in range(n1)
    ]
    return Bihomomorphism(cyclic(n1), cyclic(n2), table)


def bihom_from_characters(
    g1: FiniteGroup, chi1: Sequence[int], d1: int, g2: FiniteGroup, chi2: Sequence[int], d2: int
) -> Bihomomorphism:
    """f(a, b) = chi1(a) chi2(b) / lcm(d1, d2) from homomorphisms
    chi_i: G_i -> Z_{d_i}, given as value tables."""
    d = math.lcm(d1, d2)
    table = [
        [
            RotationNumber(Fraction((chi1[a1] * (d // d1)) * (chi2[a2] * (d // d2)), d))
            for a2 in g2.elements()
        ]
        for a1 in g1.elements()
    ]
    return Bihomomorphism(g1, g2, table)


def _check_domains(sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism) -> None:
    if f.g1.table != sigma1.group.table or f.g2.table != sigma2.group.table:
        raise DomainMismatch("bihomomorphism groups do not match the factor multipliers")


class ProductMultiplier(FiniteMultiplier):
    """sigma((a1,a2),(b1,b2)) = sigma1(a1,b1) + sigma2(a2,b2) + f(b1,a2)
    on G1 x G2 (row-major packing)."""

    def __init__(self, sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism):
        _check_domains(sigma1, sigma2, f)
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.f = f
        self.group = direct_product(sigma1.group, sigma2.group)
        self._n2 = sigma2.group.order

    def split(self, a: int) -> tuple[int, int]:
        return divmod(a, self._n2)

    def value(self, a: int, b: int) -> RotationNumber:
        a1, a2 = divmod(a, self._n2)
        b1, b2 = divmod(b, self._n2)
        return self.sigma1.value(a1, b1) + self.sigma2.value(a2, b2) + self.f.value(b1, a2)


def assemble(sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism) -> ProductMultiplier:
    return ProductMultiplier(sigma1, sigma2, f)


def restriction(sigma: ProductMultiplier, factor: int) -> list[list[RotationNumber]]:
    """The restriction of sigma to G_factor x {e} (resp. {e} x G_factor)."""
    n2 = sigma._n2
    if factor == 1:
        g = sigma.sigma1.group
        return [[sigma.value(a1 * n2, b1 * n2) for b1 in g.elements()] for a1 in g.elements()]
    g = sigma.sigma2.group
    return [[sigma.value(a2, b2) for b2 in g.elements()] for a2 in g.elements()]


def regularity_identity_check(sigma: ProductMultiplier, a: int, b: int) -> bool:
    """The product phase identity at one pair:

    sigma(a,b) - sigma(b,a) + f(a1,b2) - f(b1,a2)
      = (sigma1(a1,b1) - sigma1(b1,a1)) + (sigma2(a2,b2) - sigma2(b2,a2)).

    The left side reads the assembled multiplier, the right side only the
    factors; true for all valid inputs.
    """
    sigma1, sigma2, f = sigma.sigma1, sigma.sigma2, sigma.f
    a1, a2 = sigma.split(a)
    b1, b2 = sigma.split(b)
    lhs = sigma.value(a, b) - sigma.value(b, a) + f.value(a1, b2) - f.value(b1, a2)
    rhs = (
        sigma1.value(a1, b1)
        - sigma1.value(b1, a1)
        + sigma2.value(a2, b2)
        - sigma2.value(b2, a2)
    )
    return lhs == rhs


@dataclass
class DegeneracyReport:
    nondegenerate: bool
    witness_class: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.nondegenerate

    def to_json(self) -> dict:
        return {
            "f_degeneracy": self.nondegenerate,
            "witness_class": list(self.witness_class) if self.witness_class else None,
        }


def f_degeneracy(
    sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism
) -> DegeneracyReport:
    """The product primeness criterion, evaluated by brute force.

    True iff every nontrivial conjugacy class C of G1 x G2 contains some
    a and admits some b in G such that either
      1. a1 b1 = b1 a1 and f(b1, a2) != conj(sigma1(a1,b1)) sigma1(b1,a1), or
      2. a2 b2 = b2 a2 and f(a1, b2) != sigma2(a2,b2) conj(sigma2(b2,a2)).
    Equivalent to condition K for the assembled multiplier; a failing
    class is reported as the witness.

    The classes of G1 x G2 are the C1 x C2, taken in the product's class
    order, and "some b" splits into some b1 for 1. or some b2 for 2.
    """
    _check_domains(sigma1, sigma2, f)
    g1, g2 = sigma1.group, sigma2.group

    def admits_b(a1: int, a2: int) -> bool:
        return any(
            g1.commutes(a1, b1) and f.value(b1, a2) != sigma1.value(b1, a1) - sigma1.value(a1, b1)
            for b1 in g1.elements()
        ) or any(
            g2.commutes(a2, b2) and f.value(a1, b2) != sigma2.value(a2, b2) - sigma2.value(b2, a2)
            for b2 in g2.elements()
        )

    trivial = ((g1.identity,), (g2.identity,))
    for c1 in g1.conjugacy_classes():
        for c2 in g2.conjugacy_classes():
            if (c1.members, c2.members) != trivial and not any(admits_b(a1, a2) for a1 in c1 for a2 in c2):
                return DegeneracyReport(False, tuple(a1 * g2.order + a2 for a1 in c1 for a2 in c2))
    return DegeneracyReport(True, None)


@dataclass
class TwoOfThreeReport:
    element: int
    sigma_regular: bool          # (i)   a regular for the product multiplier
    factor_regular: bool         # (ii)  each a_i regular for sigma_i
    f_symmetric: bool            # (iii) f(a1,b2) = f(b1,a2) on the centralizer
    f_trivial: bool              # (iv)  both pairings = 1 on the centralizer

    def truth_vector(self) -> tuple[bool, bool, bool, bool]:
        return (self.sigma_regular, self.factor_regular, self.f_symmetric, self.f_trivial)


def two_of_three(sigma: ProductMultiplier, a: int) -> TwoOfThreeReport:
    """Evaluate the regularity lemma's four conditions at a and audit it:
    any two of (i), (ii), (iii) must imply the third, and (iii) <=> (iv).
    A violation raises LemmaViolation (must be unreachable)."""
    sigma1, sigma2, f = sigma.sigma1, sigma.sigma2, sigma.f
    g = sigma.group
    a1, a2 = sigma.split(a)
    cond_i = is_regular_element(sigma, a)
    cond_ii = is_regular_element(sigma1, a1) and is_regular_element(sigma2, a2)
    cond_iii = True
    cond_iv = True
    for b in g.centralizer(a):
        b1, b2 = sigma.split(b)
        lhs = f.value(a1, b2)
        rhs = f.value(b1, a2)
        if lhs != rhs:
            cond_iii = False
        if not lhs.is_integral() or not rhs.is_integral():
            cond_iv = False
    report = TwoOfThreeReport(a, cond_i, cond_ii, cond_iii, cond_iv)
    if cond_iii != cond_iv:
        raise LemmaViolation(f"(iii) != (iv) at element {a}: {report}")
    truths = (cond_i, cond_ii, cond_iii)
    if sum(truths) == 2:
        raise LemmaViolation(f"exactly two of (i),(ii),(iii) hold at element {a}: {report}")
    return report

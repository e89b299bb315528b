"""Multipliers on direct products G1 x G2 assembled from a triple
(sigma1, sigma2, f) with f a bihomomorphism, and the combinatorial
primeness criterion for such products.

Every multiplier on a direct product is similar to one of this shape;
the cross-term f is what obstructs a tensor factorization, and its
degeneracy on finite classes decides condition K for the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import FiniteGroup, direct_product
from .multipliers import DomainMismatch, Exponents, FiniteMultiplier, compile_grid, one_frame, validate
from .regularity import is_regular_element
from .torus import RotationNumber


class InvalidBihomomorphism(ValueError):
    pass


class LemmaViolation(RuntimeError):
    """The two-of-three regularity lemma failed: an implementation bug."""


class Bihomomorphism:
    """f: G1 x G2 -> T, multiplicative in each variable separately.

    Held only as its compiled ``exponents``, of shape (|G1|, |G2|, 1+k):
    a grid of RotationNumbers is compiled when f is made, and ``value``
    and ``table`` read the array back.  Validated exhaustively on
    construction: f(a1 b1, a2) = f(a1, a2) + f(b1, a2) and symmetrically,
    which forces f(e, .) = f(., e) = 0.
    """

    def __init__(self, g1: FiniteGroup, g2: FiniteGroup, table: Sequence[Sequence[RotationNumber]]):
        if len(table) != g1.order or any(len(row) != g2.order for row in table):
            raise InvalidBihomomorphism("table shape does not match |G1| x |G2|")
        self.g1, self.g2, self.exponents = g1, g2, compile_grid(table)
        self._validate()

    @classmethod
    def from_exponents(cls, g1: FiniteGroup, g2: FiniteGroup, exponents: Exponents) -> "Bihomomorphism":
        """The bihomomorphism of a compiled (|G1|, |G2|, 1+k) array."""
        f = cls.__new__(cls)
        f.g1, f.g2, f.exponents = g1, g2, exponents
        f._validate()
        return f

    def value(self, a1: int, a2: int) -> RotationNumber:
        return self.exponents.rotation(self.exponents.array[a1, a2].tolist())

    @property
    def table(self) -> tuple[tuple[RotationNumber, ...], ...]:
        return tuple(tuple(map(self.exponents.rotation, row)) for row in self.exponents.array.tolist())

    def _validate(self) -> None:
        ex = self.exponents
        F = ex.array
        slot1 = ex.is_zero(F[self.g1.array] - F[:, None] - F[None, :])  # at (a1, b1, a2)
        if not slot1.all():
            a1, b1, a2 = np.argwhere(~slot1)[0]
            raise InvalidBihomomorphism(f"not multiplicative in slot 1 at ({a1},{b1};{a2})")
        slot2 = ex.is_zero(F[:, self.g2.array] - F[:, :, None] - F[:, None, :])  # at (a1, a2, b2)
        if not slot2.all():
            a2, b2, a1 = np.argwhere(~slot2.transpose(1, 2, 0))[0]
            raise InvalidBihomomorphism(f"not multiplicative in slot 2 at ({a1};{a2},{b2})")


def _check_domains(sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism) -> None:
    if not all(g is h or np.array_equal(g.array, h.array) for g, h in ((f.g1, sigma1.group), (f.g2, sigma2.group))):
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

    def proven_by_construction(self) -> bool:
        """Both factors pass ``validate``.  f is a bihomomorphism, proven when
        it was made, so the term f(b1, a2) adds no cocycle defect and
        vanishes on the identity row and column: the defect of sigma is
        that of sigma1 plus that of sigma2, and both are 0."""
        return bool(validate(self.sigma1)) and bool(validate(self.sigma2))

    def split(self, a: int) -> tuple[int, int]:
        return divmod(a, self._n2)

    def _compile(self) -> Exponents:
        """E1[a1,b1] + E2[a2,b2] + F[b1,a2] over a common D and label set: E1 + F
        reduced mod D, plus E2; a slot 0 that reaches D is then lowered by D."""
        D, labels, (e1, e2, f) = one_frame((self.sigma1.exponents(), self.sigma2.exponents(), self.f.exponents))
        n = self.group.order
        partial = e1[:, None] + f.transpose(1, 0, 2)[None]
        partial[..., 0] %= D
        table = (partial[:, :, :, None] + e2[None, :, None]).reshape(n, n, 1 + len(labels))
        np.subtract(table[..., 0], D, out=table[..., 0], where=table[..., 0] >= D)
        return Exponents(D, labels, table)


@dataclass
class DegeneracyReport:
    nondegenerate: bool
    witness_class: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return {
            "f_degeneracy": self.nondegenerate,
            "witness_class": list(self.witness_class) if self.witness_class else None,
        }


def f_degeneracy(
    sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism
) -> DegeneracyReport:
    """The product primeness criterion, evaluated on compiled arrays.

    True iff every nontrivial conjugacy class C of G1 x G2 contains some
    a and admits some b in G such that either
      1. a1 b1 = b1 a1 and f(b1, a2) != conj(sigma1(a1,b1)) sigma1(b1,a1), or
      2. a2 b2 = b2 a2 and f(a1, b2) != sigma2(a2,b2) conj(sigma2(b2,a2)).
    Equivalent to condition K for the assembled multiplier; a failing
    class is reported as the witness.

    The classes of G1 x G2 are the C1 x C2, taken in the product's class
    order, and "some b" splits into some b1 for 1. or some b2 for 2.  Both
    tests run as one ``is_zero`` mask each over the centralizer pairs of
    the factor, on sigma1, sigma2 and f recast to one frame.  The failing
    C1 x C2 is cut from the factors' ``class_layout``.
    """
    _check_domains(sigma1, sigma2, f)
    g1, g2 = sigma1.group, sigma2.group
    D, labels, (e1, e2, F) = one_frame((sigma1.exponents(), sigma2.exponents(), f.exponents))
    frame = Exponents(D, labels, F)
    # 1. fails at the centralizer pair (x1, y1) of G1 and a2 when
    # f(y1, a2) = sigma1(y1, x1) - sigma1(x1, y1); row p of x1, y1 is pair p
    x1, y1 = np.nonzero(g1.commuting())
    fails1 = frame.is_zero(F[y1] - (e1[y1, x1] - e1[x1, y1])[:, None])
    # 2. fails at a1 and the centralizer pair (x2, y2) of G2 when
    # f(a1, y2) = sigma2(x2, y2) - sigma2(y2, x2)
    x2, y2 = np.nonzero(g2.commuting())
    fails2 = frame.is_zero(F[:, y2] - (e2[x2, y2] - e2[y2, x2])[None, :])
    # admits[a1, a2]: some b admits (a1, a2); the pairs are sorted by x, and
    # every x commutes with itself, so each element starts one run of them
    admits = ~np.logical_and.reduceat(fails1, np.searchsorted(x1, np.arange(g1.order)), axis=0)
    admits |= ~np.logical_and.reduceat(fails2, np.searchsorted(x2, np.arange(g2.order)), axis=1)
    layouts = g1.class_layout(), g2.class_layout()
    (order1, starts1), (order2, starts2) = layouts
    by_class = np.logical_or.reduceat(admits[order1], starts1, axis=0)
    by_class = np.logical_or.reduceat(by_class[:, order2], starts2, axis=1)
    # the identity's class: the one whose representative (smallest member) is e
    trivial = tuple(np.flatnonzero(order[starts] == g.identity)[0] for (order, starts), g in zip(layouts, (g1, g2)))
    by_class[trivial] = True
    failing = np.flatnonzero(~by_class)
    if failing.size:
        i, j = divmod(int(failing[0]), len(starts2))
        ends1, ends2 = np.append(starts1[1:], g1.order), np.append(starts2[1:], g2.order)
        c1, c2 = order1[starts1[i] : ends1[i]], order2[starts2[j] : ends2[j]]
        return DegeneracyReport(False, tuple((c1[:, None] * g2.order + c2).ravel().tolist()))
    return DegeneracyReport(True, None)


@dataclass
class TwoOfThreeReport:
    element: int
    sigma_regular: bool          # (i)   a regular for the product multiplier
    factor_regular: bool         # (ii)  each a_i regular for sigma_i
    f_symmetric: bool            # (iii) f(a1,b2) = f(b1,a2) on the centralizer
    f_trivial: bool              # (iv)  both pairings = 1 on the centralizer


def two_of_three(sigma: ProductMultiplier, a: int) -> TwoOfThreeReport:
    """Evaluate the regularity lemma's four conditions at a and audit it:
    any two of (i), (ii), (iii) must imply the third, and (iii) <=> (iv).
    A violation raises LemmaViolation (must be unreachable).  (iii) and
    (iv) read f's compiled entries at the centralizer of a."""
    sigma1, sigma2, f = sigma.sigma1, sigma.sigma2, sigma.f
    a1, a2 = sigma.split(a)
    cond_i = is_regular_element(sigma, a)
    cond_ii = is_regular_element(sigma1, a1) and is_regular_element(sigma2, a2)
    b1, b2 = np.divmod(np.array(sigma.group.centralizer(a)), sigma._n2)
    F, zero = f.exponents.array, f.exponents.is_zero
    cond_iii = bool(zero(F[a1, b2] - F[b1, a2]).all())
    cond_iv = bool((zero(F[a1, b2]) & zero(F[b1, a2])).all())
    report = TwoOfThreeReport(a, cond_i, cond_ii, cond_iii, cond_iv)
    if cond_iii != cond_iv:
        raise LemmaViolation(f"(iii) != (iv) at element {a}: {report}")
    truths = (cond_i, cond_ii, cond_iii)
    if sum(truths) == 2:
        raise LemmaViolation(f"exactly two of (i),(ii),(iii) hold at element {a}: {report}")
    return report

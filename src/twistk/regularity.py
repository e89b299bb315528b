"""Regular elements, regular conjugacy classes, condition K, and the
explicit center of a finite twisted group algebra, all decided on the
compiled table of the multiplier (``FiniteMultiplier.exponents``).

An element a is regular for sigma when sigma(a, b) = sigma(b, a) for
every b commuting with a; regularity is constant on conjugacy classes.
For a finite group, condition K means no nontrivial class is regular.
Both sides are stored entries of the table, compared for equality; on
an abelian group every class is {a}, and a is regular iff sigma(a, .) =
sigma(., a) (Kleppner, Math. Ann. 158, 1965).  The per-class answer is
kept as arrays over ``FiniteGroup.class_layout`` (``RegularityReport``);
a ``ConjugacyClass`` is made only for the witness, or when asked for.
The center of the twisted algebra has one basis element per regular
class (``center_basis``), whose coefficients are the covariant class
function, one difference of table entries per conjugator; they become
phases (``PhaseSum``) only in the basis returned.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, PhaseSum
from .groups import ConjugacyClass, FiniteGroup
from .multipliers import FiniteMultiplier


class ClassInconsistency(RuntimeError):
    """Regularity differed inside one conjugacy class, or the conjugators of
    a class flagged regular gave its class function two values: the input
    is not a valid multiplier (impossible for a true cocycle)."""


class RegularityReport:
    """Per-class flags over ``group.class_layout()``, held as arrays in class
    order: the ``representatives`` (smallest members), ``sizes`` and
    regularity ``flags`` of the classes, which ``to_json`` reads.  The one
    ``ConjugacyClass`` made is ``witness``, the first nontrivial regular
    class, or None; condition K holds exactly when it is None.  ``classes``
    pairs every class with its flag, built when asked for."""

    def __init__(self, group: FiniteGroup, flags: np.ndarray):
        order, starts = group.class_layout()
        self.group, self.flags, self.representatives = group, flags, order[starts]
        self.sizes = np.append(starts[1:], group.order) - starts
        self.regular_element_count = int(self.sizes[flags].sum())
        found = np.flatnonzero(flags & (self.representatives != group.identity))  # the class of e is {e}
        self.witness: ConjugacyClass | None = None
        if found.size:
            i = found[0]
            members = order[starts[i] : starts[i] + self.sizes[i]].tolist()
            self.witness = ConjugacyClass(tuple(members), members[0])

    @property
    def condition_k(self) -> bool:
        return self.witness is None

    @property
    def classes(self) -> tuple[tuple[ConjugacyClass, bool], ...]:
        return tuple(zip(self.group.conjugacy_classes(), self.flags.tolist()))

    def to_json(self) -> dict:
        return {
            "condition_k": self.condition_k,
            "classes": [
                {"rep": rep, "size": size, "regular": flag}
                for rep, size, flag in zip(self.representatives.tolist(), self.sizes.tolist(), self.flags.tolist())
            ],
        }


def regular_elements(sigma: FiniteMultiplier) -> np.ndarray:
    """Boolean array over G: a is regular iff no b with ab = ba has
    sigma(a, b) != sigma(b, a), compared as stored entries (``Exponents.equal``);
    on an abelian group that is E against its transpose alone, with no mask."""
    ex, g = sigma.exponents(), sigma.group
    agree = ex.equal(ex.array, ex.array.transpose(1, 0, 2))
    return agree.all(axis=1) if g.is_abelian() else (agree | ~g.commuting()).all(axis=1)


def is_regular_element(sigma: FiniteMultiplier, a: int) -> bool:
    return bool(regular_elements(sigma)[a])


def regular_classes(sigma: FiniteMultiplier) -> RegularityReport:
    """Per-class regularity flags; asserts constancy on each class, with
    one minimum and one maximum of the flags per class (``reduceat`` over
    ``class_layout``)."""
    g = sigma.group
    regular = regular_elements(sigma)
    order, starts = g.class_layout()
    flags = regular[order]
    low, high = np.minimum.reduceat(flags, starts), np.maximum.reduceat(flags, starts)
    mixed = np.flatnonzero(low != high)
    if mixed.size:
        cls = g.conjugacy_classes()[mixed[0]]
        members = {m: bool(regular[m]) for m in cls.members}
        raise ClassInconsistency(f"class of {cls.representative} mixes regular and non-regular members: {members}")
    return RegularityReport(g, high)


def condition_k(sigma: FiniteMultiplier) -> bool:
    """No nontrivial regular conjugacy class (finite-group reading:
    a finite group has no infinite classes, so any nontrivial regular
    class defeats the condition)."""
    return regular_classes(sigma).condition_k


def center_basis(sigma: FiniteMultiplier) -> list[AlgebraElement]:
    """One element T_C = sum_{c in C} f(c) delta_c per regular class C, in
    class order, read off the compiled table E.

    With b the smallest member of C, each a in G reaches the member
    x(a) = a b a^-1, where the exponent of f is E[a, b] - E[x(a), a] (so
    f(b) = 1, and f is covariant under conjugation twisted by sigma).  The
    conjugators that reach one member must agree; they do exactly when C
    is regular, and a disagreement raises ClassInconsistency.  The list is
    linearly independent (disjoint supports) and spans the center; each
    T_C commutes exactly with every lambda(a).
    """
    g, ex = sigma.group, sigma.exponents()
    E, conjugators = ex.array, np.arange(g.order)
    report = regular_classes(sigma)
    basis = []
    for b in report.representatives[report.flags].tolist():
        x = g.array[g.array[:, b], g.inverses]
        f = E[:, b] - E[x, conjugators]
        members, first, reached = np.unique(x, return_index=True, return_inverse=True)
        agree = ex.is_zero(f - f[first][reached])
        if not agree.all():
            member = x[np.flatnonzero(~agree)[0]]
            raise ClassInconsistency(f"conjugators of {member} disagree: the class of {b} is not regular")
        coeffs = {m: PhaseSum.phase(ex.rotation(v)) for m, v in zip(members.tolist(), f[first].tolist())}
        basis.append(AlgebraElement(g, coeffs))
    return basis

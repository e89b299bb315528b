"""Regular elements, regular conjugacy classes, condition K, and the
explicit center of a finite twisted group algebra.

An element a is regular for sigma when sigma(a, b) = sigma(b, a) for
every b commuting with a; regularity is constant on conjugacy classes.
For a finite group, condition K means no nontrivial class is regular,
and the center of the twisted algebra has one basis element per regular
class, built from the covariant class function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement
from .groups import ConjugacyClass
from .multipliers import FiniteMultiplier
from .torus import RotationNumber


class ClassInconsistency(RuntimeError):
    """Regularity differed inside one conjugacy class: the input is not a
    valid multiplier (impossible for a true cocycle)."""


class NotRegular(ValueError):
    """The class function was requested for a class that is not regular."""


@dataclass
class RegularityReport:
    """Per-class flags; ``witness`` is the first nontrivial regular class in
    class order, or None, and condition K holds exactly when it is None."""

    classes: tuple[tuple[ConjugacyClass, bool], ...]
    witness: ConjugacyClass | None
    regular_element_count: int

    @property
    def condition_k(self) -> bool:
        return self.witness is None

    def regular_classes(self) -> list[ConjugacyClass]:
        return [cls for cls, flag in self.classes if flag]

    def to_json(self) -> dict:
        return {
            "condition_k": self.condition_k,
            "classes": [
                {"rep": cls.representative, "size": len(cls), "regular": flag}
                for cls, flag in self.classes
            ],
        }


@dataclass
class ClassFunction:
    """f on one regular class: unit phases with f(representative) = 1,
    covariant under conjugation twisted by sigma."""

    cls: ConjugacyClass
    values: dict[int, RotationNumber]


def is_regular_element(sigma: FiniteMultiplier, a: int) -> bool:
    g = sigma.group
    val = sigma.value
    return all(val(a, b) == val(b, a) for b in g.centralizer(a))


def regular_classes(sigma: FiniteMultiplier) -> RegularityReport:
    """Per-class regularity flags; asserts constancy on each class."""
    g = sigma.group
    flagged = []
    regular_count = 0
    witness = None
    for cls in g.conjugacy_classes():
        flags = {m: is_regular_element(sigma, m) for m in cls.members}
        values = set(flags.values())
        if len(values) > 1:
            raise ClassInconsistency(
                f"class of {cls.representative} mixes regular and non-regular members: {flags}"
            )
        flag = values.pop()
        flagged.append((cls, flag))
        if flag:
            regular_count += len(cls)
            if witness is None and (len(cls) > 1 or cls.representative != g.identity):
                witness = cls
    return RegularityReport(tuple(flagged), witness, regular_count)


def condition_k(sigma: FiniteMultiplier) -> bool:
    """No nontrivial regular conjugacy class (finite-group reading:
    a finite group has no infinite classes, so any nontrivial regular
    class defeats the condition)."""
    return regular_classes(sigma).condition_k


def class_function(sigma: FiniteMultiplier, cls: ConjugacyClass) -> ClassFunction:
    """f(a c a^-1) = sigma(a, c) conj(sigma(a c a^-1, a)) for the base point c.

    The base point is the smallest element index of the class.  The value
    at each member is computed from every conjugator a in G, and any
    disagreement raises NotRegular: for a valid multiplier, agreement for
    all conjugators is equivalent to regularity of the class, so this
    doubles as an executable well-definedness proof.
    """
    g = sigma.group
    base = min(cls.members)
    values: dict[int, RotationNumber] = {}
    for a in g.elements():
        x = g.conj(a, base)
        v = sigma.value(a, base) - sigma.value(x, a)
        if x in values:
            if values[x] != v:
                raise NotRegular(
                    f"conflicting values at {x}: {values[x]!r} vs {v!r} (class of "
                    f"{cls.representative} is not regular)"
                )
        else:
            values[x] = v
    if set(values) != set(cls.members):
        raise ClassInconsistency("conjugation orbit of the base point missed class members")
    return ClassFunction(cls, values)


def center_basis(sigma: FiniteMultiplier) -> list[AlgebraElement]:
    """One element T_C = sum_{c in C} f(c) delta_c per regular class C.

    The list is linearly independent (disjoint supports) and spans the
    center; each T_C commutes exactly with every lambda(a).
    """
    basis = []
    for cls, flag in regular_classes(sigma).classes:
        if not flag:
            continue
        f = class_function(sigma, cls)
        basis.append(AlgebraElement(sigma.group, {c: f.values[c] for c in cls.members}))
    return basis


def check_sigma_tilde(sigma: FiniteMultiplier) -> tuple[int, int] | None:
    """First (a, c) violating
    sigma(a^-1, a c a^-1) + sigma(a, c) = sigma(c, a^-1) + sigma(a c a^-1, a),
    or None.  This holds for every multiplier; a witness means broken input.
    """
    g = sigma.group
    val = sigma.value
    for a in g.elements():
        ainv = g.inv(a)
        for c in g.elements():
            x = g.conj(a, c)
            if val(ainv, x) + val(a, c) != val(c, ainv) + val(x, a):
                return (a, c)
    return None

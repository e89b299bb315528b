"""Reference implementations for the differential tests.

- The decode and compile path that the palette decode replaced:
  ``_rotations`` made one RotationNumber per distinct entry content and a
  |G| x |G| grid of references to them, and ``compile_values`` compiled
  such a grid.
- The exact regular representations ``lambda_exact`` and ``rho_bar_exact``
  as generalized permutation matrices (``GenPermMatrix``).
- ``classes_by_split`` and ``regular_classes_loop``: conjugacy classes
  cut with ``np.split`` and the per-class regularity loop.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from twistk.groups import ConjugacyClass, FiniteGroup
from twistk.multipliers import Exponents, FiniteMultiplier, exact_dtype
from twistk.regularity import ClassInconsistency, RegularityReport, regular_elements
from twistk.torus import ZERO, RotationNumber

_NO_SYMBOLS: dict = {}


def _rotations(rows) -> list[list[RotationNumber]]:
    """One RotationNumber per distinct entry content: equal entries share
    one object, which ``compile_values`` then converts once.

    A string "p/q" keys itself; a number is keyed with its type, since
    1 == 1.0 == True would let a float or a bool share the entry of an
    integer and skip the check of ``RotationNumber.from_json``.  Symbol
    coefficients join the key, with their types, only when there are any;
    an "irr" that is not a dict fails while its key is built."""
    seen: dict[object, RotationNumber] = {}

    def decode(v) -> RotationNumber:
        rat, irr = v.get("rat", 0), v.get("irr", _NO_SYMBOLS)
        key = rat if type(rat) is str else (type(rat), rat)
        if irr != _NO_SYMBOLS:
            key = (key, *((label, type(c), c) for label, c in irr.items()))
        x = seen.get(key)
        if x is None:
            x = seen[key] = RotationNumber.from_json(v)
        return x

    return [[decode(v) for v in row] for row in rows]


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


class GenPermMatrix:
    """Exact generalized permutation matrix: one unit-phase entry per column.

    Column b holds its row index and the phase exponent of the entry.
    Products and equality are exact; this is the zero-tolerance path for
    the commutation identities of the regular representations, and
    to_array gives its complex matrix.
    """

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols: tuple[tuple[int, RotationNumber], ...] = tuple(cols)

    @staticmethod
    def identity(n: int) -> "GenPermMatrix":
        return GenPermMatrix((b, ZERO) for b in range(n))

    def __matmul__(self, other: "GenPermMatrix") -> "GenPermMatrix":
        return GenPermMatrix(
            (self.cols[row][0], self.cols[row][1] + phase) for row, phase in other.cols
        )

    def scaled(self, phase: RotationNumber) -> "GenPermMatrix":
        return GenPermMatrix((row, p + phase) for row, p in self.cols)

    def apply_delta(self, b: int) -> tuple[int, RotationNumber]:
        """Image of the basis vector delta_b: (row, phase)."""
        return self.cols[b]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenPermMatrix):
            return NotImplemented
        return self.cols == other.cols

    def __hash__(self):
        return hash(self.cols)

    def to_array(self) -> np.ndarray:
        n = len(self.cols)
        mat = np.zeros((n, n), dtype=complex)
        for b, (row, phase) in enumerate(self.cols):
            mat[row, b] = phase.evaluate()
        return mat


def lambda_exact(sigma: FiniteMultiplier, a: int) -> GenPermMatrix:
    """Left regular projective representation: lambda(a) delta_b = sigma(a,b) delta_ab."""
    g = sigma.group
    return GenPermMatrix((g.mul(a, b), sigma.value(a, b)) for b in g.elements())


def rho_bar_exact(sigma: FiniteMultiplier, a: int) -> GenPermMatrix:
    """Right regular conjugate representation: (rho_bar(a) xi)(c) = conj(sigma(c,a)) xi(ca)."""
    g = sigma.group
    ainv = g.inv(a)
    return GenPermMatrix((g.mul(b, ainv), -sigma.value(g.mul(b, ainv), a)) for b in g.elements())


def classes_by_split(g: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    """Conjugacy classes in the order of their smallest members, cut from
    the argsort of the smallest members with ``np.split``."""
    t = g.array
    smallest = t[t, g.inverses[:, None]].min(axis=0)
    order = np.argsort(smallest, kind="stable")
    reps, starts = np.unique(smallest[order], return_index=True)
    return tuple(
        ConjugacyClass(tuple(members.tolist()), int(rep)) for rep, members in zip(reps, np.split(order, starts[1:]))
    )


def regular_classes_loop(sigma: FiniteMultiplier) -> RegularityReport:
    """``regular_classes`` with one minimum and one maximum per class."""
    g = sigma.group
    regular = regular_elements(sigma)
    flagged = []
    regular_count = 0
    witness = None
    for cls in g.conjugacy_classes():
        flags = regular[list(cls.members)]
        if flags.min() != flags.max():
            flags = {m: bool(regular[m]) for m in cls.members}
            raise ClassInconsistency(
                f"class of {cls.representative} mixes regular and non-regular members: {flags}"
            )
        flag = bool(flags[0])
        flagged.append((cls, flag))
        if flag:
            regular_count += len(cls)
            if witness is None and (len(cls) > 1 or cls.representative != g.identity):
                witness = cls
    return RegularityReport(tuple(flagged), witness, regular_count)

"""The decode and compile path that the palette decode replaced, kept as
the reference of the differential tests: ``_rotations`` made one
RotationNumber per distinct entry content and a |G| x |G| grid of
references to them, and ``compile_values`` compiled such a grid.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from twistk.multipliers import Exponents, exact_dtype
from twistk.torus import RotationNumber

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

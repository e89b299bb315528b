"""Exact circle-group values, stored additively as exponents.

A point e^(2*pi*i*x) of the unit circle is represented by the exponent
x = rational + sum of rational multiples of formal irrational symbols,
taken mod 1.  The symbols are declared Q-linearly independent together
with 1 (declared, never verified), so equality of circle values reduces
to structural equality of canonical exponents and every cocycle formula
in this package becomes exact rational arithmetic.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[Fraction, int, str]


class MissingHint(KeyError):
    """A numeric evaluation met a formal symbol, which has no float value;
    ``args[0]`` is the symbol."""


class UnknownSymbol(ValueError):
    """A value references a symbol outside the declared basis."""


@dataclass(frozen=True)
class IrrationalBasis:
    """Ordered formal symbols, declared Q-linearly independent with 1.  A
    symbol has no float value: exact arithmetic never needs one."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate basis labels: {self.labels!r}")

    def check_labels(self, labels: Iterable[str]) -> None:
        """Raise UnknownSymbol at the first of ``labels`` outside this basis."""
        for label in labels:
            if label not in self.labels:
                raise UnknownSymbol(f"symbol {label!r} not in basis {self.labels!r}")


def _canonical_coeffs(coeffs) -> tuple[tuple[str, Fraction], ...]:
    if not coeffs:
        return ()
    if isinstance(coeffs, Mapping):
        items = coeffs.items()
    else:
        items = tuple(coeffs)
    acc: dict[str, Fraction] = {}
    for label, c in items:
        acc[label] = acc.get(label, Fraction(0)) + Fraction(c)
    return tuple((label, acc[label]) for label in sorted(acc) if acc[label])


_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _exponent_limit() -> int:
    """The least decimal exponent ``_ratio`` refuses: the digit limit of
    ``int()`` (``sys.get_int_max_str_digits()``, Python 3.10.7 on), or its
    default 4300 where the interpreter has none or it is switched off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _ratio(value) -> tuple[int, int]:
    """An exact JSON number as (numerator, denominator) in lowest terms,
    the denominator positive.  An integer, "-?digits" or "-?digits/digits"
    (ASCII, nonzero denominator) is read with int(); any other spelling
    goes to Fraction(), which decides what is accepted and how a refusal
    reads, except that a float (Fraction() would read 0.1 as
    3602879701896397/2^55) or a bool (0 or 1) is refused, and so is a
    decimal exponent whose power of ten has more digits than int() reads
    (``_exponent_limit()``): Fraction() would build that power exactly,
    which takes seconds to hours for a short spelling."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        if value.isascii():
            num, slash, den = value.partition("/")
            den = den if slash else "1"
            if num.removeprefix("-").isdigit() and den.isdigit() and den.strip("0"):
                num, den = int(num), int(den)
                g = math.gcd(num, den)
                return num // g, den // g
        exponent = _EXPONENT.search(value)
        if exponent:
            limit = _exponent_limit()
            digits = exponent[1].replace("_", "")
            if len(digits) > limit or int(digits) >= limit:
                raise ValueError(f"exact number {value!r} has a decimal exponent of {limit} or more")
    if type(value) in (float, bool):
        raise ValueError(f"exact number must be a string \"p/q\" or an integer, got {value!r}")
    x = Fraction(value)
    return x.numerator, x.denominator


def parse_exponent(data: Mapping) -> tuple[tuple[int, int], dict[str, tuple[int, int]]]:
    """One JSON exponent {"rat": ..., "irr": {label: ...}} as the ``_ratio``
    of its rational part and of each symbol coefficient; the coefficients
    are read before the rational part."""
    irr = {label: _ratio(c) for label, c in data.get("irr", {}).items()}
    return _ratio(data.get("rat", 0)), irr


@dataclass(frozen=True, slots=True)
class RotationNumber:
    """Exponent of a circle value: rational part mod 1 plus a sparse
    rational combination of formal irrational symbols.

    Canonical form (enforced on construction): ``rat`` reduced and in
    [0, 1); ``coeffs`` sorted by label with no zero entries.  Equal values
    compare equal structurally, by declared independence.  The hash is
    taken once, on first use, and kept in ``_hash``, which equality ignores.
    """

    rat: Fraction = Fraction(0)
    coeffs: tuple[tuple[str, Fraction], ...] = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rat = self.rat if type(self.rat) is Fraction else Fraction(self.rat)
        if rat < 0 or rat >= 1:
            rat %= 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coeffs", _canonical_coeffs(self.coeffs))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rat, self.coeffs)))
        return self._hash

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RotationNumber") -> "RotationNumber":
        if not isinstance(other, RotationNumber):
            return NotImplemented
        return RotationNumber(self.rat + other.rat, self.coeffs + other.coeffs)

    def __sub__(self, other: "RotationNumber") -> "RotationNumber":
        return self + (-other)

    def __neg__(self) -> "RotationNumber":
        return RotationNumber(-self.rat, tuple((l, -c) for l, c in self.coeffs))

    # -- predicates ------------------------------------------------------

    def is_integral(self) -> bool:
        """True iff the circle value is 1."""
        return self.rat == 0 and not self.coeffs

    def __bool__(self) -> bool:
        return not self.is_integral()

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rat": str(self.rat),
            "irr": {label: str(c) for label, c in self.coeffs},
        }

    @staticmethod
    def from_json(data: Mapping) -> "RotationNumber":
        (num, den), irr = parse_exponent(data)
        return RotationNumber(Fraction(num, den), {label: Fraction(*c) for label, c in irr.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"rot({str(self.rat)!r})"
        return f"rot({str(self.rat)!r}, {{{', '.join(f'{l!r}: {str(c)!r}' for l, c in self.coeffs)}}})"


ZERO = RotationNumber()


def rot(rat: RationalLike = 0, irr: Mapping[str, RationalLike] | None = None) -> RotationNumber:
    """Convenience constructor: rot("1/3"), rot(0, {"t": 1}), rot(Fraction(2, 5))."""
    return RotationNumber(Fraction(rat), {} if irr is None else {l: Fraction(c) for l, c in irr.items()})

"""JSON schemas for groups, multipliers, and words.

Every exact number crosses the wire as a string "p/q" or a JSON
integer; a float or a bool there is refused, and floats appear only in
the optional evaluation hints.  The multiplier schema is
variant-tagged by "type": klein | table | trivial | direct_product |
torus | g3 | free_product.

A spec whose dense table or matrix would exceed MAX_ORDER on a side is
refused before anything of that size is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Mapping

from .freeprod import FPWord, FreeProduct, FreeProductMultiplier
from .groups import FiniteGroup, build
from .lattices import G3Multiplier, LatticeMultiplier, MuMatrix, Theta
from .multipliers import (
    FiniteMultiplier,
    KleinMultiplier,
    Multiplier,
    TableMultiplier,
    trivial_multiplier,
)
from .products import Bihomomorphism, ProductMultiplier
from .torus import IrrationalBasis, RotationNumber


# 4x the largest order the benchmark decides; condition-k and center on
# klein(32, 1) take about 1 and 2 s.  One value is in use, so not a flag.
MAX_ORDER = 1024


class SchemaError(ValueError):
    pass


def _check_order(order: int, what: str) -> None:
    if order > MAX_ORDER:
        raise SchemaError(f"{what} is {order}, above the size cap MAX_ORDER = {MAX_ORDER}")


def _require(data, key: str):
    if not isinstance(data, Mapping):
        raise SchemaError(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise SchemaError(f"missing field {key!r}")
    return data[key]


def _integer(value, what: str) -> int:
    """A JSON integer; int() would truncate a float and accept a bool."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def decode_group(data) -> FiniteGroup:
    """A group table from JSON, proven in full by ``groups.build``.  The
    entries are type-checked in one pass; ``names``, when given, must be a
    list of strings (``FiniteGroup`` checks its length)."""
    rows = _require(data, "table")
    if set(map(type, chain.from_iterable(rows))) - {int}:
        for x in chain.from_iterable(rows):
            _integer(x, "table entry")
    names = data.get("names")
    if "names" in data and not (type(names) is list and all(type(name) is str for name in names)):
        raise SchemaError("names must be a list of strings")
    return build(rows, names)


def _decode_basis(data) -> IrrationalBasis:
    """``basis``, when given, must be a list of strings, like ``names``."""
    labels = data.get("basis", [])
    if not (type(labels) is list and all(type(label) is str for label in labels)):
        raise SchemaError("basis must be a list of strings")
    hints = {str(k): float(v) for k, v in data.get("hints", {}).items()}
    return IrrationalBasis(tuple(labels), hints)


# The "irr" of an entry without symbols; only ever compared, never changed.
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


def _finite_factors(data, kind: str) -> tuple[FiniteMultiplier, FiniteMultiplier]:
    factors = (_decode(_require(data, "sigma1")), _decode(_require(data, "sigma2")))
    if not all(isinstance(sigma, FiniteMultiplier) for sigma in factors):
        raise SchemaError(f"{kind} factors must be finite multipliers")
    return factors


def decode_multiplier(data) -> Multiplier:
    """Decode a multiplier spec; every malformed spec raises SchemaError."""
    try:
        return _decode(data)
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad multiplier spec: {type(exc).__name__}: {exc}") from None


def _decode(data) -> Multiplier:
    kind = _require(data, "type")
    if kind == "klein":
        n, k = (_integer(_require(data, key), key) for key in ("n", "k"))
        _check_order(n * n, "klein group order n*n")
        return KleinMultiplier(n, k)
    if kind == "trivial":
        return trivial_multiplier(decode_group(_require(data, "group")))
    if kind == "table":
        return TableMultiplier(decode_group(_require(data, "group")), _rotations(_require(data, "values")))
    if kind == "direct_product":
        sigma1, sigma2 = _finite_factors(data, kind)
        _check_order(sigma1.group.order * sigma2.group.order, "direct product order |G1|*|G2|")
        f = Bihomomorphism(sigma1.group, sigma2.group, _rotations(_require(_require(data, "f"), "table")))
        return ProductMultiplier(sigma1, sigma2, f)
    if kind == "torus":
        n = _integer(_require(data, "n"), "n")
        _check_order(n, "torus rank n")
        entries = {}
        for key, value in _require(data, "theta").items():
            i, j = (int(part) for part in str(key).split(","))
            entries[(i - 1, j - 1)] = RotationNumber.from_json(value)
        return LatticeMultiplier(Theta(n, entries, _decode_basis(data)))
    if kind == "g3":
        mu = {}
        for key, value in _require(data, "mu").items():
            key = str(key)
            if len(key) != 2 or not key.isdigit():
                raise SchemaError(f"bad mu key {key!r}; expected 'ij'")
            mu[(int(key[0]), int(key[1]))] = RotationNumber.from_json(value)
        return G3Multiplier(MuMatrix(mu, _decode_basis(data)))
    if kind == "free_product":
        return FreeProductMultiplier(*_finite_factors(data, kind))
    raise SchemaError(f"unknown multiplier type {kind!r}")


def encode_multiplier(sigma: Multiplier) -> dict:
    if isinstance(sigma, KleinMultiplier):
        return {"type": "klein", "n": sigma.n, "k": sigma.k}
    if isinstance(sigma, ProductMultiplier):
        return {
            "type": "direct_product",
            "sigma1": encode_multiplier(sigma.sigma1),
            "sigma2": encode_multiplier(sigma.sigma2),
            "f": {"table": [[v.to_json() for v in row] for row in sigma.f.table]},
        }
    if isinstance(sigma, TableMultiplier):
        return {
            "type": "table",
            "group": sigma.group.to_json(),
            "values": [[v.to_json() for v in row] for row in sigma.values],
        }
    if isinstance(sigma, LatticeMultiplier):
        return sigma.theta.to_json()
    if isinstance(sigma, G3Multiplier):
        return sigma.mu.to_json()
    if isinstance(sigma, FreeProductMultiplier):
        return {
            "type": "free_product",
            "sigma1": encode_multiplier(sigma.sigma1),
            "sigma2": encode_multiplier(sigma.sigma2),
        }
    if isinstance(sigma, FiniteMultiplier):
        return encode_multiplier(sigma.to_table())
    raise SchemaError(f"cannot encode {type(sigma).__name__}")


def encode_word(fp: FreeProduct, word: FPWord) -> list:
    return [[str(factor), fp.factor(factor).names[elem]] for factor, elem in word]


def decode_word(fp: FreeProduct, data) -> FPWord:
    letters = []
    for item in data:
        factor = int(item[0])
        if factor not in (1, 2):
            raise SchemaError(f"bad factor tag {item[0]!r}")
        group = fp.factor(factor)
        name = str(item[1])
        try:
            elem = group.index_of(name)
        except ValueError:
            raise SchemaError(f"unknown element name {name!r} in factor {factor}") from None
        letters.append(fp.letter(factor, elem))
    return fp.check_word(tuple(letters))


def encode_witness_element(sigma: Multiplier, element) -> object:
    """Encode a domain element of any multiplier family for a report."""
    if isinstance(sigma, FreeProductMultiplier):
        return encode_word(sigma.fp, element)
    if isinstance(sigma, (LatticeMultiplier, G3Multiplier)):
        return list(element)
    if isinstance(sigma, FiniteMultiplier):
        return int(element)
    return element


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from None

"""JSON schemas for groups and multipliers, decoded; free-product words
are only encoded, in the witnesses of reports.

Every exact number crosses the wire as a string "p/q" or a JSON
integer; a float or a bool there is refused, and ``torus.parse_exponent``
reads them all, to integers.  A torus or g3 spec may carry "hints", an
object of finite numbers: they are checked and not read, since no
command evaluates a symbol.  The multiplier schema is variant-tagged by
"type": klein | table | trivial | direct_product | torus | g3 |
free_product.

A spec whose dense table or matrix would exceed MAX_ORDER on a side is
refused before anything of that size is built.

A finite input is decoded straight into arrays: a group table into one
``intp`` array, and a ``values`` or ``f.table`` grid into the compiled
exponent array that is all a table or bihomomorphism keeps.  Each
distinct entry of the grid is parsed and compiled once, to one integer
row (``compile_entries``), and the array is gathered from those rows;
the distinct entries and the index into them live only inside
``_palette``.  A torus or g3 spec compiles its ``theta`` or ``mu``
entries the same way, one row per key.  No RotationNumber is made while
any input is decoded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from typing import Mapping

import numpy as np

from .freeprod import FPWord, FreeProduct, FreeProductMultiplier
from .groups import FiniteGroup, build
from .lattices import G3Multiplier, LatticeMultiplier, MuMatrix, Theta
from .multipliers import (
    Exponents,
    FiniteMultiplier,
    KleinMultiplier,
    Multiplier,
    TableMultiplier,
    compile_entries,
    trivial_multiplier,
)
from .products import Bihomomorphism, ProductMultiplier
from .torus import IrrationalBasis, _ratio, parse_exponent


# 4x the largest order the benchmark decides; condition-k and center on
# klein(32, 1) take about 0.1 and 1.8 s (2 shared vCPUs, one BLAS thread).
# One value is in use, so not a flag.
MAX_ORDER = 1024
MAX_DEPTH = 32  # deepest nesting of product factors, decoded, proven and compiled recursively


class SchemaError(ValueError):
    pass


def _check_order(order: int, what: str) -> None:
    if order > MAX_ORDER:
        raise SchemaError(f"{what} is {order}, above the size cap MAX_ORDER = {MAX_ORDER}")


def _require(data, key: str):
    if type(data) is not dict and not isinstance(data, Mapping):
        raise SchemaError(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise SchemaError(f"missing field {key!r}")
    return data[key]


def _integer(value, what: str) -> int:
    """A JSON integer; int() would truncate a float and accept a bool."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def decode_group(data, proven: FiniteGroup | None = None) -> FiniteGroup:
    """A group table from JSON, proven in full by ``groups.build``.  The
    entries are type-checked in one pass; ``names``, when given, must be a
    list of distinct strings, since a witness word names its letters
    (``FiniteGroup`` checks its length).  A table and names equal to those
    of ``proven``, a group this input already proved, give it."""
    rows = _require(data, "table")
    if set(map(type, chain.from_iterable(rows))) - {int}:
        for x in chain.from_iterable(rows):
            _integer(x, "table entry")
    names = data.get("names")
    if "names" in data and not (type(names) is list and all(type(name) is str for name in names)):
        raise SchemaError("names must be a list of strings")
    if names is not None and len(set(names)) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise SchemaError(f"names must be distinct; {repeated!r} repeats")
    same = proven is not None and len(rows) == proven.order and rows == proven.array.tolist()
    if same and (tuple(map(str, range(len(rows)))) if names is None else tuple(names)) == proven.names:
        return proven  # the second factor of a product of a group with itself
    return build(rows, names)


def _decode_basis(data) -> IrrationalBasis:
    """``basis``, when given, must be a list of strings, like ``names``;
    ``hints``, an object whose values are JSON ints or floats, finite as
    floats.  The hints are checked and dropped."""
    labels = data.get("basis", [])
    if not (type(labels) is list and all(type(label) is str for label in labels)):
        raise SchemaError("basis must be a list of strings")
    hints = data.get("hints", {})
    if type(hints) is not dict:
        raise SchemaError("hints must be an object")
    bad = [label for label, v in hints.items() if type(v) not in (int, float) or not abs(v) <= sys.float_info.max]
    if bad:
        raise SchemaError(f"hint {bad[0]!r} must be a finite number")
    return IrrationalBasis(tuple(labels))


# The "irr" of an entry without symbols; only ever compared, never changed.
_NO_SYMBOLS: dict = {}


def _typed_key(v) -> object:
    """The content of one entry as a key: a string "p/q" keys itself; a
    number is keyed with its type, since 1 == 1.0 == True would let a float
    or a bool share the entry of an integer and skip the check of
    ``torus.parse_exponent``.  Symbol coefficients join the key, with
    their types, when there are any; an "irr" that is not a dict fails
    while its key is built."""
    rat, irr = v.get("rat", 0), v.get("irr", _NO_SYMBOLS)
    key = rat if type(rat) is str else (type(rat), rat)
    if irr != _NO_SYMBOLS:
        key = (key, *((label, type(c), c) for label, c in irr.items()))
    return key


def _palette(rows, shape: tuple[int, int]) -> Exponents:
    """A ``values`` or ``f.table`` grid of the given shape compiled to an
    (m, n, 1+k) array: its distinct entry contents are compiled, one row
    each, and gathered by the ``intp`` index of each entry into them.

    When every "rat" is a string or an integer and every "irr" is empty,
    the "rat" alone keys an entry, found in C-level passes over the grid;
    otherwise each entry gets its ``_typed_key``.  Each distinct entry is
    parsed once, to integers (``torus.parse_exponent``)."""
    if len(rows) != shape[0] or set(map(len, rows)) - {shape[1]}:
        raise SchemaError(f"table shape does not match {shape[0]} x {shape[1]}")
    entries = list(chain.from_iterable(rows))
    keys = list(map(dict.get, entries, repeat("rat"), repeat(0)))
    irrs = list(map(dict.get, entries, repeat("irr"), repeat(_NO_SYMBOLS)))
    if set(map(type, keys)) - {str, int} or irrs.count(_NO_SYMBOLS) != len(irrs):
        keys = list(map(_typed_key, entries))
    distinct = dict(zip(keys, entries))
    slot = dict(zip(distinct, range(len(distinct))))
    index = np.fromiter(map(slot.__getitem__, keys), dtype=np.intp, count=len(keys))
    compiled = compile_entries(list(map(parse_exponent, distinct.values())))
    return Exponents(compiled.D, compiled.labels, compiled.array[index.reshape(shape)])


# the keys of a torus theta ("i,j") and of a g3 mu ("ij")
_THETA_KEY = re.compile("([1-9][0-9]*),([1-9][0-9]*)")
_MU_KEY = re.compile("([0-9])([0-9])")


def _parameters(data, field: str, key: re.Pattern, spelling: str) -> tuple[list[tuple[int, int]], Exponents]:
    """The ``field`` object of a torus or g3 spec: each key, checked before
    its entry is parsed, as two indices, and the entries compiled.  A key
    must match ``key`` in full, so no two keys name one parameter."""
    keys, entries = [], []
    fullmatch = key.fullmatch
    for name, value in _require(data, field).items():
        match = fullmatch(name) if type(name) is str else None
        if match is None:
            raise SchemaError(f"bad {field} key {name!r}; expected {spelling!r}")
        keys.append((int(match[1]), int(match[2])))
        entries.append(parse_exponent(value))
    return keys, compile_entries(entries)


def _finite_factors(data, kind: str, depth: int) -> tuple[FiniteMultiplier, FiniteMultiplier]:
    if depth >= MAX_DEPTH:
        raise SchemaError(f"{kind} nested more than MAX_DEPTH = {MAX_DEPTH} deep")
    sigma1 = _decode(_require(data, "sigma1"), depth + 1)
    factors = (sigma1, _decode(_require(data, "sigma2"), depth + 1, getattr(sigma1, "group", None)))
    if not all(isinstance(sigma, FiniteMultiplier) for sigma in factors):
        raise SchemaError(f"{kind} factors must be finite multipliers")
    return factors


def decode_multiplier(data) -> Multiplier:
    """Decode a multiplier spec; every malformed spec raises SchemaError.

    A table or a bihomomorphism is decoded by ``_palette`` to its compiled
    array."""
    try:
        return _decode(data)
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad multiplier spec: {type(exc).__name__}: {exc}") from None


def _decode(data, depth: int = 0, proven: FiniteGroup | None = None) -> Multiplier:
    kind = _require(data, "type")
    if kind == "klein":
        n, k = (_integer(_require(data, key), key) for key in ("n", "k"))
        _check_order(n * n, "klein group order n*n")
        return KleinMultiplier(n, k)
    if kind == "trivial":
        return trivial_multiplier(decode_group(_require(data, "group"), proven))
    if kind == "table":
        group = decode_group(_require(data, "group"), proven)
        return TableMultiplier.from_exponents(group, _palette(_require(data, "values"), (group.order, group.order)))
    if kind == "direct_product":
        sigma1, sigma2 = _finite_factors(data, kind, depth)
        g1, g2 = sigma1.group, sigma2.group
        _check_order(g1.order * g2.order, "direct product order |G1|*|G2|")
        f = _palette(_require(_require(data, "f"), "table"), (g1.order, g2.order))
        return ProductMultiplier(sigma1, sigma2, Bihomomorphism.from_exponents(g1, g2, f))
    if kind == "torus":
        n = _integer(_require(data, "n"), "n")
        _check_order(n, "torus rank n")
        keys, compiled = _parameters(data, "theta", _THETA_KEY, "i,j")
        pairs = [(i - 1, j - 1) for i, j in keys]
        return LatticeMultiplier(Theta.from_compiled(n, pairs, compiled, _decode_basis(data)))
    if kind == "g3":
        keys, compiled = _parameters(data, "mu", _MU_KEY, "ij")
        return G3Multiplier(MuMatrix.from_compiled(keys, compiled, _decode_basis(data)))
    if kind == "free_product":
        factors = _finite_factors(data, kind, depth)
        for sigma in factors:
            sigma.group.names  # a witness word names its letters: a product's names must not collide
        return FreeProductMultiplier(*factors)
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
    raise SchemaError(f"cannot encode {type(sigma).__name__}")


def encode_word(fp: FreeProduct, word: FPWord) -> list:
    return [[str(factor), fp.factor(factor).names[elem]] for factor, elem in word]


def encode_witness_element(sigma: Multiplier, element) -> object:
    """Encode a domain element of any multiplier family for a report."""
    if isinstance(sigma, FreeProductMultiplier):
        return encode_word(sigma.fp, element)
    if isinstance(sigma, (LatticeMultiplier, G3Multiplier)):
        return list(element)
    return int(element)


def parse_fraction(text: str) -> Fraction:
    """An option's rational, read as ``torus._ratio`` reads an exact number."""
    try:
        return Fraction(*_ratio(str(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from None

"""Multipliers (2-cocycles with values in the circle) and their algebra.

A multiplier on G is a function sigma: G x G -> T with

    sigma(a,b) sigma(ab,c) = sigma(a,bc) sigma(b,c),
    sigma(a,e) = sigma(e,a) = 1,

written additively, sigma(a, b) = e^(2 pi i x) with x an exponent as in
``torus``; what a multiplier stores is the compiled integer array below.

A finite multiplier is compiled once, by ``exponents()``, to integers
over a common denominator D (``Exponents``): slot 0 of an (|G|, |G|, 1+k)
array holds the rational part times D, mod D, and slot i the coefficient
of the i-th declared symbol times D.  Every finite class of H^2(G, T) has
a representative with values in the |G|-th roots of unity, so D stays
small in practice; an array whose sums could pass 2^63 holds exact
Python ints instead of int64, so no comparison ever wraps.

A table from outside the program is proven by ``validate``, as numpy
operations on this array and the group's ``array``: the identity row and
column, then the cocycle identity on the |S| |G|^2 triples (a, s, c)
with s in the generating set S of ``FiniteGroup.generators``, which
proves it on all |G|^3 triples (Light's test); ``require_multiplier``
raises on its failure.  The library families are multipliers by
construction, and ``proven_by_construction`` says when: a Klein
multiplier is bilinear, an all-zero table is the trivial multiplier, and
a direct product is one when both of its factors are.  ``validate``
scans only a multiplier that this does not prove.

A finite family writes its closed form once, in ``_compile``; ``value``
reads the compiled entry.  A table keeps nothing but this array: a grid
of RotationNumbers is compiled when the table is made (``compile_grid``),
a decoded one from the integers ``torus.parse_exponent`` reads, and
``from_exponents`` takes an array as it is.  ``value`` is the one place
a finite multiplier makes RotationNumbers: one per distinct compiled
entry, when first asked for.

An infinite family (torus, g3, free product) takes integer combinations
of finitely many parameters: ``exponents()`` holds the P parameters,
compiled once (``compile_entries``) to a (P, 1+k) array over a common D,
and ``vector(a, b)`` is the exponent of sigma(a, b) times D, as 1+k
Python ints (``Exponents.combine`` of the parameter rows).  ``validate``
fuzzes these families on random triples; its docstring states how, one
triple or one chunk of triples at a time.  A ``RotationNumber`` is built
(``Exponents.rotation``) only where a value leaves the engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .groups import FiniteGroup, cyclic, direct_product
from .torus import RotationNumber

# 8-byte words per temporary of the blockwise cocycle scans and of a fuzz
# chunk (1 MiB of int64).
BLOCK = 1 << 17


class DomainMismatch(ValueError):
    """Operands live on different groups."""


class NotNormalized(ValueError):
    """A normalized multiplier was required (sigma(a, a^-1) = 1)."""


class NotAMultiplier(ValueError):
    """A finite table breaks the cocycle identities; ``witness`` is a
    violating triple (a, b, c) or identity pair (a, e).  ``factor`` names
    the free product factor (1 or 2) the table is, when it is one."""

    factor: int | None = None

    def __init__(self, witness: tuple, reason: str):
        super().__init__(f"{reason} fails at {witness}")
        self.witness = witness
        self.reason = reason


@dataclass(frozen=True, eq=False)
class Exponents:
    """Exponents over a common denominator D: entry x of ``array`` (its last
    axis) stands for (x[0] + sum_i x[i] * labels[i - 1]) / D.  ``array`` is
    (|G|, |G|, 1+k) for a finite multiplier and (P, 1+k) for the parameters
    of an infinite family; int64, or object (exact Python ints) when a sum
    of four entries could reach 2^63.

    Every maker of a stored array reduces slot 0 into [0, D), so two stored
    entries are one circle value exactly when they are equal slot by slot
    (``equal``); a difference or a sum of entries is not reduced, and
    ``is_zero`` tests it mod D."""

    D: int
    labels: tuple[str, ...]
    array: np.ndarray

    def is_zero(self, diff: np.ndarray) -> np.ndarray:
        """Which exponents of a difference (last axis the slots) are 0 mod 1:
        slot 0 vanishes mod D and every symbol slot vanishes."""
        zero = diff[..., 0] % self.D == 0
        if diff.shape[-1] > 1:
            zero &= (diff[..., 1:] == 0).all(axis=-1)
        return zero

    def equal(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Which stored entries of x and y (last axis the slots) are the same
        value: slot 0 of each lies in [0, D), so equal in every slot."""
        same = x == y
        return same[..., 0] if same.shape[-1] == 1 else same.all(axis=-1)

    def vanishes(self, x: Sequence) -> bool | np.ndarray:
        """Whether one exponent, its slots Python ints, is 0 mod 1 (``is_zero``
        of one exponent); for slots that are columns, which of them are."""
        vanish = x[0] % self.D == 0
        for slot in x[1:]:
            vanish = vanish & (slot == 0)
        return vanish

    def rotation(self, x: Sequence[int]) -> RotationNumber:
        """The exponent x / D of one vector as a RotationNumber."""
        D = self.D
        return RotationNumber(Fraction(x[0], D), {label: Fraction(c, D) for label, c in zip(self.labels, x[1:]) if c})

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.T.tolist()))

    def combine(self, coefficients: Sequence) -> list[int] | np.ndarray:
        """sum_p coefficients[p] * array[p] for a (P, 1+k) parameter array:
        the vector of that integer combination of the parameters, as Python
        ints; for P columns of m coefficients, the (1+k, m) array of them."""
        if isinstance(coefficients[0], np.ndarray):
            return self.array.T @ np.array(coefficients)
        return [sum(map(mul, coefficients, column)) for column in self._columns]

    def combination_dtype(self, coefficient: int):
        """The dtype (``exact_dtype``) that holds coefficients of magnitude at
        most ``coefficient`` and sums of four of their ``combine``s, whose
        slots are at most coefficient * P * max |entry|."""
        return exact_dtype(max(self.D, coefficient * self._weight))

    @cached_property
    def _weight(self) -> int:
        return max(1, len(self.array) * int(abs(self.array).max(initial=0)))

def one_frame(parts: Sequence[Exponents]) -> tuple[int, tuple[str, ...], tuple[np.ndarray, ...]]:
    """The lcm D of the parts' denominators, the sorted union of their
    labels, and their arrays recast to them: every slot times D / part.D, a
    symbol slot moved to its label's, in a dtype that holds a sum of one
    entry of each.  A part in that frame already is its own array, so no
    caller writes to what it gets."""
    D, labels = math.lcm(*(p.D for p in parts)), tuple(sorted(set().union(*(p.labels for p in parts))))
    bound = sum(int(abs(p.array).max(initial=0)) * (D // p.D) for p in parts)
    dtype = exact_dtype(max(D, bound))
    arrays = [p.array for p in parts]
    for i, p in enumerate(parts):
        if (p.D, p.labels, p.array.dtype) != (D, labels, dtype):
            arrays[i] = np.zeros(p.array.shape[:-1] + (1 + len(labels),), dtype=dtype)
            arrays[i][..., [0] + [1 + labels.index(label) for label in p.labels]] = p.array.astype(dtype) * (D // p.D)
    return D, labels, tuple(arrays)


def exact_dtype(bound: int):
    """int64 while four entries of magnitude ``bound`` (and D) cannot reach 2^63."""
    return np.int64 if 4 * bound < 2**63 else object


def compile_entries(entries: Sequence[tuple[tuple[int, int], Mapping[str, tuple[int, int]]]]) -> Exponents:
    """P exponents compiled to a (P, 1+k) array over their common D.  An
    exponent is given as the (numerator, denominator) in lowest terms of
    its rational part and of each symbol coefficient, the form
    ``torus.parse_exponent`` reads from JSON; a symbol whose coefficients
    are all 0 gets no slot."""
    D = math.lcm(*(den for (_, den), _ in entries), *(den for _, irr in entries for _, den in irr.values()))
    labels = tuple(sorted({label for _, irr in entries for label, (c, _) in irr.items() if c}))
    slot = {label: i for i, label in enumerate(labels, 1)}
    rows = []
    for (num, den), irr in entries:
        row = [num * (D // den) % D] + [0] * len(labels)
        for label, (c, d) in irr.items():
            if c:
                row[slot[label]] = c * (D // d)
        rows.append(row)
    bound = max(D, max((abs(v) for row in rows for v in row), default=0))
    return Exponents(D, labels, np.array(rows, dtype=exact_dtype(bound)).reshape(len(rows), 1 + len(labels)))


def compile_params(values: Iterable[RotationNumber]) -> Exponents:
    """P RotationNumbers compiled by ``compile_entries``, for the constructors
    that take them; a decoded input compiles its parsed integers instead."""
    return compile_entries([
        ((x.rat.numerator, x.rat.denominator), {label: (c.numerator, c.denominator) for label, c in x.coeffs})
        for x in values
    ])


def compile_grid(rows: Sequence[Sequence[RotationNumber]]) -> Exponents:
    """An (m, n) grid of RotationNumbers as one (m, n, 1+k) array: its
    distinct contents compiled by ``compile_params``, then gathered."""
    slot: dict[RotationNumber, int] = {}
    index = np.array([[slot.setdefault(x, len(slot)) for x in row] for row in rows], dtype=np.intp)
    distinct = compile_params(slot)
    return Exponents(distinct.D, distinct.labels, distinct.array[index.reshape(len(rows), -1)])


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
    """Base interface: an exact cocycle value for a pair of elements.

    A family defines ``exponents``, ``vector`` (the exponent of sigma(a, b)
    times exponents().D, as Python ints), ``multiply`` and
    ``identity_element``.  ``validate`` draws an infinite family's triples
    by ``random_element``, or where ``column_dtype`` gives a dtype, by
    ``random_elements`` as coordinate columns."""

    def value(self, a, b) -> RotationNumber:
        return self.exponents().rotation(self.vector(a, b))

    def column_dtype(self, box: int):
        """A dtype that holds every coordinate and exponent sum of ``validate``
        on triples drawn with ``box``, for the coordinate columns of a
        chunk, which a family with one also draws in one call
        (``random_elements``); None (the default) for a family fuzzed one
        triple at a time."""
        return None


class FiniteMultiplier(Multiplier):
    """A multiplier on a finite table group; elements are indices."""

    group: FiniteGroup
    _exponents: Exponents | None = None
    _rotations: dict[tuple[int, ...], RotationNumber] | None = None

    def exponents(self) -> Exponents:
        """The compiled (|G|, |G|, 1+k) form, computed once per instance."""
        if self._exponents is None:
            self._exponents = self._compile()
        return self._exponents

    def proven_by_construction(self) -> bool:
        """Whether the way sigma was made proves it a multiplier, so that
        ``validate`` need not scan its table."""
        return False

    def value(self, a: int, b: int) -> RotationNumber:
        """sigma(a, b): one RotationNumber per distinct compiled entry, made
        when first asked for and shared by every pair with that entry."""
        x = tuple(self.exponents().array[a, b].tolist())
        if self._rotations is None:
            self._rotations = {}
        v = self._rotations.get(x)
        if v is None:
            v = self._rotations[x] = self._exponents.rotation(x)
        return v

    def to_table(self) -> "TableMultiplier":
        return TableMultiplier.from_exponents(self.group, self.exponents())

    def is_normalized(self) -> bool:
        """sigma(a, a^-1) = 1 for every a."""
        ex, g = self.exponents(), self.group
        return bool(ex.is_zero(ex.array[np.arange(g.order), g.inverses]).all())


class TableMultiplier(FiniteMultiplier):
    """Dense |G| x |G| table, held only as its compiled array."""

    def __init__(self, group: FiniteGroup, values: Sequence[Sequence[RotationNumber]]):
        n = group.order
        if len(values) != n or any(len(row) != n for row in values):
            raise DomainMismatch("table shape does not match group order")
        self.group = group
        self._exponents = compile_grid(values)

    @classmethod
    def from_exponents(cls, group: FiniteGroup, exponents: Exponents) -> "TableMultiplier":
        """The table of a compiled (|G|, |G|, 1+k) array."""
        sigma = cls.__new__(cls)
        sigma.group, sigma._exponents = group, exponents
        return sigma

    @property
    def values(self) -> tuple[tuple[RotationNumber, ...], ...]:
        n = self.group.order
        return tuple(tuple(self.value(a, b) for b in range(n)) for a in range(n))

    def proven_by_construction(self) -> bool:
        """Every entry is 0: the trivial multiplier."""
        return not self._exponents.array.any()


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

    def proven_by_construction(self) -> bool:
        """sigma_k is a bilinear form on Z_n x Z_n, and every bilinear form is
        a 2-cocycle that vanishes on the identity row and column."""
        return True

    def _compile(self) -> Exponents:
        """Gathered from the n x n table k a2 b1 mod n: row a of the product
        table is row a2 = a mod n of it, each column b1 = b // n repeated
        over the n columns b that share it."""
        x = np.arange(self.n, dtype=np.int64)
        small = self.k * np.multiply.outer(x, x) % self.n  # small[a2, b1]
        table = np.repeat(np.tile(small, (self.n, 1)), self.n, axis=1)
        return Exponents(self.n, (), table[:, :, None])


def klein(n: int, k: int) -> KleinMultiplier:
    return KleinMultiplier(n, k)


def trivial_multiplier(group: FiniteGroup) -> TableMultiplier:
    zeros = np.zeros((group.order, group.order, 1), dtype=np.int64)
    return TableMultiplier.from_exponents(group, Exponents(1, (), zeros))


# -- validation --------------------------------------------------------------


def draw(rng: random.Random, low: int, high: int) -> int:
    """What ``rng.randint(low, high)`` draws, leaving ``rng`` in the same
    state, in one call instead of its three: like ``Random.randrange`` (and
    ``choice``, of width ``len(seq)``), k = width.bit_length() bits from
    ``getrandbits``, drawn again while they reach the width; ValueError,
    before any draw, on an empty range."""
    width = high - low + 1
    if width < 1:
        raise ValueError(f"empty range [{low}, {high}]")
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return low + r


def draws(rng: random.Random, low: int, high: int, count: int) -> np.ndarray:
    """The ``count`` values of ``count`` calls of ``draw(rng, low, high)``, in
    order, with ``rng`` left in the same state, as one int64 array (object
    where [low, high] passes int64).  For k <= 32 bits, ``getrandbits(k)``
    is one 32-bit output shifted right by 32 - k, and ``getrandbits(32 m)``
    the next m outputs, output i at bit 32 i: each round draws one word per
    value still missing and keeps those below the width, so no word is
    drawn past the last value kept.  Wider ranges, and empty ones, ``draw``
    one at a time."""
    width = high - low + 1
    k = width.bit_length()
    int64 = -(2**63) <= low and high < 2**63
    if k > 32 or width < 1 or not int64:
        return np.array([draw(rng, low, high) for _ in range(count)], dtype=np.int64 if int64 else object)
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        need = count - done
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), dtype="<u4") >> (32 - k)
        kept = words[words < width]
        out[done : done + len(kept)] = kept
        done += len(kept)
    out += low
    return out


def validate(
    sigma: Multiplier,
    rng: random.Random | None = None,
    triples: int = 10000,
    box: int = 5,
) -> ValidationReport:
    """Check the cocycle identity and the identity-row normalization.

    A finite multiplier that ``proven_by_construction`` proves (a Klein
    multiplier, an all-zero table, a direct product whose factors both
    pass ``validate``) is a multiplier by construction and is not
    scanned.  Any other, such as a table read from input, is proven
    through the generating set S of its group: the identity row and
    column, then the cocycle identity on the triples (a, s, c) with s in
    S.  In the extension T x G with product (x,a)(y,b) =
    (x+y+sigma(a,b), ab) these say that every (x, s) associates in the
    middle; the middle elements that associate are closed under products
    (Light's test) and (x, e) is one of them, so the closure of {e} under
    y -> y s, which is G, satisfies the identity for all a, c.  Either
    proof of a valid multiplier reports ``checked`` = |G|^3, the triples
    it covers.  A failure reports the first (a, s, c) in the order a,
    then s in the order of S, then c, and ``checked`` = (a |S| + j) |G| + c
    triples compared before it, s the j-th generator; a failing identity
    row or column reports (a, e) and ``checked`` = |G|.

    Infinite families are fuzzed on `triples` random triples with
    coordinates in [-box, box] (words of at most `box` letters on a free
    product), drawn on the stream of ``rng.randint``, a, b, c of each
    triple in turn.  A violation is reported with its witness triple, not
    raised: the first failing triple (the identity row or column before
    the cocycle identity) and ``checked``, the triples before it.  A free
    product is drawn (``random_element``) and checked one triple at a
    time; a family with a ``column_dtype`` (torus, g3), whose ``multiply``
    and ``vector`` take coordinate columns, a chunk at a time
    (``_fuzz_chunks``): the chunk's 3m elements in one ``random_elements``
    call (``draws``), the six pairs of each triple in one ``vector`` call
    on about BLOCK words, int64 columns where ``column_dtype`` bounds
    every coordinate and sum below 2^63, exact Python ints otherwise.  A
    failing chunk rewinds ``rng`` and draws again up to its first failing
    triple, so the report and the state of ``rng`` are the loop's over
    single triples.  A negative `triples` raises ValueError before any draw.
    """
    if isinstance(sigma, FiniteMultiplier):
        g = sigma.group
        n, e = g.order, g.identity
        if sigma.proven_by_construction():
            return ValidationReport(True, n**3, "exhaustive")
        ex = sigma.exponents()
        a = _unit_failure(ex, e)
        if a is not None:
            return ValidationReport(False, n, "exhaustive", (a, e, None), "identity row/column")
        failure = _cocycle_failure(ex, g)
        if failure is not None:
            checked, witness = failure
            return ValidationReport(False, checked, "exhaustive", witness, "cocycle identity")
        return ValidationReport(True, n**3, "exhaustive")

    if triples < 0:
        raise ValueError(f"triples must be >= 0, not {triples}")
    rng = rng or random.Random(0)
    e = sigma.identity_element()
    dtype = sigma.column_dtype(box)
    if dtype is not None:
        return _fuzz_chunks(sigma, rng, triples, box, dtype)
    vanishes = sigma.exponents().vanishes
    vector = sigma.vector
    for checked in range(triples):
        a = sigma.random_element(rng, box)
        b = sigma.random_element(rng, box)
        c = sigma.random_element(rng, box)
        if not vanishes(vector(a, e)) or not vanishes(vector(e, a)):
            return ValidationReport(False, checked, "fuzz", (a, e, None), "identity row/column")
        ab = sigma.multiply(a, b)
        bc = sigma.multiply(b, c)
        defect = [p + q - r - s for p, q, r, s in zip(vector(a, b), vector(ab, c), vector(a, bc), vector(b, c))]
        if not vanishes(defect):
            return ValidationReport(False, checked, "fuzz", (a, b, c), "cocycle identity")
    return ValidationReport(True, triples, "fuzz")


def _fuzz_chunks(sigma: Multiplier, rng: random.Random, triples: int, box: int, dtype) -> ValidationReport:
    """The chunked fuzz of ``validate``, m triples at a time.  A triple holds
    about 32 (n + 1 + k) words (elements, pairs, exponents, temporaries; an
    exact int counts as 8), and m is as many as fit in BLOCK, at least 1.
    A chunk's elements are one (3m, n) ``random_elements`` array, cast to
    the column dtype; a failure at triple t rewinds ``rng`` to the chunk's
    start and draws its first 3 (t + 1) elements again in one call, and
    the witness is read back as tuples of Python ints."""
    e = sigma.identity_element()
    ex = sigma.exponents()
    words = 32 * (len(e) + ex.array.shape[1]) * (1 if dtype == np.int64 else 8)
    step = max(1, BLOCK // words)
    for start in range(0, triples, step):
        m = min(step, triples - start)
        state = rng.getstate()
        drawn = sigma.random_elements(rng, box, 3 * m)
        a, b, c = drawn.astype(dtype, copy=False).reshape(m, 3, len(e)).transpose(1, 2, 0)
        ident = np.tile(np.array(e, dtype=dtype)[:, None], m)
        ab, bc = sigma.multiply(a, b), sigma.multiply(b, c)
        left, right = np.concatenate((a, ident, a, ab, a, b), axis=1), np.concatenate((ident, a, b, c, bc, c), axis=1)
        ae, ea, x_ab, x_ab_c, x_a_bc, x_bc = np.split(np.asarray(sigma.vector(left, right)), 6, axis=1)
        unit_fails = ~(ex.vanishes(ae) & ex.vanishes(ea))
        fails = unit_fails | ~ex.vanishes(x_ab + x_ab_c - x_a_bc - x_bc)
        if fails.any():
            t = int(fails.argmax())
            rng.setstate(state)  # leave rng where the loop over single triples would
            sigma.random_elements(rng, box, 3 * (t + 1))
            a, b, c = map(tuple, drawn[3 * t : 3 * t + 3].tolist())
            if unit_fails[t]:
                return ValidationReport(False, start + t, "fuzz", (a, e, None), "identity row/column")
            return ValidationReport(False, start + t, "fuzz", (a, b, c), "cocycle identity")
    return ValidationReport(True, triples, "fuzz")


def _unit_failure(ex: Exponents, e: int) -> int | None:
    """The first a with sigma(a, e) or sigma(e, a) not 1."""
    bad = ~(ex.is_zero(ex.array[:, e]) & ex.is_zero(ex.array[e, :]))
    return int(bad.argmax()) if bad.any() else None


def _cocycle_failure(ex: Exponents, g: FiniteGroup) -> tuple[int, tuple[int, int, int]] | None:
    """The first (a, s, c), s in ``g.generators()``, with
    sigma(a,s) + sigma(as,c) != sigma(a,sc) + sigma(s,c), in the order a,
    s, c, and the number of triples compared before it; scanned in blocks
    of a so that no temporary holds more than about BLOCK 8-byte words (an
    exact int of an object array counts as 4 + D.bit_length() // 60 words)."""
    s = np.asarray(g.generators(), dtype=np.intp)
    if not s.size:  # the trivial group has no generators
        return None
    E, t = ex.array, g.array
    n = len(t)
    sc, sigma_sc = t[s], E[s]
    words = 4 + ex.D.bit_length() // 60 if E.dtype == object else 1
    step = max(1, BLOCK // (len(s) * n * E.shape[-1] * words))
    for a0 in range(0, n, step):
        a = np.arange(a0, min(n, a0 + step))
        defect = E[t[np.ix_(a, s)]]  # sigma(as, c)
        defect += E[np.ix_(a, s)][:, :, None]
        defect -= E[a[:, None, None], sc]
        defect -= sigma_sc
        bad = np.flatnonzero(~ex.is_zero(defect))
        if bad.size:
            i, j, c = np.unravel_index(bad[0], defect.shape[:3])
            return a0 * len(s) * n + int(bad[0]), (int(a[i]), int(s[j]), int(c))
    return None


def require_multiplier(sigma: FiniteMultiplier) -> None:
    """Raise NotAMultiplier, with the witness of ``validate`` ((a, s, c), or
    (a, e) for the identity row and column), unless sigma is a multiplier."""
    report = validate(sigma)
    if not report:
        raise NotAMultiplier(tuple(w for w in report.witness if w is not None), report.reason)


# -- similarity ---------------------------------------------------------------


def coboundary_twist(sigma: FiniteMultiplier, beta: Sequence[RotationNumber]) -> TableMultiplier:
    """The similar multiplier tau(a,b) = beta(a)+beta(b)-beta(ab)+sigma(a,b)."""
    g = sigma.group
    if len(beta) != g.order:
        raise DomainMismatch("beta length != group order")
    if not (-beta[g.identity]).is_integral():
        raise ValueError("beta(e) must be 1")
    D, labels, (grid, e) = one_frame((compile_grid([beta]), sigma.exponents()))
    b = grid[0]
    table = b[:, None] + b[None, :] - b[g.array] + e
    table[..., 0] %= D
    table = table.astype(exact_dtype(max(D, int(abs(table).max()))))
    return TableMultiplier.from_exponents(g, Exponents(D, labels, table))


# -- normalization ------------------------------------------------------------


def normalize(sigma: FiniteMultiplier) -> tuple[TableMultiplier, tuple[RotationNumber, ...]]:
    """A similar multiplier with sigma'(a, a^-1) = 1 for every a, and the
    beta of the coboundary that takes sigma to it (``coboundary_twist``).

    beta is read off the compiled array E over the denominator 2D, where
    halving an exponent is doubling D: of each pair {r, r^-1}, r < r^-1,
    r^-1 gets -2 E[r, r^-1] = conj(sigma(r, r^-1)) and r gets 0; an
    involution a gets -E[a, a], the conjugate of half of sigma(a, a)'s
    exponent in [0, 1); e gets 0.  Since any multiplier has
    sigma(a, a^-1) = sigma(a^-1, a), this normalizes both orders.
    """
    g, ex = sigma.group, sigma.exponents()
    a, inv = np.arange(g.order), g.inverses
    beta = -ex.array[inv, a]  # -E[a^-1, a]: -E[a, a] on an involution
    beta[inv < a] *= 2
    beta[(inv > a) | (a == g.identity)] = 0
    halves = Exponents(2 * ex.D, ex.labels, beta)
    rows = list(map(tuple, beta.tolist()))
    rotations = {x: halves.rotation(x) for x in set(rows)}  # one RotationNumber per distinct beta
    betas = tuple(map(rotations.__getitem__, rows))
    return coboundary_twist(sigma, betas), betas

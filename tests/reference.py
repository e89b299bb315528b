"""Reference implementations for the differential tests.

- ``scale``, ``halve`` and ``evaluate`` of a RotationNumber (the integer
  multiple k x, one square root, and e^(2 pi i x) as a complex number),
  and ``conj`` in a finite group (a c a^-1): arithmetic the package does
  not need.
- ``normalize_ref``: the normalizing coboundary chosen element by element
  on RotationNumbers, with ``halve`` for the involutions.
- The decode and compile path that the palette decode replaced:
  ``_rotations`` made one RotationNumber per distinct entry content and a
  |G| x |G| grid of references to them, and ``compile_values`` compiled
  such a grid.
- The exact regular representations ``lambda_exact`` and ``rho_bar_exact``
  as generalized permutation matrices (``GenPermMatrix``).
- ``classes_by_split`` and ``regular_classes_loop``: conjugacy classes
  cut with ``np.split`` and the per-class regularity loop, which builds
  the report of one ``ConjugacyClass`` per class (``ClassReportRef``).
- ``class_layout_ref``: the class layout by the conjugation gather, which
  ``FiniteGroup.class_layout`` skips on abelian groups; ``class_of``, the
  class of one element.
- ``klein_exponents_ref``: the Klein table k a2 b1 mod n, entry by entry.
- ``regular_elements_ref``: regularity read off the differences
  sigma(a, b) - sigma(b, a) with ``Exponents.is_zero``.
- ``theta_entries`` and ``mu_params``: the parameters of a ``Theta`` or a
  ``MuMatrix`` as RotationNumbers, read back from its JSON encoding.
- ``decode_params_ref``: the torus and g3 decode that read each parameter
  with ``RotationNumber.from_json`` and kept the RotationNumbers
  (``ThetaRef``, ``MuRef``), with their ``to_json``, ``qtheta_dimension``
  and ``row_matrix``; ``rank_ref``, the rank over Q by Gaussian
  elimination on Fractions, which ``qtheta_dimension`` reads.
- ``two_of_three_loop``: conditions (iii) and (iv) of ``two_of_three``
  as the loop over the centralizer that compared RotationNumbers.
- ``check_sigma_tilde`` and ``regularity_identity_check``: the
  conjugation and product phase identities, checked pair by pair on
  RotationNumbers (only tests call them).
- ``generators_ref``: the greedy generating set found by the numpy
  closure that marked each level of the search in a boolean mask.
- ``_light_validate_ref``: the report of ``validate``'s generating-set
  proof, computed triple by triple on RotationNumbers.
- ``class_function_ref``: the class function of one regular class, by the
  per-conjugator RotationNumber loop that ``center_basis`` replaced.
- ``convolve_ref``: the exact twisted convolution term by term, each
  product coefficient added into a copy of the running sum, as
  coefficient terms (phase -> magnitude).
- The free-product word arithmetic that calls the factor groups per
  letter: ``multiply_ref``, ``factor_images_ref``, ``reduce_pair`` with
  ``tau_ref``, ``beta_ref`` and ``vector_ref`` (no memo, no shortcut),
  and the unmemoized ``prefix_telescope_ref`` of ``decompose``;
  ``check_word``, which passes a word only when it is reduced.
- The two reduction rules that ``FreeProduct.multiply`` replaced:
  ``word_ref``, the stack that reduced a letter sequence, and
  ``tau_scan_ref``, the scan for tau over the run of inverse boundary
  letters on the factor tables, which ``FreeProductMultiplier._meet``
  replaced.
- ``is_similar``: the similarity of two finite multipliers under a given
  beta, pair by pair on RotationNumbers.
- ``hermite_normal_form_ref``: the minimal-pivot Hermite form with the
  transform U kept apart from A, each row operation made on both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from twistk.freeprod import FPWord, FreeProduct, FreeProductMultiplier, expand_syllable, rewrite_to_X
from twistk.groups import ConjugacyClass, FiniteGroup
from twistk.multipliers import (
    DomainMismatch,
    Exponents,
    FiniteMultiplier,
    TableMultiplier,
    coboundary_twist,
    exact_dtype,
)
from twistk.products import ProductMultiplier
from twistk.regularity import ClassInconsistency, regular_elements
from twistk.torus import ZERO, IrrationalBasis, MissingHint, RotationNumber

_NO_SYMBOLS: dict = {}


def scale(x: RotationNumber, k: int) -> RotationNumber:
    """Integer multiple k*x (the k-th power of the circle value)."""
    if not isinstance(k, int):
        raise TypeError(f"scale expects an integer, got {type(k).__name__}")
    return RotationNumber(x.rat * k, tuple((l, c * k) for l, c in x.coeffs))


def halve(x: RotationNumber) -> RotationNumber:
    """One square root: the representative in [0,1) divided by two.

    The other square root differs by 1/2; ``normalize`` relies on exactly
    this choice for the involutions.
    """
    return RotationNumber(x.rat / 2, tuple((l, c / 2) for l, c in x.coeffs))


def normalize_ref(sigma: FiniteMultiplier) -> tuple[TableMultiplier, tuple[RotationNumber, ...]]:
    """``normalize`` as the loop over the elements: of each pair {a, a^-1},
    a < a^-1, a gets beta = 1 and a^-1 gets conj(sigma(a, a^-1)); an
    involution a gets conj(halve(sigma(a, a))), and e gets 1."""
    g = sigma.group
    beta: list[RotationNumber | None] = [None] * g.order
    for a in g.elements():
        if beta[a] is not None:
            continue
        ainv = g.inv(a)
        if a == ainv:
            beta[a] = -halve(sigma.value(a, a))
        else:
            beta[a] = ZERO
            beta[ainv] = -sigma.value(a, ainv)
    beta[g.identity] = ZERO
    return coboundary_twist(sigma, beta), tuple(beta)


def evaluate(x: RotationNumber) -> complex:
    """e^(2*pi*i*x) as a double-precision complex number, for an x without
    symbols; the first symbol raises MissingHint."""
    if x.coeffs:
        raise MissingHint(x.coeffs[0][0])
    return cmath.exp(2j * cmath.pi * float(x.rat))


def conj(g: FiniteGroup, a: int, c: int) -> int:
    """a c a^-1."""
    return g.mul(g.mul(a, c), g.inv(a))


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
            mat[row, b] = evaluate(phase)
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


@dataclass
class ClassReportRef:
    """The regularity report as one ``ConjugacyClass`` per class with its
    flag, the witness and the count of regular elements."""

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


def class_layout_ref(g: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The elements class by class and the start of each class, from the
    conjugates c a c^-1 of every a, on any group."""
    t = g.array
    smallest = t[t, g.inverses[:, None]].min(axis=0)
    order = np.argsort(smallest, kind="stable")
    _, starts = np.unique(smallest[order], return_index=True)
    return order, starts


def class_of(g: FiniteGroup, a: int) -> ConjugacyClass:
    for cls in g.conjugacy_classes():
        if a in cls.members:
            return cls
    raise ValueError(a)


def klein_exponents_ref(n: int, k: int) -> list[list[int]]:
    """sigma_k((a1, a2), (b1, b2)) = k a2 b1 / n at a = a1 n + a2, b = b1 n + b2,
    as the numerator mod n, one entry at a time."""
    return [[k * (a % n) * (b // n) % n for b in range(n * n)] for a in range(n * n)]


def regular_elements_ref(sigma: FiniteMultiplier) -> np.ndarray:
    """a is regular iff sigma(a, b) - sigma(b, a) is 0 mod 1 (``is_zero``)
    for every b that commutes with a."""
    ex = sigma.exponents()
    t = sigma.group.array
    asymmetric = ~ex.is_zero(ex.array - ex.array.transpose(1, 0, 2))
    return ~(asymmetric & (t == t.T)).any(axis=1)


def regular_classes_loop(sigma: FiniteMultiplier) -> ClassReportRef:
    """``regular_classes`` with one minimum and one maximum per class, as a
    ``ClassReportRef``."""
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
    return ClassReportRef(tuple(flagged), witness, regular_count)


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
            x = conj(g, a, c)
            if val(ainv, x) + val(a, c) != val(c, ainv) + val(x, a):
                return (a, c)
    return None


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


def theta_entries(theta) -> dict[tuple[int, int], RotationNumber]:
    """The entries t_ij (0-based, i < j) of a Theta that are not integral."""
    out = {}
    for key, value in theta.to_json()["theta"].items():
        i, j = map(int, key.split(","))
        out[(i - 1, j - 1)] = RotationNumber.from_json(value)
    return out


def mu_params(mu) -> dict[tuple[int, int], RotationNumber]:
    """The eight parameters mu_ij of a MuMatrix, in the order mu_11, mu_12, ..., mu_33."""
    return {(int(key[0]), int(key[1])): RotationNumber.from_json(v) for key, v in mu.to_json()["mu"].items()}


_MU_KEYS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))


class ThetaRef:
    """A torus theta as the RotationNumbers of its entries that are not
    integral, each entry checked in order (index range, then symbols)."""

    def __init__(self, n: int, entries: dict, basis: IrrationalBasis):
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n, self.basis, self.entries = n, basis, {}
        for (i, j), v in entries.items():
            if not 0 <= i < j < n:
                raise ValueError(f"entry index ({i},{j}) out of range for rank {n}")
            basis.check_labels(label for label, _ in v.coeffs)
            if not v.is_integral():
                self.entries[(i, j)] = v

    def to_json(self) -> dict:
        return {
            "type": "torus",
            "n": self.n,
            "theta": {f"{i + 1},{j + 1}": v.to_json() for (i, j), v in sorted(self.entries.items())},
            "basis": list(self.basis.labels),
        }

    def qtheta_dimension(self) -> int:
        labels = self.basis.labels
        vectors = [[Fraction(1)] + [Fraction(0)] * len(labels)]
        for pair in ((0, 1), (0, 2), (1, 2)):
            v = self.entries.get(pair, ZERO)
            coeffs = dict(v.coeffs)
            vectors.append([v.rat] + [coeffs.get(label, Fraction(0)) for label in labels])
        return rank_ref(vectors)


def rank_ref(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: Gaussian elimination on Fractions, one pivot per column
    that has a nonzero entry below the rows already used."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class MuRef:
    """The eight g3 parameters as RotationNumbers (ZERO where one is not
    given), mu_31 and unknown keys refused, then symbols checked in key order."""

    def __init__(self, mu: dict, basis: IrrationalBasis):
        self.basis = basis
        if (3, 1) in mu:
            raise ValueError("mu_31 is derived (mu_13 - mu_22); do not supply it")
        unknown = set(mu) - set(_MU_KEYS)
        if unknown:
            raise ValueError(f"unknown mu keys: {sorted(unknown)}")
        self.mu = {key: mu.get(key, ZERO) for key in _MU_KEYS}
        for v in self.mu.values():
            basis.check_labels(label for label, _ in v.coeffs)

    def param(self, i: int, j: int) -> RotationNumber:
        return self.mu[(2, 2)] - self.mu[(1, 3)] if (i, j) == (3, 1) else self.mu[(i, j)]

    def row_matrix(self) -> list[list[RotationNumber]]:
        return [[self.param(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]

    def to_json(self) -> dict:
        return {
            "type": "g3",
            "mu": {f"{i}{j}": self.mu[(i, j)].to_json() for (i, j) in _MU_KEYS},
            "basis": list(self.basis.labels),
        }


def decode_params_ref(data: dict) -> ThetaRef | MuRef:
    """A torus or g3 spec with canonical keys: each parameter read by
    ``RotationNumber.from_json``, in input order, then the basis."""
    if data["type"] == "torus":
        entries = {}
        for key, value in data["theta"].items():
            i, j = map(int, key.split(","))
            entries[(i - 1, j - 1)] = RotationNumber.from_json(value)
        return ThetaRef(data["n"], entries, IrrationalBasis(tuple(data.get("basis", []))))
    mu = {(int(key[0]), int(key[1])): RotationNumber.from_json(value) for key, value in data["mu"].items()}
    return MuRef(mu, IrrationalBasis(tuple(data.get("basis", []))))


def two_of_three_loop(sigma: ProductMultiplier, a: int) -> tuple[bool, bool]:
    """(iii) f(a1, b2) = f(b1, a2) and (iv) both are 1, for every b in the
    centralizer of a."""
    f = sigma.f
    a1, a2 = sigma.split(a)
    cond_iii = True
    cond_iv = True
    for b in sigma.group.centralizer(a):
        b1, b2 = sigma.split(b)
        lhs = f.value(a1, b2)
        rhs = f.value(b1, a2)
        if lhs != rhs:
            cond_iii = False
        if not lhs.is_integral() or not rhs.is_integral():
            cond_iv = False
    return cond_iii, cond_iv


def generators_ref(g: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating set of ``FiniteGroup.generators`` by the numpy
    search it replaced: the smallest unreached element joins S, and each
    level of the closure marks its products in a boolean mask."""
    t = g.array
    reached = np.zeros(g.order, dtype=bool)
    reached[g.identity] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        cols = t[:, gens]
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(g.order, dtype=bool)
            hit[cols[frontier]] = True
            hit &= ~reached
            reached |= hit
            frontier = np.flatnonzero(hit)
    return tuple(gens)


def _light_validate_ref(sigma):
    """(ok, checked, witness, reason) of the generating-set proof: the identity
    row and column, then the first (a, s, c) in the order a, s in the order
    of ``generators()``, c, with the number of triples compared before it."""
    g = sigma.group
    n = g.order
    e = g.identity
    val = sigma.value
    for a in range(n):
        if not val(a, e).is_integral() or not val(e, a).is_integral():
            return False, n, (a, e, None), "identity row/column"
    mul, gens = g.table, g.generators()
    checked = 0
    for a in range(n):
        for s in gens:
            for c in range(n):
                if val(a, s) + val(mul[a][s], c) != val(a, mul[s][c]) + val(s, c):
                    return False, checked, (a, s, c), "cocycle identity"
                checked += 1
    return True, n**3, None, None


def class_function_ref(sigma: FiniteMultiplier, cls: ConjugacyClass) -> dict[int, RotationNumber]:
    """f(a c a^-1) = sigma(a, c) conj(sigma(a c a^-1, a)) for the base point c.

    The base point is the smallest element index of the class.  The value
    at each member is computed from every conjugator a in G, and any
    disagreement raises ValueError: for a valid multiplier, agreement for
    all conjugators is equivalent to regularity of the class.
    """
    g = sigma.group
    base = min(cls.members)
    values: dict[int, RotationNumber] = {}
    for a in g.elements():
        x = conj(g, a, base)
        v = sigma.value(a, base) - sigma.value(x, a)
        if x in values:
            if values[x] != v:
                raise ValueError(
                    f"conflicting values at {x}: {values[x]!r} vs {v!r} (class of "
                    f"{cls.representative} is not regular)"
                )
        else:
            values[x] = v
    if set(values) != set(cls.members):
        raise ClassInconsistency("conjugation orbit of the base point missed class members")
    return values


def _added(acc: dict, terms: dict) -> dict:
    """A copy of the running sum ``acc`` with ``terms`` added, phase by
    phase, and the phases whose sum is zero dropped."""
    out = dict(acc)
    for phase, mag in terms.items():
        out[phase] = out.get(phase, Fraction(0)) + mag
        if not out[phase]:
            del out[phase]
    return out


def convolve_ref(sigma: FiniteMultiplier, f, g) -> dict[int, dict[RotationNumber, Fraction]]:
    """The terms of each coefficient of the twisted convolution f * g, one
    pair (b, d) at a time: the product f(b) g(d) is summed term by term,
    rotated by sigma(b, d) and added to a copy of the running coefficient
    at bd, which is dropped when it cancels to zero."""
    grp = sigma.group
    acc: dict[int, dict] = {}
    for b, fb in f.coeffs.items():
        for d, gd in g.coeffs.items():
            product: dict = {}
            for p1, m1 in fb.terms.items():
                for p2, m2 in gd.terms.items():
                    product = _added(product, {p1 + p2: m1 * m2})
            x = sigma.value(b, d)
            a = grp.mul(b, d)
            total = _added(acc.get(a, {}), {p + x: m for p, m in product.items()})
            if total:
                acc[a] = total
            else:
                acc.pop(a, None)
    return acc


def multiply_ref(fp: FreeProduct, x: FPWord, y: FPWord) -> FPWord:
    """Reduced product: cancel inverse boundary letters, merge same-factor
    boundary letters, recurse inward."""
    x = list(x)
    j = 0
    while x and j < len(y):
        factor, elem = x[-1]
        yf, ye = y[j]
        if factor != yf:
            break
        g = fp.factor(factor)
        merged = g.mul(elem, ye)
        if merged == g.identity:
            x.pop()
            j += 1
        else:
            x[-1] = (factor, merged)
            j += 1
            break
    return tuple(x) + tuple(y[j:])


def factor_images_ref(fp: FreeProduct, x: FPWord) -> tuple[int, int]:
    """The images of x under the projection G1 * G2 -> G1 x G2."""
    p1 = fp.g1.identity
    p2 = fp.g2.identity
    for factor, elem in x:
        if factor == 1:
            p1 = fp.g1.mul(p1, elem)
        else:
            p2 = fp.g2.mul(p2, elem)
    return p1, p2


def reduce_pair(fp: FreeProduct, x: FPWord, y: FPWord) -> tuple[FPWord, FPWord]:
    """Cancel the longest run of exactly-inverse boundary letters.

    Whole letters only: the returned pair (x_w, y_w) satisfies
    x_w y_w = x y and its boundary letters are not exact inverses (they
    may still merge, which is tau's same-factor case).  A reduced pair is
    returned unchanged.
    """
    k = 0
    limit = min(len(x), len(y))
    while k < limit and x[len(x) - 1 - k] == fp.inverse_letter(y[k]):
        k += 1
    return x[: len(x) - k], y[k:]


def tau_ref(sigma: FreeProductMultiplier, x: FPWord, y: FPWord) -> Sequence[int]:
    """The vector of tau(x, y): the factor value at the boundary letters of
    the reduced pair, 0 across factors or against the identity."""
    xw, yw = reduce_pair(sigma.fp, x, y)
    zero = (0,) * (1 + len(sigma.exponents().labels))
    if not xw or not yw:
        return zero
    rf, relem = xw[-1]
    sf, selem = yw[0]
    if rf != sf:
        return zero
    return sigma._tables[rf][relem][selem]


def word_ref(fp: FreeProduct, letters) -> FPWord:
    """Reduce a letter sequence on a stack, merging and cancelling."""
    stack: list = []
    for factor, elem in letters:
        e = fp._identity[factor]
        if elem == e:
            continue
        if stack and stack[-1][0] == factor:
            merged = fp._mul[factor][stack.pop()[1]][elem]
            if merged != e:
                stack.append((factor, merged))
        else:
            stack.append((factor, elem))
    return tuple(stack)


def tau_scan_ref(sigma: FreeProductMultiplier, x: FPWord, y: FPWord) -> Sequence[int]:
    """The factor value where reduced x and y meet once the run of inverse
    boundary letters cancels; ``sigma._zero`` across factors or if a side
    runs out."""
    if not x or not y or x[-1][0] != y[0][0]:
        return sigma._zero
    inverse = sigma.fp._inverse
    i, j = len(x) - 1, 0
    while x[i] == inverse[y[j]]:
        i, j = i - 1, j + 1
        if i < 0 or j == len(y):
            return sigma._zero
    (factor, relem), selem = x[i], y[j][1]
    return sigma._tables[factor][relem][selem]


def beta_ref(sigma: FreeProductMultiplier, x: FPWord) -> Sequence[int]:
    """The vector of beta(x), with no memo and no length shortcut."""
    fp = sigma.fp
    zero = (0,) * (1 + len(sigma.exponents().labels))
    if factor_images_ref(fp, x) != (fp.g1.identity, fp.g2.identity):
        return zero
    xw = rewrite_to_X(fp, x)
    if len(xw) <= 1:
        return zero
    words = [expand_syllable(fp, gen, power) for gen, power in xw]
    return tuple(sum(slot) for slot in zip(*(tau_ref(sigma, left, right) for left, right in zip(words, words[1:]))))


def vector_ref(sigma: FreeProductMultiplier, x: FPWord, y: FPWord) -> list[int]:
    xy = multiply_ref(sigma.fp, x, y)
    b = [beta_ref(sigma, w) for w in (x, y, xy)]
    return [p + q - r + s for p, q, r, s in zip(*b, tau_ref(sigma, x, y))]


def prefix_telescope_ref(vector, zero: list[int], x: FPWord) -> list[int]:
    """b0(x) = sigma(x1,x2) + sigma(x1 x2, x3) + ..., one call per letter."""
    total = zero
    prefix = x[:1]
    for letter in x[1:]:
        total = [t + v for t, v in zip(total, vector(prefix, (letter,)))]
        prefix += (letter,)
    return total


def check_word(fp: FreeProduct, word: FPWord) -> FPWord:
    """``word`` when it is reduced: alternating factors, each letter an
    element of its factor other than the identity; else ValueError."""
    prev = 0
    for factor, elem in word:
        g = fp.factor(factor)
        if factor == prev:
            raise ValueError(f"word {word} is not alternating")
        if elem == g.identity or not 0 <= elem < g.order:
            raise ValueError(f"bad letter ({factor},{elem})")
        prev = factor
    return tuple(word)


def is_similar(sigma: FiniteMultiplier, tau: FiniteMultiplier, beta: Callable[[int], RotationNumber]) -> bool:
    """tau(a, b) = beta(a) + beta(b) - beta(ab) + sigma(a, b) on every pair of
    the group that both multipliers share."""
    g = sigma.group
    if not np.array_equal(g.array, tau.group.array):
        raise DomainMismatch("similarity requires a common group")
    return all(
        tau.value(a, b) == beta(a) + beta(b) - beta(g.mul(a, b)) + sigma.value(a, b)
        for a in g.elements()
        for b in g.elements()
    )


def hermite_normal_form_ref(rows) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with H = U A: minimal-|pivot| rows, positive pivots, entries
    above a pivot reduced into [0, pivot), U updated beside A."""
    a = [[int(x) for x in row] for row in rows]
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    if m == 0:
        return a, u
    r = 0
    for col in range(len(a[0])):
        while True:
            nz = [i for i in range(r, m) if a[i][col]]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(a[i][col]))
            a[r], a[best] = a[best], a[r]
            u[r], u[best] = u[best], u[r]
            if a[r][col] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            p = a[r][col]
            done = True
            for i in range(r + 1, m):
                if a[i][col]:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if r < m and a[r][col]:
            p = a[r][col]
            for i in range(r):
                q = a[i][col] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == m:
                break
    return a, u

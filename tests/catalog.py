"""Shared finite catalogs for the test suites, and the groups they are
built on that the package has no constructor for: the trivial group,
D_n, S_n (``_from_function``), Q8 and the Heisenberg group mod p.

Everything is deterministic: generators take explicit seeds, so the same
catalog is rebuilt identically in every run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Callable, Sequence

import numpy as np

import twistk as tk
from twistk.groups import FiniteGroup, build, cyclic, direct_product
from twistk.multipliers import (
    Exponents,
    FiniteMultiplier,
    TableMultiplier,
    coboundary_twist,
    normalize,
    trivial_multiplier,
)
from twistk.products import Bihomomorphism, ProductMultiplier
from twistk.torus import ZERO, RotationNumber


# -- test groups by their elements and operation ------------------------------


def _from_function(elements: Sequence, op: Callable, names: list[str]) -> FiniteGroup:
    """Build a table group from abstract elements and a binary operation."""
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[op(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, names)


def trivial() -> FiniteGroup:
    return FiniteGroup([[0]], ["e"])


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n: elements (i, s) with s in {0,1}, (i,s)(j,t) = (i + (-1)^s j, s+t)."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")
    elems = [(i, s) for s in (0, 1) for i in range(n)]

    def op(a, b):
        i, s = a
        j, t = b
        return ((i + (j if s == 0 else -j)) % n, (s + t) % 2)

    names = [f"r{i}" if s == 0 else f"sr{i}" for i, s in elems]
    return _from_function(elems, op, names)


def symmetric(n: int) -> FiniteGroup:
    """S_n as composition of permutation tuples (small n only)."""
    if n < 1:
        raise ValueError("symmetric parameter must be >= 1")
    elems = sorted(permutations(range(n)))

    def op(p, q):
        # (p . q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    return _from_function(elems, op, ["".join(map(str, p)) for p in elems])


# -- builders of test multipliers -------------------------------------------


def quaternion() -> FiniteGroup:
    """The quaternion group Q8 on {1,-1,i,-i,j,-j,k,-k}, by the Hamilton
    product of the unit quaternions (a, b, c, d) = a + bi + cj + dk."""
    units = [tuple(sign * (i == axis) for i in range(4)) for axis in range(4) for sign in (1, -1)]

    def mul(p, q):
        a, b, c, d = p
        w, x, y, z = q
        return (
            a * w - b * x - c * y - d * z,
            a * x + b * w + c * z - d * y,
            a * y - b * z + c * w + d * x,
            a * z + b * y - c * x + d * w,
        )

    table = [[units.index(mul(p, q)) for q in units] for p in units]
    return FiniteGroup(table, ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def heisenberg(p: int) -> FiniteGroup:
    """The Heisenberg group mod p, of order p^3: (x, y, z)(x', y', z') =
    (x + x', y + y', z + z' + x y') mod p, its table proven by ``groups.build``."""
    elems = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]
    index = {elem: i for i, elem in enumerate(elems)}
    table = [[index[(x + u) % p, (y + v) % p, (z + w + x * v) % p] for u, v, w in elems] for x, y, z in elems]
    return build(table, ["".join(map(str, elem)) for elem in elems])


def abelian_group(orders: Sequence[int]) -> FiniteGroup:
    """Product of cyclic groups Z_orders[0] x Z_orders[1] x ..., row-major packing."""
    g = cyclic(orders[0])
    for n in orders[1:]:
        g = direct_product(g, cyclic(n))
    return g


def bilinear_multiplier(orders: Sequence[int], bmatrix: Sequence[Sequence[Fraction]]) -> TableMultiplier:
    """sigma(a, b) = sum_ij B[i][j] a_i b_j on a product of cyclic groups.

    Any bilinear form is a 2-cocycle; well-definedness mod the cyclic
    orders requires B[i][j] * orders[i] and B[i][j] * orders[j] integral,
    i.e. B[i][j] a multiple of 1/gcd(orders[i], orders[j]).
    """
    k = len(orders)
    for i in range(k):
        for j in range(k):
            c = Fraction(bmatrix[i][j])
            g = math.gcd(orders[i], orders[j])
            if (c * g).denominator != 1:
                raise ValueError(f"B[{i}][{j}] = {c} is not a multiple of 1/gcd = 1/{g}")
    group = abelian_group(orders)

    def unpack(idx: int) -> list[int]:
        coords = []
        for n in reversed(orders):
            idx, r = divmod(idx, n)
            coords.append(r)
        return coords[::-1]

    coords = [unpack(a) for a in range(group.order)]
    values = [
        [
            RotationNumber(sum(Fraction(bmatrix[i][j]) * ca[i] * cb[j] for i in range(k) for j in range(k)))
            for cb in coords
        ]
        for ca in coords
    ]
    return TableMultiplier(group, values)


def random_coboundary(
    group: FiniteGroup,
    rng: random.Random,
    denominators: Sequence[int] = (2, 3, 4, 5, 6, 8, 12),
) -> list[RotationNumber]:
    """A random beta: G -> T with rational values and beta(e) = 1."""
    beta = []
    for a in group.elements():
        if a == group.identity:
            beta.append(ZERO)
        else:
            q = rng.choice(denominators)
            beta.append(RotationNumber(Fraction(rng.randrange(q), q)))
    return beta


def trivial_bihom(g1: FiniteGroup, g2: FiniteGroup) -> Bihomomorphism:
    return Bihomomorphism.from_exponents(g1, g2, Exponents(1, (), np.zeros((g1.order, g2.order, 1), dtype=np.int64)))


def cyclic_bihom(n1: int, n2: int, numerator: int) -> Bihomomorphism:
    """On Z_n1 x Z_n2: f(x, y) = numerator * x * y / gcd(n1, n2).

    The gcd denominator is exactly what well-definedness mod both cyclic
    orders allows, so every bihomomorphism of cyclic groups arises this
    way; this is the convenience constructor for cyclic factors only.
    """
    g = math.gcd(n1, n2)
    table = [
        [RotationNumber(Fraction(numerator * x * y, g)) for y in range(n2)] for x in range(n1)
    ]
    return Bihomomorphism(cyclic(n1), cyclic(n2), table)


def bihom_from_characters(
    g1: FiniteGroup, chi1: Sequence[int], d1: int, g2: FiniteGroup, chi2: Sequence[int], d2: int
) -> Bihomomorphism:
    """f(a, b) = chi1(a) chi2(b) / lcm(d1, d2) from homomorphisms
    chi_i: G_i -> Z_{d_i}, given as value tables."""
    d = math.lcm(d1, d2)
    table = [
        [
            RotationNumber(Fraction((chi1[a1] * (d // d1)) * (chi2[a2] * (d // d2)), d))
            for a2 in g2.elements()
        ]
        for a1 in g1.elements()
    ]
    return Bihomomorphism(g1, g2, table)


def assemble(sigma1: FiniteMultiplier, sigma2: FiniteMultiplier, f: Bihomomorphism) -> ProductMultiplier:
    return ProductMultiplier(sigma1, sigma2, f)


def restriction(sigma: ProductMultiplier, factor: int) -> list[list[RotationNumber]]:
    """The restriction of sigma to G_factor x {e} (resp. {e} x G_factor)."""
    n2 = sigma._n2
    if factor == 1:
        g = sigma.sigma1.group
        return [[sigma.value(a1 * n2, b1 * n2) for b1 in g.elements()] for a1 in g.elements()]
    g = sigma.sigma2.group
    return [[sigma.value(a2, b2) for b2 in g.elements()] for a2 in g.elements()]


def relabelled(sigma: FiniteMultiplier, rng: random.Random) -> TableMultiplier:
    """sigma with the group's elements renamed a -> perm[a] by a random
    permutation, so that the identity is seldom 0."""
    g, ex = sigma.group, sigma.exponents()
    perm = np.array(rng.sample(range(g.order), g.order), dtype=np.intp)
    table, values = np.empty_like(g.array), np.empty_like(ex.array)
    table[np.ix_(perm, perm)] = perm[g.array]
    values[np.ix_(perm, perm)] = ex.array
    return TableMultiplier.from_exponents(FiniteGroup(table), Exponents(ex.D, ex.labels, values))


# -- normalized 2-cocycles mod p ------------------------------------------------


def _echelon_mod_p(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced row echelon form of an integer matrix mod a prime p, and
    its pivot columns."""
    m = (rows % p).astype(np.int32)
    pivots: list[int] = []
    for c in range(m.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        m[[r, r + below[0]]] = m[[r + below[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        # the rows from r on vanish left of c, so the update starts at c
        m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[: len(pivots)], pivots


def schur_classes_mod_p(
    group: FiniteGroup, p: int, middles: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bases, as rows of |G|^2 values in Z_p (x stands for x/p at (a, b),
    a |G| a + b), of the normalized 2-cocycles Z^2 with values in (1/p)Z,
    of the coboundaries B^2 among them and of a complement of B^2 in Z^2,
    whose rows represent H^2(G, Z_p).

    Z^2 is the null space mod p of x(a,e) = x(e,a) = 0 and the cocycle
    equations x(a,s) + x(as,c) - x(a,sc) - x(s,c) on the triples (a, s, c)
    with s in ``middles``: by default ``generators()``, which is Light's
    test that ``validate`` proves complete, and all of G for the full
    |G|^3 system.  B^2 is spanned by the coboundaries of the indicators
    of the elements other than e; the complement takes each null-space
    vector (in the order of the free columns) that raises the rank of B^2
    and the vectors taken so far."""
    n, t, e = group.order, group.array, group.identity
    s = np.asarray(group.generators() if middles is None else middles, dtype=np.intp)
    a, b, c = (x.ravel() for x in np.meshgrid(np.arange(n), s, np.arange(n), indexing="ij"))
    m = len(a)
    equations = np.zeros((m + 2 * n, n * n), dtype=np.int64)
    rows = np.arange(m)
    for sign, (x, y) in ((1, (a, b)), (1, (t[a, b], c)), (-1, (a, t[b, c])), (-1, (b, c))):
        np.add.at(equations, (rows, n * x + y), sign)
    equations[m + np.arange(n), n * np.arange(n) + e] = 1
    equations[m + n + np.arange(n), n * e + np.arange(n)] = 1
    reduced, pivots = _echelon_mod_p(equations, p)
    free = [col for col in range(n * n) if col not in pivots]
    cocycles = np.zeros((len(free), n * n), dtype=np.int64)
    for i, col in enumerate(free):
        cocycles[i, col] = 1
        cocycles[i, pivots] = -reduced[:, col] % p
    indicator = np.eye(n, dtype=np.int64)[[g for g in range(n) if g != e]]
    deltas = (indicator[:, :, None] + indicator[:, None, :] - indicator[:, t]).reshape(len(indicator), n * n) % p
    coboundaries = _echelon_mod_p(deltas, p)[0]
    complement: list[np.ndarray] = []
    for z in cocycles:
        rank = len(coboundaries) + len(complement)
        if len(_echelon_mod_p(np.vstack([coboundaries, *complement, z]), p)[1]) > rank:
            complement.append(z)
    return cocycles, coboundaries, np.array(complement, dtype=np.int64).reshape(-1, n * n)


def cocycle_mod_p(group: FiniteGroup, values: np.ndarray, p: int) -> TableMultiplier:
    """The table multiplier x/p of |G|^2 values x in Z_p."""
    n = group.order
    return TableMultiplier.from_exponents(group, Exponents(p, (), (values % p).reshape(n, n, 1)))


# -- catalogs ------------------------------------------------------------------


def klein_catalog() -> list[tuple[str, FiniteMultiplier]]:
    return [(f"klein({n},{k})", tk.klein(n, k)) for n in range(2, 7) for k in range(n)]


def small_groups() -> list[tuple[str, FiniteGroup]]:
    return [
        ("Z6", cyclic(6)),
        ("Z12", cyclic(12)),
        ("Z2xZ2", direct_product(cyclic(2), cyclic(2))),
        ("Z2xZ4", direct_product(cyclic(2), cyclic(4))),
        ("Z3xZ3", direct_product(cyclic(3), cyclic(3))),
        ("Z2xZ6", direct_product(cyclic(2), cyclic(6))),
        ("S3", symmetric(3)),
        ("D4", dihedral(4)),
        ("D6", dihedral(6)),
        ("Q8", quaternion()),
    ]


def _random_bilinear(orders: list[int], rng: random.Random) -> TableMultiplier:
    k = len(orders)
    bmat = [
        [Fraction(rng.randrange(gcd(orders[i], orders[j])), gcd(orders[i], orders[j])) for j in range(k)]
        for i in range(k)
    ]
    return bilinear_multiplier(orders, bmat)


def random_normalized_tables(count: int = 24, seed: int = 1234) -> list[tuple[str, TableMultiplier]]:
    """Randomly twisted, then normalized, table multipliers on groups of
    order <= 12: bilinear cocycles on abelian groups, trivial cocycles on
    the nonabelian ones, both composed with a random coboundary."""
    rng = random.Random(seed)
    abelian_orders = [[2, 2], [2, 4], [3, 3], [2, 6], [2, 2, 3], [4, 3], [2, 2, 2]]
    nonabelian = [symmetric(3), dihedral(4), quaternion(), dihedral(6)]
    out = []
    i = 0
    while len(out) < count:
        if i % 2 == 0:
            orders = abelian_orders[(i // 2) % len(abelian_orders)]
            base = _random_bilinear(orders, rng)
            name = f"bilinear{orders}#{i}"
        else:
            g = nonabelian[(i // 2) % len(nonabelian)]
            base = trivial_multiplier(g)
            name = f"twisted-order{g.order}#{i}"
        twisted = coboundary_twist(base, random_coboundary(base.group, rng))
        normalized, _ = normalize(twisted)
        assert normalized.group.order <= 12
        out.append((name, normalized))
        i += 1
    return out


def finite_catalog() -> list[tuple[str, FiniteMultiplier]]:
    """The full finite catalog: Klein family, random normalized tables,
    and a few assembled products."""
    entries = klein_catalog() + random_normalized_tables()
    for name, s1, s2, f in product_triples()[:6]:
        entries.append((f"product:{name}", ProductMultiplier(s1, s2, f)))
    return entries


def _s3_sign_values() -> list[int]:
    g = symmetric(3)
    values = []
    for name in g.names:
        perm = tuple(int(ch) for ch in name)
        inversions = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
        )
        values.append(inversions % 2)
    return values


def product_triples(seed: int = 77) -> list[tuple[str, FiniteMultiplier, FiniteMultiplier, Bihomomorphism]]:
    """At least 50 (sigma1, sigma2, f) triples on factors of order <= 6."""
    rng = random.Random(seed)
    triples = []

    cyclic_pairs = [(2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (2, 6), (6, 6), (4, 6), (3, 6), (5, 5)]
    for n1, n2 in cyclic_pairs:
        g = gcd(n1, n2)
        numerators = sorted({0, 1 % g if g > 1 else 0, g - 1})
        for m in numerators:
            f = cyclic_bihom(n1, n2, m)
            s1 = trivial_multiplier(cyclic(n1))
            s2 = trivial_multiplier(cyclic(n2))
            triples.append((f"Z{n1}xZ{n2},f={m}/g", s1, s2, f))
            twisted1 = coboundary_twist(s1, random_coboundary(s1.group, rng))
            triples.append((f"Z{n1}xZ{n2},f={m}/g,twisted", twisted1, s2, f))

    s3 = symmetric(3)
    sign = _s3_sign_values()
    for n2, d2 in ((2, 2), (4, 2), (6, 3)):
        c2 = cyclic(n2)
        chi2 = [(a * (2 if (n2, d2) == (6, 3) else 1)) % d2 for a in range(n2)]
        f = bihom_from_characters(s3, sign, 2, c2, chi2, d2)
        s1 = trivial_multiplier(s3)
        s2 = trivial_multiplier(c2)
        triples.append((f"S3xZ{n2},sign-pairing", s1, s2, f))
        triples.append(
            (f"S3xZ{n2},sign-pairing,twisted", coboundary_twist(s1, random_coboundary(s3, rng)), s2, f)
        )
    triples.append(("S3xS3,trivial-f", trivial_multiplier(s3), trivial_multiplier(s3), trivial_bihom(s3, s3)))
    triples.append(
        ("S3xS3,sign-sign", trivial_multiplier(s3), trivial_multiplier(s3),
         bihom_from_characters(s3, sign, 2, s3, sign, 2))
    )

    v4 = direct_product(cyclic(2), cyclic(2))
    klein21 = tk.klein(2, 1)
    proj1 = [a // 2 for a in range(4)]
    proj2 = [a % 2 for a in range(4)]
    for name, chi in (("p1", proj1), ("p2", proj2)):
        f = bihom_from_characters(v4, chi, 2, cyclic(2), [0, 1], 2)
        triples.append((f"V4xZ2,{name},klein-sigma1", klein21, trivial_multiplier(cyclic(2)), f))
        triples.append((f"V4xZ2,{name},trivial-sigma1", trivial_multiplier(v4), trivial_multiplier(cyclic(2)), f))
    f_vv = bihom_from_characters(v4, proj1, 2, v4, proj2, 2)
    triples.append(("V4xV4,cross", klein21, klein21, f_vv))
    triples.append(("V4xV4,cross-trivial", trivial_multiplier(v4), trivial_multiplier(v4), f_vv))

    return triples

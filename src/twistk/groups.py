"""Finite groups as multiplication tables.

Groups are always given by a full order x order table of element indices
so every downstream check (cocycle identities, regularity scans) can be
exhaustive and exact.  A table from outside the program is proven once,
by ``build``: shape, two-sided identity, two-sided inverses and
associativity.  The library constructors below build groups by
construction, so ``FiniteGroup`` itself checks the shape and finds the
identity and inverses but does not scan associativity; the test suite
proves the library's tables through ``build``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterable, Sequence


class GroupTableError(ValueError):
    """The given table is not a group multiplication table."""


class NotAssociative(GroupTableError):
    pass


class NoIdentity(GroupTableError):
    pass


class NoInverse(GroupTableError):
    pass


@dataclass(frozen=True)
class ConjugacyClass:
    members: tuple[int, ...]
    representative: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


class FiniteGroup:
    """A finite group on element indices 0..order-1."""

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        n = len(table)
        if n == 0:
            raise GroupTableError("empty table")
        tab = []
        for row in table:
            r = tuple(row)
            if len(r) != n or any(not 0 <= x < n for x in r):
                raise GroupTableError("table is not square over {0..n-1}")
            tab.append(r)
        self.table: tuple[tuple[int, ...], ...] = tuple(tab)
        self.order = n
        self.identity = self._find_identity()
        self._inverses = self._find_inverses()
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise GroupTableError("names length != order")
        self.names: tuple[str, ...] = names or tuple(str(i) for i in range(n))
        self._classes: tuple[ConjugacyClass, ...] | None = None

    # -- construction checks ----------------------------------------------

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise NoIdentity("no two-sided identity")

    def _find_inverses(self) -> tuple[int, ...]:
        e = self.identity
        inv = []
        for a in range(self.order):
            b = next(
                (b for b in range(self.order) if self.table[a][b] == e and self.table[b][a] == e),
                None,
            )
            if b is None:
                raise NoInverse(f"element {a} has no two-sided inverse")
            inv.append(b)
        return tuple(inv)

    def _check_associativity(self) -> None:
        tab = self.table
        rng = range(self.order)
        for a in rng:
            ta = tab[a]
            for b in rng:
                ab = ta[b]
                tab_ab = tab[ab]
                tb = tab[b]
                for c in rng:
                    if tab_ab[c] != ta[tb[c]]:
                        raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def conj(self, a: int, c: int) -> int:
        """a c a^-1."""
        return self.table[self.table[a][c]][self._inverses[a]]

    def elements(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def name(self, a: int) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def centralizer(self, a: int) -> tuple[int, ...]:
        return tuple(b for b in range(self.order) if self.commutes(a, b))

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        if self._classes is None:
            seen = [False] * self.order
            classes = []
            for a in range(self.order):
                if seen[a]:
                    continue
                orbit = sorted({self.conj(c, a) for c in range(self.order)})
                for x in orbit:
                    seen[x] = True
                classes.append(ConjugacyClass(tuple(orbit), min(orbit)))
            self._classes = tuple(classes)
        return self._classes

    def class_of(self, a: int) -> ConjugacyClass:
        for cls in self.conjugacy_classes():
            if a in cls.members:
                return cls
        raise ValueError(a)

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table], "names": list(self.names)}

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def build(table: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> FiniteGroup:
    """The group of a table from outside the program, proven in full: the
    checks of ``FiniteGroup`` plus associativity over all |G|^3 triples.
    This is the only associativity proof; decoded JSON tables come here."""
    group = FiniteGroup(table, names)
    group._check_associativity()
    return group


def _from_function(elements: Sequence, op: Callable, names: Iterable[str] | None = None) -> FiniteGroup:
    """Build a table group from abstract elements and a binary operation."""
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[op(a, b)] for b in elems] for a in elems]
    if names is None:
        names = [str(e) for e in elems]
    return FiniteGroup(table, list(names))


def trivial() -> FiniteGroup:
    return FiniteGroup([[0]], ["e"])


def cyclic(n: int) -> FiniteGroup:
    """Z_n with elements 0..n-1 under addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 with row-major index packing: (i1, i2) -> i1 * |G2| + i2.

    The packing is fixed so cocycle tables built on the factors line up
    with tables built on the product.
    """
    n1, n2 = g1.order, g2.order
    table = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = [g1.table[a1][b1] * n2 + g2.table[a2][b2] for b1 in range(n1) for b2 in range(n2)]
            table.append(row)
    names = [f"({g1.names[a1]},{g2.names[a2]})" for a1 in range(n1) for a2 in range(n2)]
    return FiniteGroup(table, names)


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


def quaternion() -> FiniteGroup:
    """The quaternion group Q8 on {1,-1,i,-i,j,-j,k,-k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mult = {}
    units = ["1", "i", "j", "k"]
    rules = {
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    for a, b in product(units, repeat=2):
        if a == "1":
            mult[(a, b)] = (1, b)
        elif b == "1":
            mult[(a, b)] = (1, a)
        else:
            mult[(a, b)] = rules[(a, b)]

    def op(x, y):
        sx, ux = x
        sy, uy = y
        s, u = mult[(ux, uy)]
        return (sx * sy * s, u)

    elems = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"), (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    return _from_function(elems, op, names)

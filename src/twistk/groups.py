"""Finite groups as multiplication tables.

Groups are always given by a full order x order table of element indices
so every downstream check (cocycle identities, regularity scans) can be
exhaustive and exact.  Each group keeps its table twice: as tuples for
single products and as one ``intp`` array, ``array``, on which the scans
run as numpy operations.

A table from outside the program is proven once, by ``build``: shape,
two-sided identity, two-sided inverses and associativity by Light's test
on the generating set S of ``generators``, |S| |G|^2 comparisons.  The
library constructors below build groups by construction, so
``FiniteGroup`` itself checks the shape and finds the identity and
inverses but does not test associativity; the test suite proves the
library's tables through ``build``.  ``generators`` also gives the
generating set on which ``multipliers.validate`` proves a
cocycle and ``algebra.center_dimension_numeric`` builds its system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterable, Sequence

import numpy as np

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
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in self.table):
            raise GroupTableError("table is not square over {0..n-1}")
        try:
            self.array = np.array(self.table, dtype=np.intp)
        except OverflowError:
            raise GroupTableError("table is not square over {0..n-1}") from None
        if self.array.min() < 0 or self.array.max() >= n:
            raise GroupTableError("table is not square over {0..n-1}")
        self.order = n
        self.identity = self._find_identity()
        self._inverses = self._find_inverses()
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise GroupTableError("names length != order")
        self.names: tuple[str, ...] = names or tuple(str(i) for i in range(n))
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._generators: tuple[int, ...] | None = None

    # -- construction checks ----------------------------------------------

    def _find_identity(self) -> int:
        t = self.array
        units = np.arange(self.order)
        found = np.flatnonzero((t == units).all(axis=1) & (t.T == units).all(axis=1))
        if found.size == 0:
            raise NoIdentity("no two-sided identity")
        return int(found[0])

    def _find_inverses(self) -> tuple[int, ...]:
        t = self.array
        inverse = (t == self.identity) & (t.T == self.identity)
        missing = np.flatnonzero(~inverse.any(axis=1))
        if missing.size:
            raise NoInverse(f"element {missing[0]} has no two-sided inverse")
        return tuple(inverse.argmax(axis=1).tolist())

    def _check_associativity(self) -> None:
        """(xs)y = x(sy) for s in S = ``generators()`` and all x, y (Light's
        test), which proves (xa)y = x(ay) for every a.

        The set A of the a with (xa)y = x(ay) for all x, y is closed under
        products: for a, b in A, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
        = x((ab)y).  It holds e, and ``generators`` reaches every element
        as a left-bracketed product e s1 s2 ... of members of S, so S in A
        gives A = G.  This needs only the two-sided identity, not
        associativity.  The first failure over s in the order of S, then
        x, then y is reported."""
        t = self.array
        for s in self.generators():
            bad = np.flatnonzero(t[t[:, s]] != t[:, t[s]])
            if bad.size:
                x, y = divmod(int(bad[0]), self.order)
                raise NotAssociative(f"({x}*{s})*{y} != {x}*({s}*{y})")

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
        """Classes in the order of their smallest members, each member list
        ascending; the representative is the smallest member."""
        if self._classes is None:
            t = self.array
            conj = t[t, np.asarray(self._inverses)[:, None]]  # conj[c, a] = c a c^-1
            smallest = conj.min(axis=0)  # the smallest member of the class of a
            order = np.argsort(smallest, kind="stable")
            reps, starts = np.unique(smallest[order], return_index=True)
            self._classes = tuple(
                ConjugacyClass(tuple(members.tolist()), int(rep))
                for rep, members in zip(reps, np.split(order, starts[1:]))
            )
        return self._classes

    def generators(self) -> tuple[int, ...]:
        """A greedy generating set S: the smallest element outside the
        closure of {e} under y -> y s (s in S) joins S, until the closure
        is the whole group.  Each level of the closure marks its products
        in a boolean mask."""
        if self._generators is None:
            t = self.array
            reached = np.zeros(self.order, dtype=bool)
            reached[self.identity] = True
            gens: list[int] = []
            while not reached.all():
                gens.append(int(np.argmin(reached)))
                cols = t[:, gens]
                frontier = np.flatnonzero(reached)
                while frontier.size:
                    hit = np.zeros(self.order, dtype=bool)
                    hit[cols[frontier]] = True
                    hit &= ~reached
                    reached |= hit
                    frontier = np.flatnonzero(hit)
            self._generators = tuple(gens)
        return self._generators

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
    checks of ``FiniteGroup`` (shape, two-sided identity, two-sided
    inverses) plus associativity by Light's test on S = ``generators()``.

    The test is exact, with |S| |G|^2 comparisons: the a with (xa)y = x(ay)
    for all x, y hold e and are closed under products, and every element is
    a left-bracketed product e s1 s2 ... of generators (the full argument
    is in ``FiniteGroup._check_associativity``).  This is the only
    associativity proof; decoded JSON tables come here."""
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
    table = g1.array[:, None, :, None] * n2 + g2.array[None, :, None, :]
    names = [f"({g1.names[a1]},{g2.names[a2]})" for a1 in range(n1) for a2 in range(n2)]
    return FiniteGroup(table.reshape(n1 * n2, n1 * n2).tolist(), names)


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

"""Finite groups as multiplication tables.

Groups are always given by a full order x order table of element indices
so every downstream check (cocycle identities, regularity scans) can be
exhaustive and exact.  A group is made from one ``intp`` array,
``array``, on which the scans run as numpy operations; constructing a
group makes no Python object per table entry.  ``table`` holds the same
products as tuples for single lookups (``mul`` and the free product's
word rewriting read it in loops); it is built on its first use, as is
the tuple of inverses behind ``inv``.

A table from outside the program is proven once, by ``build``: shape,
two-sided identity, two-sided inverses and associativity by Light's test
on the generating set S of ``generators``, |S| |G|^2 comparisons.
``FiniteGroup`` alone finds the identity and inverses without testing
associativity.  The two library constructors, ``cyclic`` and
``direct_product``, build groups by construction and search for nothing.
They know the identity (0, or (e1, e2)), the inverses (-a mod n, or
(a1^-1, a2^-1)) and whether the group is abelian (always, or when both
factors are), so ``is_abelian``, ``commuting`` and ``class_layout`` read
no table there, and they defer ``array`` and ``names`` to their first
read.  ``generators`` gives the set on which ``multipliers.validate``
proves a cocycle and ``algebra.center_dimension_numeric`` builds its
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


class FiniteGroup:
    """A finite group on element indices 0..order-1."""

    def __init__(self, table: np.ndarray | Sequence[Sequence[int]], names: Sequence[str] | None = None):
        """``table`` is an ``intp`` array or rows of Python ints (a bool or a
        float among them would be converted, so callers check types first)."""
        n = len(table)
        if n == 0:
            raise GroupTableError("empty table")
        try:
            array = np.asarray(table, dtype=np.intp)
        except (ValueError, OverflowError):  # ragged, or an entry beyond intp
            raise GroupTableError("table is not square over {0..n-1}") from None
        # a negative entry reads as a huge unsigned one
        if array.shape != (n, n) or array.view(np.uintp).max() >= n:
            raise GroupTableError("table is not square over {0..n-1}")
        identity = self._find_identity(array)
        inverses = self._find_inverses(array, identity)  # intp array: inverses[a] = a^-1
        if names is not None:
            names = tuple(map(str, names))
            if len(names) != n:
                raise GroupTableError("names length != order")
        self._fill(n, array, identity, inverses, names or tuple(map(str, range(n))), None)

    @classmethod
    def _known(cls, order, array: Callable, identity, inverses, names: Callable, abelian: bool) -> FiniteGroup:
        """The group of a constructor that knows its identity, inverses and
        whether it is abelian (``cyclic``, ``direct_product``): nothing is
        searched, and ``array`` and ``names`` are makers, called on first read."""
        group = cls.__new__(cls)
        group._fill(order, array, identity, inverses, names, abelian)
        return group

    def _fill(self, order: int, array, identity: int, inverses: np.ndarray, names, abelian: bool | None) -> None:
        self.order, self.identity, self.inverses = order, identity, inverses
        self._array, self._names, self._abelian = array, names, abelian  # or makers; None: not yet known
        # the tuple views of ``table`` and ``inverses``, empty until ``_views``
        self._table: tuple[tuple[int, ...], ...] = ()
        self._inverses: tuple[int, ...] = ()
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._layout: tuple[np.ndarray, np.ndarray] | None = None
        self._commuting: np.ndarray | None = None
        self._generators: tuple[int, ...] | None = None

    # -- construction checks ----------------------------------------------

    @staticmethod
    def _find_identity(t: np.ndarray) -> int:
        units = np.arange(len(t))
        found = np.flatnonzero((t == units).all(axis=1) & (t.T == units).all(axis=1))
        if found.size == 0:
            raise NoIdentity("no two-sided identity")
        return int(found[0])

    @staticmethod
    def _find_inverses(t: np.ndarray, identity: int) -> np.ndarray:
        inverse = (t == identity) & (t.T == identity)
        missing = np.flatnonzero(~inverse.any(axis=1))
        if missing.size:
            raise NoInverse(f"element {missing[0]} has no two-sided inverse")
        return inverse.argmax(axis=1)

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

    @property
    def array(self) -> np.ndarray:
        if callable(self._array):
            self._array = self._array()
        return self._array

    @property
    def names(self) -> tuple[str, ...]:
        if callable(self._names):
            self._names = self._names()
        return self._names

    def _views(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Build the tuple views on the first single lookup.  They are plain
        attributes that ``__init__`` sets empty: a ``cached_property`` would
        store them in the instance ``__dict__``, and CPython then reads every
        attribute of the group (``identity`` in each free-product rewriting
        step, say) about three times slower."""
        self._table = tuple(map(tuple, self.array.tolist()))
        self._inverses = tuple(self.inverses.tolist())
        return self._table, self._inverses

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """``array`` as rows of Python ints, for single lookups in loops."""
        return self._table or self._views()[0]

    def mul(self, a: int, b: int) -> int:
        return (self._table or self._views()[0])[a][b]

    def inv(self, a: int) -> int:
        return (self._inverses or self._views()[1])[a]

    def elements(self) -> range:
        return range(self.order)

    def commuting(self) -> np.ndarray:
        """The mask ``array == array.T``: [a, b] is True when ab = ba, kept once
        built; all True, with no table read, on a group known abelian."""
        if self._commuting is None:
            self._commuting = np.full((self.order,) * 2, True) if self._abelian else self.array == self.array.T
        return self._commuting

    def is_abelian(self) -> bool:
        """Known by construction for ``cyclic`` and ``direct_product``, else found once."""
        if self._abelian is None:
            self._abelian = bool(self.commuting().all())
        return self._abelian

    def centralizer(self, a: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.commuting()[a]).tolist())

    def class_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The elements listed class by class, in the order of
        ``conjugacy_classes``, and the position in that list where each
        class starts.  Every class of an abelian group is {a}, so both are
        ``arange(order)`` there; otherwise the conjugates c a c^-1 of each a
        are gathered and the classes keyed by their smallest members."""
        if self._layout is None and self.is_abelian():
            singletons = np.arange(self.order)
            self._layout = singletons, singletons
        elif self._layout is None:
            t = self.array
            conj = t[t, self.inverses[:, None]]  # conj[c, a] = c a c^-1
            smallest = conj.min(axis=0)  # the smallest member of the class of a
            order = np.argsort(smallest, kind="stable")
            _, starts = np.unique(smallest[order], return_index=True)
            self._layout = order, starts
        return self._layout

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Classes in the order of their smallest members, each member list
        ascending; the representative is the smallest member."""
        if self._classes is None:
            order, starts = self.class_layout()
            members = order.tolist()
            bounds = starts.tolist() + [self.order]
            self._classes = tuple(ConjugacyClass(tuple(members[i:j]), members[i]) for i, j in zip(bounds, bounds[1:]))
        return self._classes

    def generators(self) -> tuple[int, ...]:
        """A greedy generating set S: the smallest element outside the
        closure of {e} under y -> y s (s in S) joins S, until the closure
        is the whole group.

        The closure is a breadth-first search over Python lists, one
        column ``y -> y s`` per generator, read once.  The closure before
        s joined is closed under the earlier generators, so its members
        need only the new column; each element reached after that is
        expanded by every column once, |G| |S| steps in all."""
        if self._generators is None:
            reached = bytearray(self.order)
            reached[self.identity] = True
            members = [self.identity]
            gens: list[int] = []
            columns: list[list[int]] = []
            smallest = 0
            while len(members) < self.order:
                while reached[smallest]:
                    smallest += 1
                gens.append(smallest)
                column = self.array[:, smallest].tolist()
                columns.append(column)
                fresh = []
                for y in members:
                    z = column[y]
                    if not reached[z]:
                        reached[z] = True
                        fresh.append(z)
                for y in fresh:  # grows while it is read: the queue of the search
                    for col in columns:
                        z = col[y]
                        if not reached[z]:
                            reached[z] = True
                            fresh.append(z)
                members += fresh
            self._generators = tuple(gens)
        return self._generators

    def to_json(self) -> dict:
        return {"order": self.order, "table": self.array.tolist(), "names": list(self.names)}

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


def cyclic(n: int) -> FiniteGroup:
    """Z_n with elements 0..n-1 under addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    elements = np.arange(n, dtype=np.intp)
    array = lambda: np.add.outer(elements, elements) % n
    return FiniteGroup._known(n, array, 0, -elements % n, lambda: tuple(map(str, range(n))), True)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 with row-major index packing: (i1, i2) -> i1 * |G2| + i2.

    The packing is fixed so cocycle tables built on the factors line up
    with tables built on the product, abelian exactly when both factors are.
    Names "(a1,a2)" that collide raise GroupTableError when first read.
    """
    n1, n2 = g1.order, g2.order
    array = lambda: (g1.array[:, None, :, None] * n2 + g2.array[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    inverses = (g1.inverses[:, None] * n2 + g2.inverses).ravel()
    def names() -> tuple[str, ...]:
        made = tuple(f"({a1},{a2})" for a1 in g1.names for a2 in g2.names)
        if len(set(made)) != len(made):
            repeated = next(name for i, name in enumerate(made) if name in made[:i])
            raise GroupTableError(f"product element names must be distinct; {repeated!r} repeats")
        return made
    abelian = g1.is_abelian() and g2.is_abelian()
    return FiniteGroup._known(n1 * n2, array, g1.identity * n2 + g2.identity, inverses, names, abelian)

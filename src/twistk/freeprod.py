"""Reduced words in a free product of two finite groups, rewriting into
the free commutator subgroup, and the normalized free product of two
normalized multipliers.

A word is a tuple of letters (factor, element index) with non-identity
elements and alternating factors; the empty tuple is the identity.  The
kernel of the projection onto G1 x G2 is free on the commutators
[a, b] = a b a^-1 b^-1 with a in G1 \\ {e}, b in G2 \\ {e}; words are
rewritten over that alphabet by a coset-tracking scan with transversal
{g1 g2}, and the multiply-back oracle for the rewriting is a hard
correctness contract, exercised by the test suite on every path.

Words are read straight off the factor tables (``FreeProduct``), and
``multiply`` alone reduces them.  The multiplier's tau, beta and value
are integer vector sums of factor table entries; ``value`` returns the
RotationNumber of the vector.  tau is read off the product xy
(``_meet``), beta is the shared zero on a word of at most 4 letters
(``_beta``) and memoized per word above that, where it sums tau at the
seams of consecutive syllables (``_seam``); ``vector`` is tau when all
three betas are that zero.  ``decompose`` checks a multiplier on G1 * G2
through its ``vector``, in that multiplier's own frame, with the prefix
telescope memoized per word, and gives its witness beta as a plain
function of the word that reads the same memo.  No word is read from
input: the fuzz loops draw reduced words (``random_word``), and a report
names the letters of a witness word (``io.encode_word``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .groups import FiniteGroup
from .multipliers import (
    Exponents,
    FiniteMultiplier,
    Multiplier,
    NotNormalized,
    TableMultiplier,
    draw,
    exact_dtype,
    one_frame,
)
from .torus import RotationNumber

Letter = tuple[int, int]          # (factor 1|2, non-identity element index)
FPWord = tuple[Letter, ...]
Generator = tuple[int, int]       # ([a, b]) as (a index in G1, b index in G2)
XWord = tuple[tuple[Generator, int], ...]

# Words one beta or prefix-telescope memo keeps; a memo is emptied when full.
BETA_MEMO = 1 << 16


class NotInKernel(ValueError):
    """Rewriting requested for a word outside the commutator subgroup."""


class SimilarityFailure(RuntimeError):
    """Decomposition produced a non-witness; carries the counterexample pair."""

    def __init__(self, pair, message: str = ""):
        super().__init__(message or f"similarity check failed at {pair}")
        self.pair = pair


class FreeProduct:
    """Word arithmetic in G1 * G2 for two finite table groups, read off the
    factor tables ``_mul[i]`` (``g_i.table``), their identities, the dict
    ``_inverse`` of inverse letters and the letters ``_letters[i]`` of each
    factor, in element order, that ``random_word`` draws from.  ``multiply``
    is the one reduction rule: ``word`` folds it over single letters, and
    ``FreeProductMultiplier._meet`` reads tau off its product."""

    def __init__(self, g1: FiniteGroup, g2: FiniteGroup):
        self.g1 = g1
        self.g2 = g2
        self._mul = (None, g1.table, g2.table)
        self._identity = (None, g1.identity, g2.identity)
        self._letters = (None, *(tuple((i, a) for a in g.elements() if a != g.identity) for i, g in ((1, g1), (2, g2))))
        self._inverse = {letter: self.inverse_letter(letter) for letter in self._letters[1] + self._letters[2]}

    def factor(self, i: int) -> FiniteGroup:
        return self.g1 if i == 1 else self.g2

    def word(self, letters: Sequence[Letter]) -> FPWord:
        """Reduce an arbitrary letter sequence: the product of its letters."""
        return reduce(self.multiply, [(letter,) for letter in letters if letter[1] != self._identity[letter[0]]], ())

    def inverse_letter(self, letter: Letter) -> Letter:
        factor, elem = letter
        return (factor, self.factor(factor).inv(elem))

    def multiply(self, x: FPWord, y: FPWord) -> FPWord:
        """Reduced product: cancel inverse boundary letters, merge same-factor
        boundary letters, recurse inward."""
        i, j, n = len(x), 0, len(y)
        while i and j < n:
            factor, elem = x[i - 1]
            yf, ye = y[j]
            if factor != yf:
                break
            merged = self._mul[factor][elem][ye]
            i, j = i - 1, j + 1
            if merged != self._identity[factor]:
                return x[:i] + ((factor, merged),) + y[j:]
        return x[:i] + y[j:]

    def inverse(self, x: FPWord) -> FPWord:
        inverse = self._inverse
        return tuple([inverse[letter] for letter in reversed(x)])

    def factor_images(self, x: FPWord) -> tuple[int, int]:
        """The images of x under the projection G1 * G2 -> G1 x G2."""
        _, t1, t2 = self._mul
        _, p1, p2 = self._identity
        for factor, elem in x:
            if factor == 1:
                p1 = t1[p1][elem]
            else:
                p2 = t2[p2][elem]
        return p1, p2

    def in_kernel(self, x: FPWord) -> bool:
        return self.factor_images(x) == (self.g1.identity, self.g2.identity)

    # -- random words ------------------------------------------------------

    def random_word(self, rng: random.Random, max_len: int) -> FPWord:
        """Draws (``multipliers.draw``) as ``rng.randint(0, max_len)`` for the
        length, ``rng.choice((1, 2))`` for the first factor, then a letter of
        each factor in turn; a trivial factor has none, so ``word`` merges."""
        length = draw(rng, 0, max_len)
        if length == 0:
            return ()
        factor = 1 + draw(rng, 0, 1)
        letters = []
        for _ in range(length):
            choices = self._letters[factor]
            if choices:
                letters.append(choices[draw(rng, 0, len(choices) - 1)])
            factor = 3 - factor
        if self._letters[1] and self._letters[2]:
            return tuple(letters)
        return self.word(letters)

    def random_kernel_word(self, rng: random.Random, max_len: int) -> FPWord:
        w = self.random_word(rng, max(0, max_len - 2))
        p1, p2 = self.factor_images(w)
        return self.multiply(w, self.word([(1, self.g1.inv(p1)), (2, self.g2.inv(p2))]))


def commutator_word(fp: FreeProduct, a: int, b: int) -> FPWord:
    """[a, b] = a b a^-1 b^-1 as a reduced word."""
    return (1, a), (2, b), (1, fp.g1.inv(a)), (2, fp.g2.inv(b))


def expand_syllable(fp: FreeProduct, gen: Generator, power: int) -> FPWord:
    """The reduced word of [a, b]^power; concatenation is already reduced."""
    base = commutator_word(fp, *gen)
    return (base if power > 0 else fp.inverse(base)) * abs(power)


def rewrite_to_X(fp: FreeProduct, x: FPWord) -> XWord:
    """Express a reduced kernel word over the commutator alphabet.

    Scan the letters carrying the coset state (c1, c2), starting and
    ending at (e, e).  With the transversal {c1 c2}, a G1-letter g emits
    [c1, c2] [c1 g, c2]^-1 (factors with a trivial component dropped) and
    a G2-letter emits nothing; the emitted stream is merged into syllables.
    Multiplying the syllables back must reproduce x exactly.  The scan ends
    at the factor images of x: NotInKernel unless both are e.

    No emission cancels the one before it, so powers only grow and
    consecutive generators differ.  One G1 letter g's two emissions differ
    in c1.  The next G1 letter k that emits, at (c1', c2'), has c2' != c2
    or, after one silent letter h, c1' = c1 g h != c1 g (a G1 letter is
    silent only at c2 = e, and each G2 letter moves c2).  In either sign
    case g's last emission cancels k's first only if k is at (c1 g, c2).
    """
    _, t1, t2 = fp._mul
    _, e1, e2 = fp._identity
    c1, c2 = e1, e2
    syllables: list[list] = []  # [generator, power], merged on the fly

    def emit(gen: Generator, power: int):
        if syllables and syllables[-1][0] == gen:
            syllables[-1][1] += power
        else:
            syllables.append([gen, power])

    for factor, elem in x:
        if factor == 1:
            if c1 != e1 and c2 != e2:
                emit((c1, c2), 1)
            c1g = t1[c1][elem]
            if c1g != e1 and c2 != e2:
                emit((c1g, c2), -1)
            c1 = c1g
        else:
            c2 = t2[c2][elem]
    if (c1, c2) != (e1, e2):
        raise NotInKernel(f"factor images ({c1}, {c2}) != identity")
    return tuple((gen, power) for gen, power in syllables)


def xword_to_word(fp: FreeProduct, xw: XWord) -> FPWord:
    """Multiply the syllables back out (the rewriting oracle)."""
    out: FPWord = ()
    for gen, power in xw:
        out = fp.multiply(out, expand_syllable(fp, gen, power))
    return out


class FreeProductMultiplier(Multiplier):
    """The normalized free product sigma1 * sigma2 on G1 * G2.

    Built from the boundary cocycle tau (the factor value at the reduced
    pair's meeting letters) symmetrized by the commutator-subgroup
    function beta, so that the result is normalized, restricts to the
    factors, and is trivial on F_X x F_X.  Factor multipliers must be
    normalized; anything else is rejected at construction.  The compiled
    parameters are the rows (a, b) of sigma1, then of sigma2, rescaled to
    lcm(D1, D2) and the union of their labels.
    """

    def __init__(self, sigma1: FiniteMultiplier, sigma2: FiniteMultiplier):
        for i, sigma in ((1, sigma1), (2, sigma2)):
            if not sigma.is_normalized():
                raise NotNormalized(f"factor multiplier {i} is not normalized")
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.fp = FreeProduct(sigma1.group, sigma2.group)
        D, labels, tables = one_frame((sigma1.exponents(), sigma2.exponents()))
        self._exponents = Exponents(D, labels, np.concatenate([t.reshape(-1, 1 + len(labels)) for t in tables]))
        # _tables[i][a][b]: the vector of sigma_i(a, b)
        self._tables = (None, *([[tuple(v) for v in row] for row in t.tolist()] for t in tables))
        self._zero = (0,) * (1 + len(labels))
        self._beta_memo: dict[FPWord, Sequence[int]] = {}

    def exponents(self) -> Exponents:
        return self._exponents

    # -- the pieces -------------------------------------------------------

    def _meet(self, x: FPWord, y: FPWord) -> tuple[FPWord, Sequence[int]]:
        """xy and tau(x, y).  ``multiply`` cancels c pairs of boundary letters,
        then merges at most one, so d = |x| + |y| - |xy| is odd exactly when
        x[-c-1] and y[c] merged (c = d // 2): tau is their factor value, else 0."""
        xy = self.fp.multiply(x, y)
        c, merged = divmod(len(x) + len(y) - len(xy), 2)
        if not merged:
            return xy, self._zero
        (factor, r), s = x[-c - 1], y[c][1]
        return xy, self._tables[factor][r][s]

    def _beta(self, x: FPWord) -> Sequence[int]:
        """``_beta_of`` through a memo of at most BETA_MEMO words, emptied when
        full; a word of at most 4 letters gets the shared zero.  With 1 to 3
        letters, one factor's letter occurs once, so the word lies off the
        commutator subgroup.  A 4-letter kernel word is a b a^-1 b^-1, one
        commutator or its inverse: one syllable, with no pair for tau."""
        if len(x) < 5:
            return self._zero
        memo = self._beta_memo
        value = memo.get(x)
        if value is None:
            if len(memo) >= BETA_MEMO:
                memo.clear()
            value = memo[x] = self._beta_of(x)
        return value

    def _beta_of(self, x: FPWord) -> Sequence[int]:
        """The sum of tau over the seams of x's consecutive syllables
        (``_seam``), the shared zero off the kernel or with one syllable."""
        if not self.fp.in_kernel(x):
            return self._zero
        xw = rewrite_to_X(self.fp, x)
        if len(xw) <= 1:
            return self._zero
        return tuple(map(sum, zip(*map(self._seam, xw, xw[1:]))))

    def _seam(self, left: tuple[Generator, int], right: tuple[Generator, int]) -> Sequence[int]:
        """tau([a, b]^p, [c, d]^q) of consecutive syllables, (a, b) != (c, d).
        [a, b]^p ends in b^-1 (p > 0) or a^-1 (p < 0), [c, d]^q starts with
        c (q > 0) or d (q < 0): for p and q of one sign these lie in different
        factors and tau is 0.  Else that pair r^-1, s meets; it cancels if
        r = s, and then the next pair, of the other factor, meets with r != s,
        since (a, b) != (c, d).  So r^-1 s is never e, and tau is the factor
        entry at (r^-1, s), where ``_meet`` reads it."""
        ((a, b), p), ((c, d), q) = left, right
        if (p > 0) == (q > 0):
            return self._zero
        if p > 0:
            factor, r, s = (2, b, d) if b != d else (1, a, c)
        else:
            factor, r, s = (1, a, c) if a != c else (2, b, d)
        return self._tables[factor][self.fp._inverse[factor, r][1]][s]

    def vector(self, x: FPWord, y: FPWord) -> list[int]:
        beta, zero = self._beta, self._zero
        xy, tau = self._meet(x, y)
        bx, by, bxy = beta(x), beta(y), beta(xy)
        if bx is zero and by is zero and bxy is zero:
            return list(tau)
        return [p + q - r + s for p, q, r, s in zip(bx, by, bxy, tau)]

    # -- domain plumbing ---------------------------------------------------

    def multiply(self, x: FPWord, y: FPWord) -> FPWord:
        return self.fp.multiply(x, y)

    def identity_element(self) -> FPWord:
        return ()

    def random_element(self, rng: random.Random, box: int) -> FPWord:
        # the box knob is the maximum word length on a word domain
        return self.fp.random_word(rng, box)


def free_product_multiplier(sigma1: FiniteMultiplier, sigma2: FiniteMultiplier) -> FreeProductMultiplier:
    return FreeProductMultiplier(sigma1, sigma2)


# -- decomposition of a given normalized multiplier -----------------------------


@dataclass
class Decomposition:
    sigma1: TableMultiplier
    sigma2: TableMultiplier
    witness: Callable[[FPWord], RotationNumber]  # beta
    candidate: FreeProductMultiplier
    pairs_checked: int


def _restriction_table(sigma: Multiplier, group: FiniteGroup, factor: int) -> TableMultiplier:
    """sigma on the one-letter words of one factor (1 at the identity) in
    sigma's frame, slot 0 reduced mod D."""
    ex, e, n = sigma.exponents(), group.identity, group.order
    zero = [0] * (1 + len(ex.labels))
    rows = [zero if e in (a, b) else sigma.vector(((factor, a),), ((factor, b),)) for a in range(n) for b in range(n)]
    rows = [[x[0] % ex.D, *x[1:]] for x in rows]
    table = np.array(rows, dtype=exact_dtype(max(ex.D, *(abs(x) for row in rows for x in row))))
    return TableMultiplier.from_exponents(group, Exponents(ex.D, ex.labels, table.reshape(n, n, -1)))


def _telescope(vector: Callable, zero: list[int]) -> Callable[[FPWord], list[int]]:
    """b0(x) = b0(x[:-1]) + sigma(x[:-1], x[-1:]), 0 on words of at most one
    letter, with a memo of its own per prefix (at most BETA_MEMO words);
    integer sums are exact, so the memo changes no value."""
    memo: dict[FPWord, list[int]] = {}

    def b0(x: FPWord) -> list[int]:
        k = len(x)
        while k > 1 and x[:k] not in memo:
            k -= 1
        total = memo[x[:k]] if k > 1 else zero
        for k in range(max(k, 1), len(x)):
            if len(memo) >= BETA_MEMO:
                memo.clear()
            total = memo[x[: k + 1]] = [t + v for t, v in zip(total, vector(x[:k], x[k : k + 1]))]
        return total

    return b0


def decompose(
    sigma: Multiplier,
    g1: FiniteGroup,
    g2: FiniteGroup,
    max_len: int = 6,
    pairs: int = 1000,
    rng: random.Random | None = None,
) -> Decomposition:
    """Recover (sigma1, sigma2, beta) from a normalized multiplier on G1 * G2.

    sigma1 and sigma2 are the restrictions to the factors.  The prefix
    telescope b0(x) = sigma(x1,x2) + sigma(x1 x2, x3) + ... (``_telescope``,
    one memo for the check and the witness) twists sigma exactly onto
    the boundary cocycle tau of the restrictions (products of letter
    operators form a tau-projective family once sigma is normalized), so
    the full witness to the reconstructed free product composes it with
    that product's commutator-subgroup function:

        beta = b0 + beta_candidate,
        (sigma1 * sigma2)(x, y) = beta(x) + beta(y) - beta(xy) + sigma(x, y).

    beta_candidate cancels from that identity, which is checked as b0(x) +
    b0(y) - b0(xy) + sigma(x, y) = tau(x, y) on `pairs` sampled word pairs
    of length <= max_len, in integer vectors in one frame: the restrictions
    are tabulated in sigma's (``sigma.exponents()``, its labels sorted like
    every compiled frame's), so the candidate built from them shares it.
    The first failing pair raises SimilarityFailure, and a negative `pairs`
    ValueError before any draw.  The witness returns RotationNumbers.
    """
    if pairs < 0:
        raise ValueError(f"pairs must be >= 0, not {pairs}")
    rng = rng or random.Random(0)
    ex = sigma.exponents()
    sigma1 = _restriction_table(sigma, g1, 1)
    sigma2 = _restriction_table(sigma, g2, 2)
    candidate = FreeProductMultiplier(sigma1, sigma2)
    fp = candidate.fp
    vector = sigma.vector
    b0 = _telescope(vector, [0] * (1 + len(ex.labels)))

    def beta_fn(x: FPWord) -> RotationNumber:
        return ex.rotation([p + q for p, q in zip(b0(x), candidate._beta(x))])

    for _ in range(pairs):
        x = fp.random_word(rng, max_len)
        y = fp.random_word(rng, max_len)
        xy, tau = candidate._meet(x, y)
        twisted = [p + q - r + s for p, q, r, s in zip(b0(x), b0(y), b0(xy), vector(x, y))]
        if not ex.vanishes([p - q for p, q in zip(twisted, tau)]):
            raise SimilarityFailure((x, y))
    return Decomposition(sigma1, sigma2, beta_fn, candidate, pairs)

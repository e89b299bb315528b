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

The free product multiplier's values are sums of factor table entries:
tau, beta and the value are integer vector sums over the two compiled
factor tables (beta memoized per word), and ``tau``, ``beta`` and
``value`` return the RotationNumber of the vector.  ``decompose`` reads
a multiplier on G1 * G2 through ``vector`` and checks its decomposition
on integer vectors in that multiplier's own frame.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import FiniteGroup
from .multipliers import (
    Exponents,
    FiniteMultiplier,
    Multiplier,
    NotNormalized,
    SimilarityWitness,
    TableMultiplier,
    exact_dtype,
    one_frame,
)
from .torus import RotationNumber

Letter = tuple[int, int]          # (factor 1|2, non-identity element index)
FPWord = tuple[Letter, ...]
Generator = tuple[int, int]       # ([a, b]) as (a index in G1, b index in G2)
XWord = tuple[tuple[Generator, int], ...]

# Words whose beta one FreeProductMultiplier keeps; its memo is emptied when full.
BETA_MEMO = 1 << 16


class NotInKernel(ValueError):
    """Rewriting requested for a word outside the commutator subgroup."""


class SimilarityFailure(RuntimeError):
    """Decomposition produced a non-witness; carries the counterexample pair."""

    def __init__(self, pair, message: str = ""):
        super().__init__(message or f"similarity check failed at {pair}")
        self.pair = pair


class FreeProduct:
    """Word arithmetic in G1 * G2 for two finite table groups."""

    identity: FPWord = ()

    def __init__(self, g1: FiniteGroup, g2: FiniteGroup):
        self.g1 = g1
        self.g2 = g2
        # _letters[i]: the non-identity elements of factor i, in element order
        self._letters = (None, *(tuple(a for a in g.elements() if a != g.identity) for g in (g1, g2)))

    def factor(self, i: int) -> FiniteGroup:
        return self.g1 if i == 1 else self.g2

    def letter(self, factor: int, elem: int) -> Letter:
        g = self.factor(factor)
        if not 0 <= elem < g.order:
            raise ValueError(f"element {elem} outside factor {factor}")
        if elem == g.identity:
            raise ValueError("letters must be non-identity elements")
        return (factor, elem)

    def check_word(self, word: FPWord) -> FPWord:
        prev = 0
        for factor, elem in word:
            g = self.factor(factor)
            if factor == prev:
                raise ValueError(f"word {word} is not alternating")
            if elem == g.identity or not 0 <= elem < g.order:
                raise ValueError(f"bad letter ({factor},{elem})")
            prev = factor
        return tuple(word)

    def word(self, letters: Sequence[Letter]) -> FPWord:
        """Reduce an arbitrary letter sequence (merging and cancelling)."""
        stack: list[Letter] = []
        for factor, elem in letters:
            g = self.factor(factor)
            if elem == g.identity:
                continue
            if stack and stack[-1][0] == factor:
                merged = g.mul(stack[-1][1], elem)
                stack.pop()
                if merged != g.identity:
                    stack.append((factor, merged))
            else:
                stack.append((factor, elem))
        return tuple(stack)

    def inverse_letter(self, letter: Letter) -> Letter:
        factor, elem = letter
        return (factor, self.factor(factor).inv(elem))

    def multiply(self, x: FPWord, y: FPWord) -> FPWord:
        """Reduced product: cancel inverse boundary letters, merge same-factor
        boundary letters, recurse inward."""
        x = list(x)
        j = 0
        while x and j < len(y):
            factor, elem = x[-1]
            yf, ye = y[j]
            if factor != yf:
                break
            g = self.factor(factor)
            merged = g.mul(elem, ye)
            if merged == g.identity:
                x.pop()
                j += 1
            else:
                x[-1] = (factor, merged)
                j += 1
                break
        return tuple(x) + tuple(y[j:])

    def inverse(self, x: FPWord) -> FPWord:
        return tuple(self.inverse_letter(l) for l in reversed(x))

    def factor_images(self, x: FPWord) -> tuple[int, int]:
        """The images of x under the projection G1 * G2 -> G1 x G2."""
        p1 = self.g1.identity
        p2 = self.g2.identity
        for factor, elem in x:
            if factor == 1:
                p1 = self.g1.mul(p1, elem)
            else:
                p2 = self.g2.mul(p2, elem)
        return p1, p2

    def in_kernel(self, x: FPWord) -> bool:
        p1, p2 = self.factor_images(x)
        return p1 == self.g1.identity and p2 == self.g2.identity

    # -- random words ------------------------------------------------------

    def random_word(self, rng: random.Random, max_len: int) -> FPWord:
        length = rng.randint(0, max_len)
        if length == 0:
            return ()
        factor = rng.choice((1, 2))
        letters = []
        for _ in range(length):
            choices = self._letters[factor]
            if choices:
                letters.append((factor, rng.choice(choices)))
            factor = 3 - factor
        return tuple(letters)

    def random_kernel_word(self, rng: random.Random, max_len: int) -> FPWord:
        w = self.random_word(rng, max(0, max_len - 2))
        p1, p2 = self.factor_images(w)
        tail: list[Letter] = []
        if p1 != self.g1.identity:
            tail.append((1, self.g1.inv(p1)))
        if p2 != self.g2.identity:
            tail.append((2, self.g2.inv(p2)))
        return self.multiply(w, self.word(tail))


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


def commutator_word(fp: FreeProduct, a: int, b: int) -> FPWord:
    """[a, b] = a b a^-1 b^-1 as a reduced word."""
    return (
        (1, a),
        (2, b),
        (1, fp.g1.inv(a)),
        (2, fp.g2.inv(b)),
    )


def expand_syllable(fp: FreeProduct, gen: Generator, power: int) -> FPWord:
    """The reduced word of [a, b]^power; concatenation is already reduced."""
    a, b = gen
    base = commutator_word(fp, a, b) if power > 0 else fp.inverse(commutator_word(fp, a, b))
    return base * abs(power)


def rewrite_to_X(fp: FreeProduct, x: FPWord) -> XWord:
    """Express a kernel word over the commutator alphabet.

    Scan the letters carrying the coset state (c1, c2), starting and
    ending at (e, e).  With the transversal {c1 c2}, a G1-letter g emits
    [c1, c2] [c1 g, c2]^-1 (factors with a trivial component dropped) and
    a G2-letter emits nothing; the emitted stream is freely reduced into
    syllables.  Multiplying the syllables back must reproduce x exactly.
    """
    p1, p2 = fp.factor_images(x)
    if p1 != fp.g1.identity or p2 != fp.g2.identity:
        raise NotInKernel(f"factor images ({p1}, {p2}) != identity")
    e1 = fp.g1.identity
    e2 = fp.g2.identity
    c1, c2 = e1, e2
    syllables: list[list] = []  # [generator, power], merged on the fly

    def emit(gen: Generator, power: int):
        if syllables and syllables[-1][0] == gen:
            syllables[-1][1] += power
            if syllables[-1][1] == 0:
                syllables.pop()
        else:
            syllables.append([gen, power])

    for factor, elem in x:
        if factor == 1:
            if c1 != e1 and c2 != e2:
                emit((c1, c2), 1)
            c1g = fp.g1.mul(c1, elem)
            if c1g != e1 and c2 != e2:
                emit((c1g, c2), -1)
            c1 = c1g
        else:
            c2 = fp.g2.mul(c2, elem)
    if (c1, c2) != (e1, e2):
        raise NotInKernel("scan did not return to the identity coset")
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

    def _tau(self, x: FPWord, y: FPWord) -> Sequence[int]:
        xw, yw = reduce_pair(self.fp, x, y)
        if not xw or not yw:
            return self._zero
        rf, relem = xw[-1]
        sf, selem = yw[0]
        if rf != sf:
            return self._zero
        return self._tables[rf][relem][selem]

    def _beta(self, x: FPWord) -> Sequence[int]:
        """``_beta_of`` through a memo of at most BETA_MEMO words, emptied when full."""
        memo = self._beta_memo
        value = memo.get(x)
        if value is None:
            if len(memo) >= BETA_MEMO:
                memo.clear()
            value = memo[x] = self._beta_of(x)
        return value

    def _beta_of(self, x: FPWord) -> Sequence[int]:
        if not self.fp.in_kernel(x):
            return self._zero
        xw = rewrite_to_X(self.fp, x)
        if len(xw) <= 1:
            return self._zero
        words = [expand_syllable(self.fp, gen, power) for gen, power in xw]
        return tuple(sum(slot) for slot in zip(*(self._tau(left, right) for left, right in zip(words, words[1:]))))

    def vector(self, x: FPWord, y: FPWord) -> list[int]:
        xy = self.fp.multiply(x, y)
        return [p + q - r + s for p, q, r, s in zip(self._beta(x), self._beta(y), self._beta(xy), self._tau(x, y))]

    def tau(self, x: FPWord, y: FPWord) -> RotationNumber:
        """sigma_i at the boundary letters of the reduced pair, 1 across
        factors or against the identity."""
        return self._exponents.rotation(self._tau(x, y))

    def beta(self, x: FPWord) -> RotationNumber:
        """1 off the commutator subgroup; on it, the product of tau over
        consecutive syllable pairs of the reduced commutator word."""
        return self._exponents.rotation(self._beta(x))

    # -- domain plumbing ---------------------------------------------------

    def multiply(self, x: FPWord, y: FPWord) -> FPWord:
        return self.fp.multiply(x, y)

    def inverse(self, x: FPWord) -> FPWord:
        return self.fp.inverse(x)

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
    witness: SimilarityWitness
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
    telescope b0(x) = sigma(x1,x2) + sigma(x1 x2, x3) + ... twists sigma
    exactly onto the boundary cocycle tau of the restrictions (products
    of letter operators form a tau-projective family once sigma is
    normalized), so the full witness to the reconstructed free product
    composes it with that product's commutator-subgroup function:

        beta = b0 + beta_candidate,
        (sigma1 * sigma2)(x, y) = beta(x) + beta(y) - beta(xy) + sigma(x, y).

    beta_candidate cancels from that identity, which is checked as
    b0(x) + b0(y) - b0(xy) + sigma(x, y) = tau(x, y) on `pairs` sampled
    word pairs of length <= max_len, in integer vectors in one frame: the
    restrictions are tabulated in sigma's (``sigma.exponents()``, its
    labels sorted like every compiled frame's), so the candidate built from
    them shares it.  The first failing pair raises SimilarityFailure.  The
    witness returns RotationNumbers.
    """
    rng = rng or random.Random(0)
    ex = sigma.exponents()
    sigma1 = _restriction_table(sigma, g1, 1)
    sigma2 = _restriction_table(sigma, g2, 2)
    candidate = FreeProductMultiplier(sigma1, sigma2)
    fp = candidate.fp
    vector = sigma.vector
    zero = [0] * (1 + len(ex.labels))

    def prefix_telescope(x: FPWord) -> Sequence[int]:
        total = zero
        prefix = x[:1]
        for letter in x[1:]:
            total = [t + v for t, v in zip(total, vector(prefix, (letter,)))]
            prefix += (letter,)
        return total

    def beta_fn(x: FPWord) -> RotationNumber:
        return ex.rotation([p + q for p, q in zip(prefix_telescope(x), candidate._beta(x))])

    checked = 0
    for _ in range(pairs):
        x = fp.random_word(rng, max_len)
        y = fp.random_word(rng, max_len)
        xy = fp.multiply(x, y)
        b0 = map(prefix_telescope, (x, y, xy))
        twisted = [p + q - r + s for p, q, r, s in zip(*b0, vector(x, y))]
        if not ex.vanishes([p - q for p, q in zip(twisted, candidate._tau(x, y))]):
            raise SimilarityFailure((x, y))
        checked += 1
    return Decomposition(sigma1, sigma2, SimilarityWitness(beta_fn), candidate, checked)

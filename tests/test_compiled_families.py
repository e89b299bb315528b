"""Differential tests: the torus, g3 and free-product families on compiled
integer exponent vectors against the RotationNumber code they replaced.

The ``_*_ref`` functions below are that code, kept as references: the
values, the fuzz loop of ``validate``, ``is_regular_lattice`` and the
kernel witness of condition K.  Each test asserts equal values, reports
and witnesses, on random parameters (theta up to rank 32, an unsorted
basis, a declared label that no entry uses, an empty theta), on random
mu and on free products of ``tests/catalog.py`` tables.  Broken
subclasses make the fuzz loop fail (the identity row or the cocycle
identity) and ``decompose`` report a counterexample, and a structural test
pins that the loops do no RotationNumber arithmetic.

``validate`` checks the torus and g3 a chunk of triples at a time; the
reference loop checks one.  ``_same_fuzz`` compares the two (reports and
generator state) at ranks up to 24, on both sides of the int64 / exact
int switch, with chunks of 1 and of a few triples, and with the first
failure inside a chunk; a dense rank-512 torus bounds the chunk's traced
memory.

``FreeProduct.word`` and ``FreeProductMultiplier._meet`` read off the one
reduction rule of ``multiply``; the stack and the scan they replaced
(``word_ref``, ``tau_scan_ref``) check them on every reduced word of at
most 4 letters, also with a trivial factor, and the parity rule of
``_meet`` is checked on random words of up to 12 letters.
"""

import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from math import lcm
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import random_normalized_tables
from reference import mu_params, prefix_telescope_ref, reduce_pair, scale, tau_ref, tau_scan_ref, theta_entries, word_ref

import twistk.cli
import twistk.lattices
import twistk.multipliers
from twistk.cli import main
from twistk.freeprod import FreeProductMultiplier, expand_syllable, rewrite_to_X
from twistk.groups import cyclic
from twistk.intlinalg import clear_denominators, integer_kernel
from twistk.io import encode_multiplier, encode_witness_element
from twistk.lattices import (
    G3Multiplier,
    LatticeMultiplier,
    MuMatrix,
    Theta,
    condition_k_lattice,
    g3_central_phase,
    g3_condition_k,
    g3_value,
    is_regular_lattice,
    torus_value,
)
from twistk.multipliers import BLOCK, Exponents, coboundary_twist, klein, normalize, trivial_multiplier, validate
from twistk.torus import ZERO, IrrationalBasis, RotationNumber, rot


# -- the replaced RotationNumber code ---------------------------------------------


def _torus_value_ref(theta, a, b):
    total = ZERO
    for (i, j), t in theta_entries(theta).items():
        k = a[i] * b[j]
        if k:
            total = total + scale(t, k)
    return total


def _is_regular_lattice_ref(theta, a):
    rat = [Fraction(0)] * theta.n
    irr = [{} for _ in range(theta.n)]
    for (i, j), t in theta_entries(theta).items():
        for target, k in ((j, a[i]), (i, -a[j])):
            if not k:
                continue
            rat[target] += t.rat * k
            bucket = irr[target]
            for label, c in t.coeffs:
                bucket[label] = bucket.get(label, Fraction(0)) + c * k
    return all(r.denominator == 1 for r in rat) and all(not any(bucket.values()) for bucket in irr)


def _kernel_witness_ref(rows, labels):
    n = len(rows[0])
    stacked = [[dict(v.coeffs).get(label, 0) for v in row] for label in labels for row in rows]
    kernel = integer_kernel(clear_denominators(stacked), ncols=n)
    if not kernel:
        return None
    v = kernel[0]
    scale = lcm(*(sum(row[j].rat * v[j] for j in range(n)).denominator for row in rows))
    return tuple(scale * x for x in v)


def _torus_witness_ref(theta):
    n = theta.n
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), t in theta_entries(theta).items():
        rows[j][i] = t
        rows[i][j] = -t
    return _kernel_witness_ref(rows, theta.basis.labels)


def _g3_value_ref(mu, a, b, sign=1):
    """``sign`` = -1 flips the a4 term of the mu_13 exponent (not a cocycle)."""
    a1, a2, a3, a4, a5, a6 = a
    b1, b2, b3, b4, b5, b6 = b
    exps = {
        (1, 3): b6 * a1 + sign * b3 * a4,
        (2, 2): b5 * a2 + b3 * (a1 * a2 - a4),
        (1, 1): b4 * a1 + b2 * (a1 * (a1 - 1) // 2),
        (2, 1): a2 * (b4 + a1 * b2) + a1 * (b2 * (b2 - 1) // 2),
        (1, 2): b5 * a1 + b3 * (a1 * (a1 - 1) // 2),
        (3, 2): a3 * (b5 + a1 * b3) + a1 * (b3 * (b3 - 1) // 2),
        (2, 3): b6 * a2 + b3 * (a2 * (a2 - 1) // 2),
        (3, 3): a3 * (b6 + a2 * b3) + a2 * (b3 * (b3 - 1) // 2),
    }
    total = ZERO
    params = mu_params(mu)
    for key, k in exps.items():
        if k:
            total = total + scale(params[key], k)
    return total


def _tau_ref(sigma, x, y):
    xw, yw = reduce_pair(sigma.fp, x, y)
    if not xw or not yw:
        return ZERO
    rf, relem = xw[-1]
    sf, selem = yw[0]
    if rf != sf:
        return ZERO
    return (sigma.sigma1 if rf == 1 else sigma.sigma2).value(relem, selem)


def _beta_ref(sigma, x):
    if not sigma.fp.in_kernel(x):
        return ZERO
    xw = rewrite_to_X(sigma.fp, x)
    if len(xw) <= 1:
        return ZERO
    words = [expand_syllable(sigma.fp, gen, power) for gen, power in xw]
    total = ZERO
    for left, right in zip(words, words[1:]):
        total = total + _tau_ref(sigma, left, right)
    return total


def _free_product_value_ref(sigma, x, y):
    xy = sigma.fp.multiply(x, y)
    return _beta_ref(sigma, x) + _beta_ref(sigma, y) - _beta_ref(sigma, xy) + _tau_ref(sigma, x, y)


def _validate_fuzz_ref(sigma, value, rng, triples, box):
    """(ok, checked, witness, reason) of the fuzz loop, on ``value``."""
    e = sigma.identity_element()
    checked = 0
    for _ in range(triples):
        a = sigma.random_element(rng, box)
        b = sigma.random_element(rng, box)
        c = sigma.random_element(rng, box)
        if not value(a, e).is_integral() or not value(e, a).is_integral():
            return False, checked, (a, e, None), "identity row/column"
        ab = sigma.multiply(a, b)
        bc = sigma.multiply(b, c)
        if value(a, b) + value(ab, c) != value(a, bc) + value(b, c):
            return False, checked, (a, b, c), "cocycle identity"
        checked += 1
    return True, checked, None, None


# -- instances ------------------------------------------------------------------------

UT = IrrationalBasis(("u", "t"))
UTW = IrrationalBasis(("u", "t", "w"))  # w: declared, used by no entry


def _entry(rng, labels, denominators=(1, 2, 3, 4, 5, 6, 7)):
    irr = {label: Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3))) for label in labels if rng.random() < 0.6}
    return rot(Fraction(rng.randrange(-9, 10), rng.choice(denominators)), irr)


def _theta(n, rng, basis, labels=("u", "t"), density=0.6, denominators=(1, 2, 3, 4, 5, 6, 7)):
    entries = {
        (i, j): _entry(rng, labels, denominators)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return Theta(n, entries, basis)


def _thetas():
    rng = random.Random(71)
    out = [Theta(3, {}, UT), Theta(1, {}), Theta(4, {}, UTW)]
    for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 32):
        for basis in (UT, UTW):
            out.append(_theta(n, rng, basis, density=0.6 if n <= 16 else 0.15))
        out.append(_theta(n, rng, UTW, labels=("t",)))
        out.append(_theta(n, rng, IrrationalBasis(()), labels=(), denominators=(1, 2, 3)))
    return out


def _mus():
    rng = random.Random(83)
    out = [MuMatrix({}), MuMatrix({}, UTW)]
    for i in range(24):
        basis = (UT, UTW, IrrationalBasis(()))[i % 3]
        labels = tuple(label for label in basis.labels if label != "w")
        out.append(MuMatrix({key: _entry(rng, labels) for key in mu_params(MuMatrix({})) if rng.random() < 0.7}, basis))
    return out


def _symbolic_factor(group, label, rng):
    beta = [rot(0)] + [rot(Fraction(rng.randrange(12), 12), {label: Fraction(rng.randrange(1, 4), 2)}) for _ in range(group.order - 1)]
    return normalize(coboundary_twist(trivial_multiplier(group), beta))[0]


def _free_products():
    tables = [sigma for _, sigma in random_normalized_tables()]
    rng = random.Random(97)
    pairs = [(tables[i], tables[i + 1]) for i in range(0, 12, 2)]
    pairs.append((normalize(klein(2, 1))[0], trivial_multiplier(cyclic(3))))
    pairs.append((_symbolic_factor(cyclic(3), "t", rng), _symbolic_factor(cyclic(4), "s", rng)))
    pairs.append((_symbolic_factor(cyclic(2), "t", rng), normalize(klein(3, 1))[0]))
    return [FreeProductMultiplier(s1, s2) for s1, s2 in pairs]


def _vectors(n, rng, box, count):
    return [tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(count)]


# -- differential tests ---------------------------------------------------------------


def test_torus_values_match_reference():
    rng = random.Random(5)
    for theta in _thetas():
        n = theta.n
        for a, b in zip(_vectors(n, rng, 4, 30), _vectors(n, rng, 4, 30)):
            assert torus_value(theta, a, b) == _torus_value_ref(theta, a, b)
        big = tuple(rng.randint(-10**12, 10**12) for _ in range(n))
        assert torus_value(theta, big, big[::-1]) == _torus_value_ref(theta, big, big[::-1])


def test_torus_regularity_and_witness_match_reference():
    rng = random.Random(6)
    regular = irregular = 0
    for theta in _thetas():
        decision = condition_k_lattice(theta)
        witness = _torus_witness_ref(theta)
        assert decision.witness == witness and decision.condition_k == (witness is None)
        probes = _vectors(theta.n, rng, 2, 40)
        if witness is not None:
            probes += [tuple(k * x for x in witness) for k in (1, -2, 3)]
            probes += [tuple(x // 2 for x in witness)]
        for a in probes:
            flag = is_regular_lattice(theta, a)
            assert flag == _is_regular_lattice_ref(theta, a), (theta.to_json()["theta"], a)
            regular += flag
            irregular += not flag
    assert regular > 100 and irregular > 100


def test_torus_witness_with_unsorted_basis_and_unused_label():
    # the Hermite form sees the symbol rows in the basis order u, t, w
    theta = Theta(
        5,
        {(0, 1): rot("1/3", {"u": 1}), (0, 2): rot("2/5", {"u": 1}), (1, 3): rot("1/2", {"t": 1}), (2, 3): rot("3/7", {"t": 1}), (3, 4): rot("1/4")},
        UTW,
    )
    assert theta.exponents.labels == ("t", "u")
    assert condition_k_lattice(theta).witness == _torus_witness_ref(theta) == (0, -210, 210, 0, 0)


def test_g3_values_and_witness_match_reference():
    rng = random.Random(7)
    for mu in _mus():
        for _ in range(40):
            a, b = _vectors(6, rng, 5, 2)
            assert g3_value(mu, a, b) == _g3_value_ref(mu, a, b)
            c = a[:3]
            assert g3_central_phase(mu, b, c) == _g3_value_ref(mu, b, (0, 0, 0, *c)) - _g3_value_ref(mu, (0, 0, 0, *c), b)
        a, b = _vectors(6, rng, 10**9, 2)
        assert g3_value(mu, a, b) == _g3_value_ref(mu, a, b)
        witness = _kernel_witness_ref(mu.row_matrix(), mu.basis.labels)
        decision = g3_condition_k(mu)
        assert decision.witness == witness and decision.condition_k == (witness is None)


def test_free_product_values_match_reference():
    rng = random.Random(8)
    for sigma in _free_products():
        fp = sigma.fp
        words = [fp.random_word(rng, 6) for _ in range(30)] + [fp.random_kernel_word(rng, 10) for _ in range(30)]
        for x in words:
            assert sigma._exponents.rotation(sigma._beta(x)) == _beta_ref(sigma, x)
        for x, y in zip(words, reversed(words)):
            assert sigma._exponents.rotation(sigma._meet(x, y)[1]) == _tau_ref(sigma, x, y)
            assert sigma.value(x, y) == _free_product_value_ref(sigma, x, y)


def _reduced_words(fp, max_len):
    """Every reduced word of at most max_len letters."""
    words = [()]
    for n, first in itertools.product(range(1, max_len + 1), (1, 2)):
        words += itertools.product(*(fp._letters[first if i % 2 == 0 else 3 - first] for i in range(n)))
    return words


def _with_trivial_factor():
    # an order-1 factor: every reduced word is one letter of the other one
    return [*_free_products(), FreeProductMultiplier(trivial_multiplier(cyclic(1)), normalize(klein(3, 1))[0])]


def _partners(fp, x):
    """Reduced words y that cancel k = 0..|x| boundary letters of x and then
    run out, cancel once more or merge with x[-k-1], and a y in the other
    factor at k = 0."""
    inv = fp.inverse(x)
    out = [inv[:k] + tail for k in range(len(x)) for tail in ((), (fp._letters[x[-k - 1][0]][0],))]
    other = fp._letters[3 - x[-1][0]] if x else ()
    return out + [inv] + [other[:1]]


def test_word_folds_multiply_like_the_stack():
    """``word`` on reduced words, identity letters, inverse runs and runs of
    one factor's letters equals the stack it replaced."""
    for sigma in _with_trivial_factor():
        fp = sigma.fp
        e = ((1, fp.g1.identity), (2, fp.g2.identity))
        for x in _reduced_words(fp, 4):
            inv = fp.inverse(x)
            assert fp.word(x) == word_ref(fp, x) == x
            assert fp.word(x + inv) == word_ref(fp, x + inv) == ()
            for letters in (e + x + e[::-1], x[:1] + e + x[1:], x + inv[:2], x + x, x[:1] * 3 + inv, x + e + inv + x[:2]):
                assert fp.word(letters) == word_ref(fp, letters), letters


def test_meet_reads_tau_like_the_scan():
    """``_meet``'s tau equals the scan it replaced on every reduced x of at
    most 4 letters against partners that end the inverse run at each depth,
    and on every pair of words of at most 2 letters: the same object (the
    shared zero or a table entry), next to ``multiply``'s product."""
    for sigma in _with_trivial_factor():
        fp = sigma.fp
        short = _reduced_words(fp, 2)
        pairs = [(x, y) for x in _reduced_words(fp, 4) for y in _partners(fp, x)]
        for x, y in pairs + list(itertools.product(short, short)):
            xy, tau = sigma._meet(x, y)
            assert xy == fp.multiply(x, y) and tau is sigma._meet(x, y)[1] is tau_scan_ref(sigma, x, y), (x, y)


def test_meet_parity_rule():
    """d = |x| + |y| - |xy| is odd exactly when the boundary letters left by
    the run of inverse letters merged, and that run is d // 2 letters long."""
    rng = random.Random(29)
    merged_seen = 0
    for sigma in _with_trivial_factor():
        fp = sigma.fp
        for _ in range(300):
            x = fp.random_word(rng, 12)
            y = fp.word(fp.inverse(x)[: rng.randint(0, len(x))] + fp.random_word(rng, 12))
            xw, yw = reduce_pair(fp, x, y)
            merged = bool(xw and yw and xw[-1][0] == yw[0][0])
            d = len(x) + len(y) - len(fp.multiply(x, y))
            assert (d % 2 == 1) == merged and d // 2 == len(x) - len(xw), (x, y)
            merged_seen += merged
    assert merged_seen > 300


def _same_fuzz(sigma, value, seed, triples, box):
    """validate against the reference loop: equal report, and both drew the
    same random numbers."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    report = validate(sigma, rng=rng, triples=triples, box=box)
    assert report.mode == "fuzz"
    expected = _validate_fuzz_ref(sigma, value, ref_rng, triples, box)
    assert (report.ok, report.checked, report.witness, report.reason) == expected
    assert rng.getstate() == ref_rng.getstate()
    return report


def test_fuzz_validation_matches_reference():
    for i, theta in enumerate(t for t in _thetas() if t.n <= 8):
        sigma = LatticeMultiplier(theta)
        assert _same_fuzz(sigma, lambda a, b: _torus_value_ref(theta, a, b), i, 60, 3).ok
    for i, mu in enumerate(_mus()[:10]):
        sigma = G3Multiplier(mu)
        assert _same_fuzz(sigma, lambda a, b: _g3_value_ref(mu, a, b), i, 60, 4).ok
    for i, sigma in enumerate(_free_products()):
        assert _same_fuzz(sigma, lambda x, y: _free_product_value_ref(sigma, x, y), i, 40, 5).ok


def test_chunked_fuzz_matches_reference_up_to_rank_24():
    rng = random.Random(73)
    tori = [t for t in _thetas() if 8 < t.n <= 16]
    tori += [_theta(24, rng, UT, density=0.3), _theta(24, rng, UTW, labels=("t",), density=0.2)]
    assert max(t.n for t in tori) == 24
    for i, theta in enumerate(tori):
        sigma = LatticeMultiplier(theta)
        assert _same_fuzz(sigma, lambda a, b: _torus_value_ref(theta, a, b), i, 25, 3).ok


def _largest_int64_box(sigma):
    """The largest box whose fuzz columns are int64."""
    low, high = 1, 2**40
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if sigma.column_dtype(mid) == np.int64 else (low, mid)
    return low


def test_chunked_fuzz_matches_reference_on_both_sides_of_int64():
    """Exact Python ints where a coordinate or an exponent sum of the box
    could reach 2^63 (torus box 2^31, g3 box 2^20), int64 below; and both
    sides of the edge, where the largest int64 box draws its largest sums."""
    for i, theta in enumerate(t for t in _thetas() if 2 <= t.n <= 5):
        sigma = LatticeMultiplier(theta)
        assert sigma.column_dtype(3) == np.int64 and sigma.column_dtype(2**31) == object
        edge = _largest_int64_box(sigma)
        for box in (3, 2**31, edge, edge + 1):
            assert _same_fuzz(sigma, lambda a, b: _torus_value_ref(theta, a, b), i, 20, box).ok
    for i, mu in enumerate(_mus()[:8]):
        sigma = G3Multiplier(mu)
        assert sigma.column_dtype(4) == np.int64 and sigma.column_dtype(2**20) == object
        edge = _largest_int64_box(sigma)
        for box in (4, 2**20, edge, edge + 1):
            assert _same_fuzz(sigma, lambda a, b: _g3_value_ref(mu, a, b), i, 20, box).ok


def _counting(monkeypatch, cls):
    """Record the shape of a of every ``vector`` call of a class: one call
    per chunk of the fuzz, on (n, 6m) columns for a chunk of m triples."""
    calls = []
    vector = cls.vector

    def counted(self, a, b):
        calls.append(a.shape)
        return vector(self, a, b)

    monkeypatch.setattr(cls, "vector", counted)
    return calls


@pytest.mark.parametrize("block", [1, 3000, None])
def test_chunks_of_any_size_match_reference(block, monkeypatch):
    """61 triples in chunks of 1 (BLOCK = 1, which also gathers the torus
    entries one at a time), of a few triples (61 is no multiple of them),
    or in one chunk (the default BLOCK); one ``vector`` call per chunk."""
    if block is not None:
        monkeypatch.setattr(twistk.multipliers, "BLOCK", block)
        monkeypatch.setattr(twistk.lattices, "BLOCK", block)
    torus_calls = _counting(monkeypatch, LatticeMultiplier)
    g3_calls = _counting(monkeypatch, G3Multiplier)
    cases = [(LatticeMultiplier(t), partial(_torus_value_ref, t), torus_calls) for t in _thetas() if 3 <= t.n <= 6]
    cases += [(G3Multiplier(mu), partial(_g3_value_ref, mu), g3_calls) for mu in _mus()[:6]]
    for i, (sigma, value, calls) in enumerate(cases):
        calls.clear()
        assert _same_fuzz(sigma, value, i, 61, 3).ok
        widths = [shape[1] // 6 for shape in calls]
        assert sum(widths) == 61 and len(set(widths[:-1])) <= 1 and widths[-1] <= widths[0]
        if block == 1:
            assert widths == [1] * 61
        elif block:
            assert 1 < len(widths) < 61
        else:
            assert widths == [61]


@pytest.mark.parametrize("block", [1, None])
def test_column_vectors_match_reference(block, monkeypatch):
    """``vector`` on (n, m) coordinate columns gives each pair's exponent,
    also with the torus entries gathered one at a time (BLOCK = 1)."""
    if block is not None:
        monkeypatch.setattr(twistk.lattices, "BLOCK", block)
    rng = random.Random(41)
    cases = [(LatticeMultiplier(t), partial(_torus_value_ref, t)) for t in _thetas() if t.n <= 12]
    cases += [(G3Multiplier(mu), partial(_g3_value_ref, mu)) for mu in _mus()[:8]]
    for sigma, value in cases:
        n = len(sigma.identity_element())
        left, right = _vectors(n, rng, 5, 7), _vectors(n, rng, 5, 7)
        columns = sigma.vector(np.array(left).T, np.array(right).T)
        ex = sigma.exponents()
        assert [ex.rotation(x) for x in np.asarray(columns).T.tolist()] == [value(a, b) for a, b in zip(left, right)]


class _RarelyBrokenTorus(LatticeMultiplier):
    """sigma(a, b) + 1/D where a_1 = b_1 = 3: the identity row and column
    hold, and the cocycle identity fails on a few triples of box 3 only, so
    the first failure can lie inside a chunk."""

    def vector(self, a, b):
        v = super().vector(a, b)
        return [v[0] + ((a[0] == 3) & (b[0] == 3)), *v[1:]]


@pytest.mark.parametrize("block", [None, 1, 1500])
def test_failure_inside_a_chunk_rewinds_like_the_loop(block, monkeypatch):
    """The report and the generator state equal the loop's when the first
    failure lies inside one chunk (the default BLOCK), or inside a later
    chunk of 1 or of a few triples."""
    if block is not None:
        monkeypatch.setattr(twistk.multipliers, "BLOCK", block)
    theta = Theta(3, {(0, 1): rot("1/5", {"t": 1}), (1, 2): rot("2/3")}, IrrationalBasis(("t",)))
    sigma = _RarelyBrokenTorus(theta)
    D = theta.exponents.D
    calls = _counting(monkeypatch, _RarelyBrokenTorus)

    def value(a, b):
        return _torus_value_ref(theta, a, b) + rot(Fraction(int(a[0] == 3 and b[0] == 3), D))

    chunks, checked = [], []
    for seed in range(10):
        calls.clear()
        report = _same_fuzz(sigma, value, seed, 300, 3)
        assert not report.ok and report.reason == "cocycle identity"
        chunks.append(len(calls))
        checked.append(report.checked)
    assert min(checked) < 3 < max(checked)
    if block is None:
        assert chunks == [1] * 10
    else:
        assert max(chunks) > 1 and (block != 1 or chunks == [c + 1 for c in checked])


def test_dense_rank_512_fuzz_stays_within_blocks():
    """validate on a dense rank-512 torus (130,816 entries, a symbol part on
    most) traces a peak of at most 4 BLOCK words: the chunk, its six pairs
    of columns and the gathers of ``_torus_vector``, BLOCK // 6m entries at
    a time, with nothing of size |entries| x m."""
    n = 512
    i, j = np.triu_indices(n, 1)
    gen = np.random.default_rng(n)
    rows = np.stack([gen.integers(0, 7, i.size), gen.integers(-3, 4, i.size)], axis=1)
    compiled = Exponents(7, ("t",), rows)
    theta = Theta.from_compiled(n, list(zip(i.tolist(), j.tolist())), compiled, IrrationalBasis(("t",)))
    sigma = LatticeMultiplier(theta)
    assert sigma.column_dtype(5) == np.int64
    assert validate(sigma, random.Random(0), triples=1, box=5).ok  # builds the entries' index once
    tracemalloc.start()
    try:
        report = validate(sigma, random.Random(1), triples=30, box=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked == 30
    assert peak <= 4 * 8 * BLOCK, peak / (8 * BLOCK)


# -- fuzz failures ----------------------------------------------------------------------


class _FlippedG3(G3Multiplier):
    """The a4 term of the mu_13 exponent with its sign flipped, which the
    ``g3_value`` docstring says breaks the cocycle identity."""

    def vector(self, a, b):
        mu13 = super().vector((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))  # the mu_13 parameter
        return [x - 2 * b[2] * a[3] * y for x, y in zip(super().vector(a, b), mu13)]


class _ShiftedFreeProduct(FreeProductMultiplier):
    """sigma(x, y) + |x| |y|^2 / D: the identity row and column hold, the
    cocycle identity does not."""

    def vector(self, x, y):
        v = super().vector(x, y)
        return [v[0] + len(x) * len(y) ** 2, *v[1:]]


class _NonUnitalFreeProduct(FreeProductMultiplier):
    """sigma(x, ()) = |x| / D: the identity row fails, the column holds."""

    def vector(self, x, y):
        v = super().vector(x, y)
        return [v[0] + (0 if y else len(x)), *v[1:]]


class _NonUnitalTorus(LatticeMultiplier):
    """sigma(a, e) = (a_1 + ... + a_n) / D: the identity row fails.  a and b
    are (n, m) coordinate arrays, so the test "b is e" is taken per column."""

    def vector(self, a, b):
        v = super().vector(a, b)
        return [v[0] + np.where(np.any(b, axis=0), 0, np.sum(a, axis=0)), *v[1:]]


def _broken():
    mu = MuMatrix({(1, 3): rot("1/6", {"s": 1}), (2, 2): rot(0, {"s": 1}), (1, 1): rot("1/4")}, IrrationalBasis(("s",)))
    g3 = _FlippedG3(mu)
    s1, s2 = normalize(klein(2, 1))[0], normalize(klein(3, 1))[0]
    fp = _ShiftedFreeProduct(s1, s2)
    unit = _NonUnitalFreeProduct(s1, s2)
    D = fp.exponents().D
    theta = Theta(3, {(0, 1): rot("1/5", {"t": 1}), (1, 2): rot("2/3")}, IrrationalBasis(("t",)))
    torus = _NonUnitalTorus(theta)
    return {
        "g3": (g3, lambda a, b: _g3_value_ref(mu, a, b, sign=-1), "cocycle identity"),
        "free product": (fp, lambda x, y: _free_product_value_ref(fp, x, y) + rot(Fraction(len(x) * len(y) ** 2, D)), "cocycle identity"),
        "free product unit": (unit, lambda x, y: _free_product_value_ref(unit, x, y) + rot(Fraction(0 if y else len(x), D)), "identity row/column"),
        "torus": (torus, lambda a, b: _torus_value_ref(theta, a, b) + rot(Fraction(0 if any(b) else sum(a), theta.exponents.D)), "identity row/column"),
    }


@pytest.mark.parametrize("family", ["g3", "free product", "free product unit", "torus"])
def test_broken_family_fails_like_reference(family):
    sigma, value, reason = _broken()[family]
    for seed in range(6):
        report = _same_fuzz(sigma, value, seed, 300, 3)
        assert not report.ok and report.reason == reason


@pytest.mark.parametrize("family", ["g3", "free product", "free product unit", "torus"])
def test_cli_reports_broken_family_witness(family, capsys, monkeypatch):
    sigma, value, reason = _broken()[family]
    ok, checked, witness, expected_reason = _validate_fuzz_ref(sigma, value, random.Random(4), 300, 3)
    assert not ok and expected_reason == reason
    monkeypatch.setattr(twistk.cli, "decode_multiplier", lambda data: sigma)
    code = main(["validate", "--inline", "{}", "--fuzz", "300", "--box", "3", "--seed", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and not report["ok"]
    assert (report["checked"], report["reason"]) == (checked, reason)
    assert report["witness"] == json.loads(json.dumps([encode_witness_element(sigma, w) for w in witness if w is not None]))


class _LongPairFreeProduct(FreeProductMultiplier):
    """sigma(x, y) + (|x| - 1)(|y| - 1) / D on nonempty words: unchanged on
    one-letter pairs, so its restrictions are sigma1 and sigma2, normalized,
    but not similar to their free product."""

    def vector(self, x, y):
        v = super().vector(x, y)
        return [v[0] + (len(x) - 1) * (len(y) - 1) * bool(x and y), *v[1:]]


def test_cli_reports_decompose_counterexample(capsys, monkeypatch):
    """``decompose`` on a multiplier that is not similar to the free product
    of its restrictions exits 1 with the first sampled pair (x, y), drawn
    as ``decompose`` draws, where b0(x) + b0(y) - b0(xy) + sigma(x, y) !=
    tau(x, y), computed with the unmemoized references."""
    sigma = _LongPairFreeProduct(normalize(klein(2, 1))[0], normalize(klein(3, 1))[0])
    fp, ex = sigma.fp, sigma.exponents()
    zero = [0] * (1 + len(ex.labels))
    b0 = partial(prefix_telescope_ref, sigma.vector, zero)
    rng = random.Random(4)
    for _ in range(200):
        x, y = fp.random_word(rng, 3), fp.random_word(rng, 3)
        twisted = [p + q - r + s for p, q, r, s in zip(b0(x), b0(y), b0(fp.multiply(x, y)), sigma.vector(x, y))]
        if not ex.vanishes([p - q for p, q in zip(twisted, tau_ref(sigma, x, y))]):
            break
    else:
        raise AssertionError("no failing pair in 200")
    monkeypatch.setattr(twistk.cli, "decode_multiplier", lambda data: sigma)
    code = main(["decompose", "--inline", "{}", "--fuzz", "200", "--box", "3", "--seed", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["similar"] is False
    assert report["counterexample"] == [encode_witness_element(sigma, x), encode_witness_element(sigma, y)]


# -- no exponent arithmetic in the loops --------------------------------------------------


def test_loops_do_no_rotation_arithmetic(capsys, monkeypatch):
    rng = random.Random(32)
    torus8 = encode_multiplier(LatticeMultiplier(_theta(8, rng, UT)))
    g3 = encode_multiplier(G3Multiplier(_mus()[4]))
    tables = random_normalized_tables()
    free = {"type": "free_product", "sigma1": encode_multiplier(tables[0][1]), "sigma2": encode_multiplier(tables[1][1])}
    # rank 32 with a rank-2 symbol part: a large kernel, so a witness is re-checked
    u = [rng.randint(-3, 3) for _ in range(32)]
    v = [rng.randint(-3, 3) for _ in range(32)]
    theta32 = Theta(
        32,
        {(i, j): rot(Fraction(rng.randrange(12), 12), {"t": u[i] * v[j] - u[j] * v[i]}) for i in range(32) for j in range(i + 1, 32)},
        IrrationalBasis(("t",)),
    )

    def refuse(*args):
        raise AssertionError("RotationNumber arithmetic in a compiled loop")

    for name in ("__add__", "__neg__"):
        monkeypatch.setattr(RotationNumber, name, refuse)
    with pytest.raises(AssertionError):
        rot("1/2") + rot("1/3")
    for spec in (torus8, g3, free):
        code = main(["validate", "--inline", json.dumps(spec), "--fuzz", "200"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"] and report["checked"] == 200
    code = main(["decompose", "--inline", json.dumps(free), "--fuzz", "200"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["similar"] and report["restrictions_match"] and report["pairs_checked"] == 200
    decision = condition_k_lattice(theta32)
    assert not decision.condition_k and any(decision.witness)

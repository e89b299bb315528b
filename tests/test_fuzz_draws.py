"""The fuzz loops on the exact draw stream and the table-read word arithmetic.

- ``multipliers.draw`` gives the values and the generator state of
  ``rng.randint`` for every width it is asked for, and so does
  ``multipliers.draws`` for any count of them, by single 32-bit words up
  to a width of 2^32 - 1 and by ``draw`` above; the torus and g3
  ``random_element`` give the tuples their ``randint`` comprehension drew,
  and ``random_elements`` those tuples stacked.  An interpreter whose
  ``randrange`` or ``getrandbits`` rule differs fails here, before any
  sampled triple changes.
- An empty range raises ValueError before any draw, so ``validate`` with
  a negative box refuses on every infinite family instead of looping; a
  negative count of ``validate`` triples or ``decompose`` pairs raises
  ValueError before any draw too, and a count of 0 answers, 0 checked.
- ``FreeProduct.random_word`` is reduced also when a factor is trivial,
  and ``validate`` / ``decompose`` answer yes on such a product.
- ``multiply``, ``factor_images``, ``inverse``, ``_meet`` and ``vector``
  equal the per-letter references of ``tests/reference.py`` on the factor
  pairs of the infinite-fuzz benchmark workload and on hand-made cases;
  the ``decompose`` witness equals the unmemoized telescope plus beta,
  also for a product twisted by a coboundary that is not 0 across factors.
- With ``randint``, ``randrange`` and ``choice`` refusing, the CLI fuzz
  commands still answer: no fuzz loop draws through them; with
  ``multipliers.draw`` and the lattice ``random_element`` refusing, torus
  and g3 ``validate`` still answer: their chunks draw no coordinate and no
  element one at a time.
- ``_beta_of``, read at the seams of consecutive syllables, equals
  ``beta_ref`` on uncached kernel words of up to 14 letters and on every
  pair of commutator powers of a few small products.
"""

import itertools
import json
import random
import signal
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import random_coboundary, symmetric, trivial  # noqa: E402
from reference import (  # noqa: E402
    beta_ref,
    check_word,
    factor_images_ref,
    multiply_ref,
    prefix_telescope_ref,
    tau_ref,
    vector_ref,
)

import twistk.multipliers
from twistk import freeprod
from twistk.cli import main
from twistk.freeprod import FreeProduct, FreeProductMultiplier, commutator_word, decompose, rewrite_to_X, xword_to_word
from twistk.groups import cyclic
from twistk.io import decode_multiplier, encode_multiplier
from twistk.lattices import G3Multiplier, LatticeMultiplier
from twistk.multipliers import Multiplier, coboundary_twist, draw, draws, klein, normalize, trivial_multiplier, validate
from twistk.torus import ZERO, rot

TORUS = {"type": "torus", "n": 5, "theta": {"1,2": {"rat": "1/3"}, "2,5": {"rat": "1/4", "irr": {"t": 1}}}, "basis": ["t"]}
G3 = {"type": "g3", "mu": {"11": {"rat": "1/3"}, "32": {"rat": "1/5", "irr": {"t": -2}}}, "basis": ["t"]}
FREE = {"type": "free_product", "sigma1": {"type": "klein", "n": 2, "k": 0}, "sigma2": {"type": "klein", "n": 3, "k": 0}}


# -- the sampler ------------------------------------------------------------------


@pytest.mark.parametrize("low", [0, -3, 11])
def test_draw_matches_randint(low):
    widths = list(range(1, 66)) + [2**k + d for k in (31, 32, 63, 64, 100) for d in (-1, 0, 1)]
    for width in widths:
        rng, ref = random.Random(width), random.Random(width)
        got = [draw(rng, low, low + width - 1) for _ in range(64)]
        assert got == [ref.randint(low, low + width - 1) for _ in range(64)], width
        assert rng.getstate() == ref.getstate(), width


@pytest.mark.parametrize("low", [0, -3, 11])
def test_draws_match_randint(low, monkeypatch):
    """Values and generator state of a ``randint`` comprehension, for every
    count; ``draw`` is called (once per value) only from a width of 2^32."""
    calls = []

    def counted(rng, low, high):
        calls.append(high - low + 1)
        return draw(rng, low, high)

    monkeypatch.setattr(twistk.multipliers, "draw", counted)
    widths = list(range(1, 66)) + [2**k + d for k in (15, 16, 31, 32, 33, 63) for d in (-1, 0, 1)]
    for width in widths:
        high = low + width - 1
        for count in (0, 1, 7, 300):
            calls.clear()
            rng, ref = random.Random(width + count), random.Random(width + count)
            got = draws(rng, low, high, count)
            assert got.shape == (count,)
            assert got.tolist() == [ref.randint(low, high) for _ in range(count)], (width, count)
            assert rng.getstate() == ref.getstate(), (width, count)
            assert calls == ([width] * count if width >= 2**32 else []), (width, count)


def test_draw_matches_choice():
    for n in range(1, 18):
        seq = tuple(range(100, 100 + n))
        rng, ref = random.Random(n), random.Random(n)
        assert [seq[draw(rng, 0, n - 1)] for _ in range(64)] == [ref.choice(seq) for _ in range(64)]
        assert rng.getstate() == ref.getstate()


@pytest.fixture
def within_5_s():
    """Fail a test that runs past 5 s (an empty range once looped forever)."""

    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_empty_range_raises_before_drawing(within_5_s):
    """``draw`` and a positive count of ``draws`` refuse high < low, as
    ``randint`` does, and leave the generator as it was; zero draws of an
    empty range are an empty array, as zero ``randint`` calls are nothing."""
    rng = random.Random(3)
    state = rng.getstate()
    for call in (partial(draw, rng, 0, -1), partial(draws, rng, 1, 0, 3), partial(draws, rng, 2**40, 0, 2)):
        with pytest.raises(ValueError, match="empty range"):
            call()
        assert rng.getstate() == state
    empty = draws(rng, 1, 0, 0)
    assert empty.shape == (0,) and empty.dtype == np.int64 and rng.getstate() == state


@pytest.mark.parametrize("spec", [TORUS, G3, FREE], ids=["torus", "g3", "free product"])
def test_validate_refuses_a_negative_box(spec, within_5_s):
    sigma = decode_multiplier(spec)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        validate(sigma, rng, 5, box=-1)
    assert rng.getstate() == state


@pytest.mark.parametrize("spec", [TORUS, G3, FREE], ids=["torus", "g3", "free product"])
def test_validate_refuses_a_negative_count(spec, within_5_s):
    sigma = decode_multiplier(spec)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="triples must be >= 0"):
        validate(sigma, rng, -5)
    assert rng.getstate() == state
    report = validate(sigma, rng, 0)
    assert (report.ok, report.checked, report.mode) == (True, 0, "fuzz")
    assert rng.getstate() == state


def test_decompose_refuses_a_negative_count(within_5_s):
    sigma = decode_multiplier(FREE)
    g1, g2 = sigma.fp.g1, sigma.fp.g2
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="pairs must be >= 0"):
        decompose(sigma, g1, g2, pairs=-3, rng=rng)
    assert rng.getstate() == state
    assert decompose(sigma, g1, g2, pairs=0, rng=rng).pairs_checked == 0
    assert rng.getstate() == state


@pytest.mark.parametrize("spec", [TORUS, G3, {**TORUS, "n": 8, "theta": {}}], ids=["torus5", "g3", "torus8"])
def test_random_element_draws_unchanged(spec):
    sigma = decode_multiplier(spec)
    rank = len(sigma.identity_element())
    for box in range(0, 9):
        rng, ref = random.Random(box), random.Random(box)
        got = [sigma.random_element(rng, box) for _ in range(50)]
        assert got == [tuple(ref.randint(-box, box) for _ in range(rank)) for _ in range(50)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("spec", [TORUS, G3, {**TORUS, "n": 8, "theta": {}}], ids=["torus5", "g3", "torus8"])
def test_random_elements_stack_random_element(spec):
    sigma = decode_multiplier(spec)
    rank = len(sigma.identity_element())
    for box in range(0, 9):
        for m in (0, 1, 40):
            rng, ref = random.Random(box + m), random.Random(box + m)
            got = sigma.random_elements(rng, box, m)
            assert got.shape == (m, rank) and got.dtype == np.int64
            assert list(map(tuple, got.tolist())) == [sigma.random_element(ref, box) for _ in range(m)]
            assert rng.getstate() == ref.getstate()


# -- a trivial factor --------------------------------------------------------------


@pytest.mark.parametrize("orders", [(1, 4), (4, 1), (1, 1), (1, 6), (6, 1), (1, 2)])
def test_random_words_are_reduced(orders):
    g1, g2 = (trivial() if n == 1 else symmetric(3) if n == 6 else cyclic(n) for n in orders)
    fp = FreeProduct(g1, g2)
    rng = random.Random(sum(orders))
    for _ in range(500):
        w = fp.random_word(rng, 7)
        assert check_word(fp, w) == w
        k = fp.random_kernel_word(rng, 8)
        assert check_word(fp, k) == k and fp.in_kernel(k)
    if 1 not in orders:
        return
    # one letter at most: every word of a single factor reduces to one letter
    assert max(len(fp.random_word(rng, 9)) for _ in range(200)) <= 1


@pytest.mark.parametrize("slot", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_trivial_factor_free_product_answers_yes(capsys, slot, n):
    one = encode_multiplier(trivial_multiplier(trivial()))
    other = encode_multiplier(normalize(klein(n, 1))[0])
    spec = {"type": "free_product", "sigma1": one if slot == 1 else other, "sigma2": other if slot == 1 else one}
    for seed in (0, 5):
        code = main(["validate", "--inline", json.dumps(spec), "--fuzz", "300", "--seed", str(seed)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"] and report["checked"] == 300, report
        code = main(["decompose", "--inline", json.dumps(spec), "--fuzz", "300", "--seed", str(seed)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["similar"] and report["restrictions_match"] and report["pairs_checked"] == 300


# -- word arithmetic against the per-letter references ------------------------------


def _twisted(group, seed):
    return normalize(coboundary_twist(trivial_multiplier(group), random_coboundary(group, random.Random(seed))))[0]


FACTORS = {
    "Z2": lambda: _twisted(cyclic(2), 1),
    # the coboundary of (0, t, -t) on Z3: normalized, with a symbol slot
    "Z3": lambda: coboundary_twist(trivial_multiplier(cyclic(3)), [ZERO, rot(0, {"t": 1}), rot(0, {"t": -1})]),
    "Z4": lambda: _twisted(cyclic(4), 2),
    "S3": lambda: _twisted(symmetric(3), 3),
    "klein2": lambda: normalize(klein(2, 1))[0],
    "klein3": lambda: normalize(klein(3, 1))[0],
}
# the factor pairs of the infinite-fuzz workload
PAIRS = [("Z2", "Z3"), ("klein2", "Z3"), ("S3", "Z4"), ("klein3", "Z2"), ("klein2", "S3"), ("Z4", "klein3")]


def _product(pair):
    return FreeProductMultiplier(FACTORS[pair[0]](), FACTORS[pair[1]]())


def _check_pair(sigma, x, y):
    fp = sigma.fp
    assert fp.multiply(x, y) == multiply_ref(fp, x, y)
    assert fp.factor_images(x) == factor_images_ref(fp, x)
    assert fp.inverse(x) == tuple(fp.inverse_letter(letter) for letter in reversed(x))
    assert tuple(sigma._meet(x, y)[1]) == tuple(tau_ref(sigma, x, y))
    got = sigma.vector(x, y)
    assert type(got) is list and got == vector_ref(sigma, x, y)
    return got != list(tau_ref(sigma, x, y))


@pytest.mark.parametrize("pair", PAIRS, ids=["*".join(p) for p in PAIRS])
def test_word_arithmetic_matches_reference(pair):
    sigma = _product(pair)
    fp = sigma.fp
    rng = random.Random(len(PAIRS) * PAIRS.index(pair))
    beta_seen = 0
    for i in range(2500):
        if i < 2000:
            x, y = fp.random_word(rng, 6), fp.random_word(rng, 6)
        else:
            x, y = fp.random_kernel_word(rng, 9), fp.random_kernel_word(rng, 9)
        beta_seen += _check_pair(sigma, x, y)
        _check_pair(sigma, y, x)
        _check_pair(sigma, x, fp.inverse(x)[: len(x) // 2 + 1])
    assert beta_seen  # some pairs carry a nonzero beta


def test_word_arithmetic_hand_made_cases():
    sigma = _product(("klein2", "Z3"))
    fp = sigma.fp
    a, b = (1, 1), (2, 1)  # (1, 0) in klein(2), 1 in Z3
    x = ((1, 3), (2, 2), (1, 1), (2, 1), (1, 2))
    cases = [
        (x, fp.inverse(x)),  # a full inverse run: the product is empty
        (fp.inverse(x), x),
        (x, fp.inverse(x)[:3]),  # the run stops where one side runs out
        (x[:2], fp.inverse(x)),
        ((a, b), ((2, 2), (1, 2))),  # cancel b, then merge a and (1, 2)
        ((a, b), ((2, 2), (1, 1))),  # cancel b, then cancel a as well
        ((a, b), ((2, 1), (1, 2))),  # b b merges, no cancellation
        ((), x),  # the empty word on either side
        (x, ()),
        ((), ()),
    ]
    # kernel words of length 5 and more: products of commutators
    c1, c2 = commutator_word(fp, 1, 1), commutator_word(fp, 3, 2)
    k = fp.multiply(c1, c2)
    assert len(k) >= 5 and fp.in_kernel(k)
    kernel = [k, fp.multiply(fp.inverse(c1), c2), fp.multiply(c2, fp.inverse(c1)), fp.multiply(k, fp.inverse(c1))]
    assert all(len(w) >= 5 and fp.in_kernel(w) for w in kernel)
    assert any(beta_ref(sigma, w) != sigma._zero for w in kernel)
    cases += [(w, v) for w in kernel for v in (*kernel, x, fp.inverse(w), c1, ())]
    for p, q in cases:
        _check_pair(sigma, p, q)
    assert fp.multiply(x, fp.inverse(x)) == () and sigma._meet(x, fp.inverse(x))[1] is sigma._zero
    assert fp.multiply((a, b), ((2, 2), (1, 2))) == ((1, 3),)


def test_short_words_have_zero_beta():
    for pair in PAIRS:
        sigma = _product(pair)
        fp = sigma.fp
        rng = random.Random(7)
        for _ in range(300):
            w = fp.random_word(rng, 4)
            assert sigma._beta(w) is sigma._zero and tuple(beta_ref(sigma, w)) == sigma._zero
        # every reduced 4-letter word; those in the kernel are one commutator each
        words = [
            word
            for first in (1, 2)
            for word in itertools.product(*(fp._letters[first if i % 2 == 0 else 3 - first] for i in range(4)))
        ]
        assert any(fp.in_kernel(w) for w in words)
        for w in words:
            assert sigma._beta(w) is sigma._zero and tuple(beta_ref(sigma, w)) == sigma._zero
        assert not sigma._beta_memo  # no word of <= 4 letters was rewritten


@pytest.mark.parametrize("pair", PAIRS, ids=["*".join(p) for p in PAIRS])
def test_beta_matches_reference_on_long_kernel_words(pair):
    """Uncached ``_beta_of`` against ``beta_ref``: on random kernel words of
    up to 14 letters, and on every pair of commutator powers ([a, b]^p,
    [c, d]^q), p, q in {-2, -1, 1, 2}, whose seams take each branch."""
    sigma = _product(pair)
    fp = sigma.fp
    rng = random.Random(14 + PAIRS.index(pair))
    words = [fp.random_kernel_word(rng, 14) for _ in range(600)]
    assert 12 <= max(map(len, words)) <= 14 and any(len(rewrite_to_X(fp, w)) > 2 for w in words)
    gens = [(a, b) for a in range(1, fp.g1.order) for b in range(1, fp.g2.order)]
    powers = (-2, -1, 1, 2)
    pairs = [((g, p), (h, q)) for g in gens for h in gens if g != h for p in powers for q in powers]
    for xw in pairs:
        words.append(xword_to_word(fp, xw))
        assert rewrite_to_X(fp, words[-1]) == xw
    nonzero = 0
    for w in words:
        got = sigma._beta_of(w)
        assert tuple(got) == tuple(beta_ref(sigma, w)), w
        nonzero += got != sigma._zero
    assert not sigma._beta_memo and nonzero


@pytest.mark.parametrize("pair", [("klein2", "S3"), ("Z4", "klein3"), ("klein2", "Z3")], ids=lambda p: "*".join(p))
def test_decompose_witness_matches_reference(pair, monkeypatch):
    sigma = _product(pair)
    fp = sigma.fp
    result = decompose(sigma, fp.g1, fp.g2, max_len=5, pairs=200, rng=random.Random(1))
    assert _memo(result.witness)  # the witness reads the memo the check filled
    ex = sigma.exponents()
    zero = [0] * (1 + len(ex.labels))
    vector = partial(vector_ref, sigma)
    rng = random.Random(2)
    words = [fp.random_kernel_word(rng, 9) if i % 3 else fp.random_word(rng, 8) for i in range(300)]
    for w in words + words[::-1]:
        expected = [p + q for p, q in zip(prefix_telescope_ref(vector, zero, w), beta_ref(result.candidate, w))]
        assert result.witness(w) == ex.rotation(expected)
    # a small memo is emptied when full and gives the same values
    monkeypatch.setattr(freeprod, "BETA_MEMO", 8)
    small = decompose(sigma, fp.g1, fp.g2, max_len=5, pairs=200, rng=random.Random(1))
    assert small.pairs_checked == result.pairs_checked == 200
    memo = _memo(small.witness)
    for w in words:
        assert small.witness(w) == result.witness(w)
        assert len(memo) <= 8
    assert memo


class _Coboundary(Multiplier):
    """sigma + delta b for b(w) = len(w)^2 (phi(w[0]) + phi(w[-1])), with phi
    odd under letter inversion, so that b(w^-1) = -b(w): a normalized
    multiplier whose value on two letters of different factors is not 0."""

    def __init__(self, base: FreeProductMultiplier):
        self.base = base
        fp = base.fp
        self.phi = {l: (5 * l[0] + 3 * l[1]) % 7 - (5 * l[0] + 3 * fp.inverse_letter(l)[1]) % 7 for l in fp._inverse}

    def exponents(self):
        return self.base.exponents()

    def _b(self, w):
        return len(w) ** 2 * (self.phi[w[0]] + self.phi[w[-1]]) if w else 0

    def vector(self, x, y):
        v = self.base.vector(x, y)
        v[0] += self._b(x) + self._b(y) - self._b(self.base.multiply(x, y))
        return v

    def multiply(self, x, y):
        return self.base.multiply(x, y)


@pytest.mark.parametrize("pair", [("klein2", "S3"), ("Z4", "klein3")], ids=lambda p: "*".join(p))
def test_decompose_of_a_twisted_product_matches_reference(pair):
    sigma = _Coboundary(_product(pair))
    fp = sigma.base.fp
    assert any(sigma.vector((a,), (b,))[0] % sigma.exponents().D for a in fp._letters[1] for b in fp._letters[2])
    result = decompose(sigma, fp.g1, fp.g2, max_len=5, pairs=300, rng=random.Random(3))
    assert result.pairs_checked == 300
    ex = sigma.exponents()
    zero = [0] * (1 + len(ex.labels))
    rng = random.Random(4)
    for i in range(300):
        w = fp.random_kernel_word(rng, 9) if i % 2 else fp.random_word(rng, 8)
        expected = [p + q for p, q in zip(prefix_telescope_ref(sigma.vector, zero, w), beta_ref(result.candidate, w))]
        assert result.witness(w) == ex.rotation(expected)


def _memo(fn):
    """The telescope memo a witness closes over."""
    for cell in fn.__closure__:
        inner = cell.cell_contents
        if callable(inner) and getattr(inner, "__name__", "") == "b0":
            return next(c.cell_contents for c in inner.__closure__ if isinstance(c.cell_contents, dict))
    raise LookupError("no telescope in the witness")


# -- no draw through the slow Random methods ----------------------------------------


def test_fuzz_loops_do_not_call_randint(capsys, monkeypatch):
    free = {
        "type": "free_product",
        "sigma1": encode_multiplier(normalize(klein(2, 1))[0]),
        "sigma2": encode_multiplier(trivial_multiplier(symmetric(3))),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a fuzz loop drew through the slow Random path")

    for name in ("randint", "randrange", "choice"):
        monkeypatch.setattr(random.Random, name, refuse)
    with pytest.raises(AssertionError):
        random.Random(0).randint(0, 3)
    for spec in (TORUS, G3, free):
        code = main(["validate", "--inline", json.dumps(spec), "--fuzz", "200", "--box", "4"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"] and report["checked"] == 200
    code = main(["decompose", "--inline", json.dumps(free), "--fuzz", "200"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["similar"] and report["pairs_checked"] == 200


def test_lattice_chunks_do_not_draw_per_coordinate(capsys, monkeypatch):
    """``multipliers.draw`` and ``random_element`` refusing: torus and g3
    ``validate`` still answer, so no chunk falls back to one call per
    coordinate or per element."""
    torus8 = {**TORUS, "n": 8, "theta": {**TORUS["theta"], "3,8": {"rat": "2/7"}, "6,7": {"rat": 0, "irr": {"t": 3}}}}

    def refuse(*args):
        raise AssertionError("a lattice chunk drew one coordinate or element at a time")

    monkeypatch.setattr(twistk.multipliers, "draw", refuse)
    for family in (LatticeMultiplier, G3Multiplier):
        monkeypatch.setattr(family, "random_element", refuse)
    with pytest.raises(AssertionError):
        draws(random.Random(0), 0, 2**32, 1)  # a width of 2^32 + 1 draws by draw
    for spec in (torus8, G3):
        code = main(["validate", "--inline", json.dumps(spec), "--fuzz", "500", "--box", "3"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"] and report["checked"] == 500

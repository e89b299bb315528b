import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import twistk as tk
from twistk import freeprod
from twistk.cli import main
from twistk.freeprod import (
    Decomposition,
    FreeProduct,
    FreeProductMultiplier,
    NotInKernel,
    SimilarityFailure,
    commutator_word,
    decompose,
    expand_syllable,
    free_product_multiplier,
    rewrite_to_X,
    xword_to_word,
)
from twistk.groups import cyclic
from twistk.io import encode_multiplier
from twistk.multipliers import (
    Exponents,
    Multiplier,
    NotNormalized,
    TableMultiplier,
    coboundary_twist,
    compile_params,
    normalize,
    one_frame,
    trivial_multiplier,
    validate,
)
from twistk.torus import ZERO, rot

sys.path.insert(0, str(Path(__file__).parent))
from catalog import dihedral, random_normalized_tables, symmetric  # noqa: E402
from reference import check_word, reduce_pair  # noqa: E402


def normalized_klein(n, k):
    return normalize(tk.klein(n, k))[0]


@pytest.fixture(scope="module")
def z3z2():
    return FreeProduct(cyclic(3), cyclic(2))


@pytest.fixture(scope="module")
def kleinz3():
    s1 = normalized_klein(2, 1)
    s2 = trivial_multiplier(cyclic(3))
    return free_product_multiplier(s1, s2)


def test_letter_validation(z3z2):
    with pytest.raises(ValueError):
        check_word(z3z2, ((1, 0),))  # identity is not a letter
    with pytest.raises(ValueError):
        check_word(z3z2, ((1, 1), (1, 2)))  # no alternation


def test_word_multiply_basics(z3z2):
    fp = z3z2
    assert fp.multiply((), ()) == ()
    # same-factor boundary letters merge
    assert fp.multiply(((1, 1),), ((1, 1),)) == ((1, 2),)
    # merging to the identity cancels
    assert fp.multiply(((1, 1),), ((1, 2),)) == ()
    # two-step cancellation then merge: (a b) (b^-1 a') -> (a a')
    x = ((1, 1), (2, 1))
    y = ((2, 1), (1, 1))  # Z2: 1 is its own inverse
    assert fp.multiply(x, y) == ((1, 2),)


def test_word_multiply_group_laws(z3z2):
    fp = z3z2
    rng = random.Random(0)
    for _ in range(300):
        x = fp.random_word(rng, 6)
        y = fp.random_word(rng, 6)
        z = fp.random_word(rng, 6)
        assert fp.multiply(fp.multiply(x, y), z) == fp.multiply(x, fp.multiply(y, z))
        assert fp.multiply(x, fp.inverse(x)) == ()
        check_word(fp, fp.multiply(x, y))


def test_reduce_pair(z3z2):
    fp = z3z2
    # reduced pair unchanged
    x = ((1, 1), (2, 1))
    y = ((1, 2),)
    assert reduce_pair(fp, x, y) == (x, y)
    # single boundary cancellation: (a b), (b^-1 c) -> (a), (c) with c != a^-1
    y2 = ((2, 1), (1, 1))
    assert reduce_pair(fp, x, y2) == (((1, 1),), ((1, 1),))
    # and the cancellation run continues through exact inverses only
    assert reduce_pair(fp, x, fp.inverse(x)) == ((), ())
    rng = random.Random(1)
    for _ in range(300):
        x = fp.random_word(rng, 6)
        y = fp.random_word(rng, 6)
        xw, yw = reduce_pair(fp, x, y)
        assert fp.multiply(xw, yw) == fp.multiply(x, y)
        if xw and yw:
            assert xw[-1] != fp.inverse_letter(yw[0])


def test_reduce_pair_full_cancellation(z3z2):
    fp = z3z2
    rng = random.Random(2)
    for _ in range(100):
        x = fp.random_word(rng, 5)
        xw, yw = reduce_pair(fp, x, fp.inverse(x))
        assert fp.multiply(xw, yw) == ()
        assert not xw or not yw


def tau(sigma, x, y):
    """The boundary cocycle tau of a free product multiplier at (x, y)."""
    return sigma._exponents.rotation(sigma._meet(x, y)[1])


def beta(sigma, x):
    """The coboundary beta of a free product multiplier at x."""
    return sigma._exponents.rotation(sigma._beta(x))


def test_tau_branches(kleinz3):
    sigma = kleinz3
    s1 = sigma.sigma1
    assert tau(sigma, (), ((2, 1),)) == ZERO
    assert tau(sigma, ((1, 1),), ()) == ZERO
    # boundary letters in different factors
    assert tau(sigma, ((1, 1),), ((2, 2),)) == ZERO
    # both boundary letters in factor 1: the factor cocycle value
    for a in range(1, 4):
        for b in range(1, 4):
            assert tau(sigma, ((1, a),), ((1, b),)) == s1.value(a, b)


def test_tau_requires_normalized():
    with pytest.raises(NotNormalized):
        free_product_multiplier(tk.klein(2, 1), trivial_multiplier(cyclic(2)))


def test_commutator_and_syllables(z3z2):
    fp = z3z2
    q = (1, 2)  # [a, b] with a = 2 in Z3, b = 1 in Z2
    w = commutator_word(fp, 2, 1)
    assert w == ((1, 2), (2, 1), (1, 1), (2, 1))
    assert expand_syllable(fp, (2, 1), 1) == w
    assert expand_syllable(fp, (2, 1), -1) == fp.inverse(w)
    assert expand_syllable(fp, (2, 1), 2) == fp.multiply(w, w)


def test_rewrite_identity_and_generator(z3z2):
    fp = z3z2
    assert rewrite_to_X(fp, ()) == ()
    w = commutator_word(fp, 1, 1)
    assert rewrite_to_X(fp, w) == (((1, 1), 1),)


def test_rewrite_rejects_non_kernel(z3z2):
    with pytest.raises(NotInKernel):
        rewrite_to_X(z3z2, ((1, 1),))


def test_rewrite_round_trip(z3z2):
    fp = z3z2
    rng = random.Random(3)
    for _ in range(500):
        x = fp.random_kernel_word(rng, 8)
        xw = rewrite_to_X(fp, x)
        assert xword_to_word(fp, xw) == x
        # freely reduced over the commutator alphabet
        for (g1, p1), (g2, p2) in zip(xw, xw[1:]):
            assert g1 != g2
        assert all(p for _, p in xw)


def _kernel_words(fp, max_len):
    """Every reduced word in the kernel of fp with at most max_len letters."""
    letters = {i: [(i, a) for a in fp.factor(i).elements() if a != fp.factor(i).identity] for i in (1, 2)}
    level = [()]
    yield ()
    for _ in range(max_len):
        level = [w + (letter,) for w in level for letter in (letters[1] + letters[2] if not w else letters[3 - w[-1][0]])]
        yield from filter(fp.in_kernel, level)


def test_rewrite_never_cancels_a_syllable():
    """Every reduced kernel word of at most 10 letters on Z2*Z3 and Z2*Z2,
    and of at most 8 on Z3*Z4, S3*Z2 and D4*Z3: 5,443 words, whose
    syllables take 60 merges (|power| - 1 summed) and no cancellation, as
    the ``rewrite_to_X`` docstring proves: every power is nonzero and
    consecutive generators differ."""
    words = merges = 0
    for g1, g2, max_len in (
        (cyclic(2), cyclic(3), 10),
        (cyclic(2), cyclic(2), 10),
        (cyclic(3), cyclic(4), 8),
        (symmetric(3), cyclic(2), 8),
        (dihedral(4), cyclic(3), 8),
    ):
        fp = FreeProduct(g1, g2)
        for x in _kernel_words(fp, max_len):
            xw = rewrite_to_X(fp, x)
            assert all(p for _, p in xw), x
            assert all(g != h for (g, _), (h, _) in zip(xw, xw[1:])), x
            assert xword_to_word(fp, xw) == x
            words += 1
            merges += sum(abs(p) - 1 for _, p in xw)
    assert (words, merges) == (5443, 60)


def test_beta_branches(kleinz3):
    sigma = kleinz3
    fp = sigma.fp
    assert beta(sigma, ((1, 1),)) == ZERO  # not in the kernel
    w = commutator_word(fp, 1, 1)
    assert beta(sigma, w) == ZERO  # single syllable
    rng = random.Random(4)
    found_nonzero = False
    for _ in range(400):
        x = fp.random_kernel_word(rng, 8)
        if bool(beta(sigma, x)):
            found_nonzero = True
            break
    assert found_nonzero


def test_trivial_factors_give_trivial_multiplier():
    s = free_product_multiplier(trivial_multiplier(cyclic(2)), trivial_multiplier(cyclic(3)))
    rng = random.Random(5)
    for _ in range(300):
        x = s.fp.random_word(rng, 6)
        y = s.fp.random_word(rng, 6)
        assert s.value(x, y) == ZERO


def test_free_product_cocycle_fuzz(kleinz3):
    report = validate(kleinz3, rng=random.Random(6), triples=1500, box=6)
    assert report.ok, report.witness


def test_free_product_normalized(kleinz3):
    sigma = kleinz3
    rng = random.Random(7)
    for _ in range(300):
        x = sigma.fp.random_word(rng, 6)
        assert sigma.value(x, sigma.fp.inverse(x)).is_integral()


def test_restrictions_exact(kleinz3):
    sigma = kleinz3
    for a in range(1, 4):
        for b in range(1, 4):
            assert sigma.value(((1, a),), ((1, b),)) == sigma.sigma1.value(a, b)
    for a in range(1, 3):
        for b in range(1, 3):
            assert sigma.value(((2, a),), ((2, b),)) == sigma.sigma2.value(a, b)


def test_trivial_on_commutator_subgroup(kleinz3):
    sigma = kleinz3
    rng = random.Random(8)
    for _ in range(300):
        x = sigma.fp.random_kernel_word(rng, 8)
        y = sigma.fp.random_kernel_word(rng, 8)
        assert sigma.value(x, y).is_integral()


def test_tau_is_itself_a_multiplier(kleinz3):
    sigma = kleinz3
    fp = sigma.fp
    rng = random.Random(9)
    for _ in range(800):
        x = fp.random_word(rng, 5)
        y = fp.random_word(rng, 5)
        z = fp.random_word(rng, 5)
        lhs = tau(sigma, x, y) + tau(sigma, fp.multiply(x, y), z)
        rhs = tau(sigma, x, fp.multiply(y, z)) + tau(sigma, y, z)
        assert lhs == rhs


def test_module_level_helpers(kleinz3):
    # tau and beta depend only on the factor multipliers: a second
    # product built from the same factors gives the same values
    twin = FreeProductMultiplier(kleinz3.sigma1, kleinz3.sigma2)
    assert tau(twin, ((1, 1),), ((1, 1),)) == tau(kleinz3, ((1, 1),), ((1, 1),)) == kleinz3.sigma1.value(1, 1)
    w = commutator_word(kleinz3.fp, 1, 1)
    assert beta(twin, w) == beta(kleinz3, w) == ZERO


class _TauOracle(Multiplier):
    """The boundary cocycle tau of a free product multiplier, as a multiplier."""

    def __init__(self, sigma: FreeProductMultiplier):
        self.sigma = sigma

    def exponents(self):
        return self.sigma.exponents()

    def vector(self, x, y):
        return list(self.sigma._meet(x, y)[1])


class _Shifted(Multiplier):
    """base + shift wherever both words have at least two letters, over a
    frame that also holds the denominators and symbols of ``spare``."""

    def __init__(self, base: Multiplier, shift=ZERO, spare=ZERO):
        self.base = base
        self.shift = shift
        D, labels, _ = one_frame((base.exponents(), compile_params([shift, spare])))
        self._exponents = Exponents(D, labels, np.zeros((0, 1 + len(labels)), dtype=np.int64))

    def exponents(self):
        return self._exponents

    def vector(self, x, y):
        v = self.base.value(x, y)
        if len(x) >= 2 and len(y) >= 2:
            v = v + self.shift
        D, coeffs = self._exponents.D, dict(v.coeffs)
        return [int(v.rat * D)] + [int(coeffs.get(label, 0) * D) for label in self._exponents.labels]


def _restriction_table_ref(sigma_fn, group, factor):
    e = group.identity
    values = [
        [ZERO if a == e or b == e else sigma_fn(((factor, a),), ((factor, b),)) for b in group.elements()]
        for a in group.elements()
    ]
    return TableMultiplier(group, values)


def _decompose_ref(sigma_fn, g1, g2, max_len=6, pairs=1000, rng=None):
    """The RotationNumber decomposition loop that ``decompose`` replaced."""
    rng = rng or random.Random(0)
    fp = FreeProduct(g1, g2)
    sigma1 = _restriction_table_ref(sigma_fn, g1, 1)
    sigma2 = _restriction_table_ref(sigma_fn, g2, 2)
    candidate = FreeProductMultiplier(sigma1, sigma2)

    def prefix_telescope(x):
        if len(x) <= 1:
            return ZERO
        total = ZERO
        prefix = x[:1]
        for letter in x[1:]:
            total = total + sigma_fn(prefix, (letter,))
            prefix = prefix + (letter,)
        return total

    def beta_fn(x):
        return prefix_telescope(x) + beta(candidate, x)

    checked = 0
    for _ in range(pairs):
        x = fp.random_word(rng, max_len)
        y = fp.random_word(rng, max_len)
        xy = fp.multiply(x, y)
        expected = beta_fn(x) + beta_fn(y) - beta_fn(xy) + sigma_fn(x, y)
        if candidate.value(x, y) != expected:
            raise SimilarityFailure((x, y))
        checked += 1
    return Decomposition(sigma1, sigma2, beta_fn, candidate, checked)


def _criterion_10_factors():
    z2 = trivial_multiplier(cyclic(2))
    z3 = trivial_multiplier(cyclic(3))
    v4k = normalized_klein(2, 1)
    t9k = normalized_klein(3, 1)
    return [(z2, z3), (v4k, z2), (t9k, z3), (v4k, t9k)]


def _random_table_factors():
    tables = [t for _, t in random_normalized_tables()]
    return [(tables[i], tables[(5 * i + 3) % len(tables)]) for i in range(0, len(tables), 4)]


def _symbol_factors():
    # the coboundary of (0, t, -t) on Z3: normalized, with values 3t and -3t
    z3t = coboundary_twist(trivial_multiplier(cyclic(3)), [ZERO, rot(0, {"t": 1}), rot(0, {"t": -1})])
    return [(z3t, normalized_klein(2, 1)), (normalized_klein(3, 1), z3t)]


FACTORS = {"criterion 10": _criterion_10_factors, "random tables": _random_table_factors, "symbols": _symbol_factors}


@pytest.mark.parametrize("factors", FACTORS)
def test_decompose_matches_rotation_reference(factors):
    for i, (s1, s2) in enumerate(FACTORS[factors]()):
        sigma = free_product_multiplier(s1, s2)
        fp = sigma.fp
        # the same values over a larger frame than the candidate's
        reframed = _Shifted(sigma, spare=rot("1/6", {"s": "1/5"}))
        for oracle in (sigma, _TauOracle(sigma), reframed):
            for seed in (i, 100 + i, 200 + i):
                got = decompose(oracle, fp.g1, fp.g2, max_len=5, pairs=60, rng=random.Random(seed))
                ref = _decompose_ref(oracle.value, fp.g1, fp.g2, max_len=5, pairs=60, rng=random.Random(seed))
                assert got.pairs_checked == ref.pairs_checked == 60
                assert got.sigma1.values == ref.sigma1.values
                assert got.sigma2.values == ref.sigma2.values
                rng = random.Random(seed)
                for _ in range(30):
                    w = fp.random_word(rng, 6)
                    assert got.witness(w) == ref.witness(w)


@pytest.mark.parametrize("shift", [rot("1/3"), rot(0, {"t": "1/2"})], ids=["rational", "symbol"])
def test_decompose_first_failure_matches_rotation_reference(shift):
    for s1, s2 in _criterion_10_factors():
        base = free_product_multiplier(s1, s2)
        oracle = _Shifted(base, shift)
        fp = base.fp
        for seed in range(4):
            with pytest.raises(SimilarityFailure) as got:
                decompose(oracle, fp.g1, fp.g2, max_len=5, pairs=300, rng=random.Random(seed))
            with pytest.raises(SimilarityFailure) as ref:
                _decompose_ref(oracle.value, fp.g1, fp.g2, max_len=5, pairs=300, rng=random.Random(seed))
            assert got.value.pair == ref.value.pair


def test_decompose_round_trip(kleinz3):
    sigma = kleinz3
    result = decompose(sigma, sigma.fp.g1, sigma.fp.g2, max_len=6, pairs=400, rng=random.Random(10))
    assert result.pairs_checked == 400
    assert result.sigma1.values == sigma.sigma1.to_table().values
    assert result.sigma2.values == sigma.sigma2.to_table().values


def test_decompose_of_tau_succeeds_with_nontrivial_beta(kleinz3):
    sigma = kleinz3
    result = decompose(_TauOracle(sigma), sigma.fp.g1, sigma.fp.g2, max_len=5, pairs=300, rng=random.Random(11))
    rng = random.Random(12)
    assert any(bool(result.witness(sigma.fp.random_kernel_word(rng, 8))) for _ in range(300))


def test_decompose_trivial(kleinz3):
    fp = kleinz3.fp
    triv = free_product_multiplier(trivial_multiplier(fp.g1), trivial_multiplier(fp.g2))
    result = decompose(triv, fp.g1, fp.g2, max_len=5, pairs=200, rng=random.Random(13))
    rng = random.Random(14)
    assert all(not bool(result.witness(fp.random_word(rng, 6))) for _ in range(200))


def test_decompose_detects_non_free_product():
    # an oracle that is not similar to any free product of its restrictions:
    # corrupt the free product multiplier off the factor subgroups
    base = free_product_multiplier(trivial_multiplier(cyclic(2)), trivial_multiplier(cyclic(2)))
    corrupted = _Shifted(base, tk.rot("1/3"))

    with pytest.raises(SimilarityFailure):
        decompose(corrupted, base.fp.g1, base.fp.g2, max_len=5, pairs=300, rng=random.Random(15))


def _random_word_ref(fp, rng, max_len):
    """FreeProduct.random_word as it drew its letters before the letter tuples."""
    length = rng.randint(0, max_len)
    if length == 0:
        return ()
    factor = rng.choice((1, 2))
    letters = []
    for _ in range(length):
        g = fp.factor(factor)
        if g.order > 1:
            choices = [a for a in g.elements() if a != g.identity]
            letters.append((factor, rng.choice(choices)))
        factor = 3 - factor
    return tuple(letters)


@pytest.mark.parametrize("orders", [(3, 2), (6, 4), (1, 5)])
def test_random_word_draws_unchanged(orders):
    g1 = symmetric(3) if orders[0] == 6 else cyclic(orders[0])
    fp = FreeProduct(g1, cyclic(orders[1]))
    rng, ref = random.Random(sum(orders)), random.Random(sum(orders))
    assert [fp.random_word(rng, 7) for _ in range(200)] == [fp.word(_random_word_ref(fp, ref, 7)) for _ in range(200)]
    assert rng.getstate() == ref.getstate()


def test_beta_memo_matches_uncached(kleinz3):
    sigma = FreeProductMultiplier(kleinz3.sigma1, kleinz3.sigma2)
    rng = random.Random(16)
    words = [sigma.fp.random_kernel_word(rng, 8) if i % 2 else sigma.fp.random_word(rng, 8) for i in range(500)]
    assert any(any(sigma._beta_of(w)) for w in words)
    for w in words + words[::-1]:
        assert sigma._beta(w) == sigma._beta_of(w)


def test_beta_memo_stays_under_its_cap(kleinz3, monkeypatch):
    monkeypatch.setattr(freeprod, "BETA_MEMO", 8)
    sigma = FreeProductMultiplier(kleinz3.sigma1, kleinz3.sigma2)
    fresh = FreeProductMultiplier(kleinz3.sigma1, kleinz3.sigma2)
    rng = random.Random(17)
    for _ in range(300):
        x = sigma.fp.random_kernel_word(rng, 8)
        y = sigma.fp.random_word(rng, 6)
        assert sigma.vector(x, y) == fresh.vector(x, y)
        assert 0 < len(sigma._beta_memo) <= 8
        fresh._beta_memo.clear()


def _broken_z3():
    """Z3 with sigma(1, 1) = 1/3, all else 0: normalized, but not a cocycle."""
    values = [[ZERO] * 3 for _ in range(3)]
    values[1][1] = rot("1/3")
    return TableMultiplier(cyclic(3), values)


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("slot", [1, 2])
def test_broken_free_product_factor_refused(capsys, command, slot):
    broken = encode_multiplier(_broken_z3())
    other = encode_multiplier(trivial_multiplier(cyclic(2)))
    spec = {"type": "free_product", "sigma1": broken if slot == 1 else other, "sigma2": other if slot == 1 else broken}
    code = main([command, "--inline", json.dumps(spec), "--fuzz", "200"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"] == "not a multiplier"
    assert report["factor"] == slot
    assert report["reason"] == "cocycle identity"
    assert report["witness"] == [1, 1, 2]
    # re-check the witness in Fraction arithmetic on the Z3 table
    table = [[Fraction(str(v["rat"])) for v in row] for row in broken["values"]]
    a, b, c = report["witness"]
    assert (table[a][b] + table[(a + b) % 3][c] - table[a][(b + c) % 3] - table[b][c]) % 1 != 0

import random

import pytest

import twistk as tk
from twistk.freeprod import (
    FreeProduct,
    FreeProductMultiplier,
    NotInKernel,
    SimilarityFailure,
    commutator_word,
    decompose,
    expand_syllable,
    free_product_multiplier,
    reduce_pair,
    rewrite_to_X,
    xword_to_word,
)
from twistk.groups import cyclic
from twistk.multipliers import NotNormalized, normalize, trivial_multiplier, validate
from twistk.torus import ZERO


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
        z3z2.letter(1, 0)  # identity is not a letter
    with pytest.raises(ValueError):
        z3z2.check_word(((1, 1), (1, 2)))  # no alternation


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
        fp.check_word(fp.multiply(x, y))


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


def test_tau_branches(kleinz3):
    sigma = kleinz3
    s1 = sigma.sigma1
    assert sigma.tau((), ((2, 1),)) == ZERO
    assert sigma.tau(((1, 1),), ()) == ZERO
    # boundary letters in different factors
    assert sigma.tau(((1, 1),), ((2, 2),)) == ZERO
    # both boundary letters in factor 1: the factor cocycle value
    for a in range(1, 4):
        for b in range(1, 4):
            assert sigma.tau(((1, a),), ((1, b),)) == s1.value(a, b)


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


def test_beta_branches(kleinz3):
    sigma = kleinz3
    fp = sigma.fp
    assert sigma.beta(((1, 1),)) == ZERO  # not in the kernel
    w = commutator_word(fp, 1, 1)
    assert sigma.beta(w) == ZERO  # single syllable
    rng = random.Random(4)
    found_nonzero = False
    for _ in range(400):
        x = fp.random_kernel_word(rng, 8)
        if bool(sigma.beta(x)):
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
        lhs = sigma.tau(x, y) + sigma.tau(fp.multiply(x, y), z)
        rhs = sigma.tau(x, fp.multiply(y, z)) + sigma.tau(y, z)
        assert lhs == rhs


def test_module_level_helpers(kleinz3):
    # tau and beta depend only on the factor multipliers: a second
    # product built from the same factors gives the same values
    twin = FreeProductMultiplier(kleinz3.sigma1, kleinz3.sigma2)
    assert twin.tau(((1, 1),), ((1, 1),)) == kleinz3.tau(((1, 1),), ((1, 1),)) == kleinz3.sigma1.value(1, 1)
    w = commutator_word(kleinz3.fp, 1, 1)
    assert twin.beta(w) == kleinz3.beta(w) == ZERO


def test_decompose_round_trip(kleinz3):
    sigma = kleinz3
    result = decompose(sigma.value, sigma.fp.g1, sigma.fp.g2, max_len=6, pairs=400, rng=random.Random(10))
    assert result.pairs_checked == 400
    assert result.sigma1.values == sigma.sigma1.to_table().values
    assert result.sigma2.values == sigma.sigma2.to_table().values


def test_decompose_of_tau_succeeds_with_nontrivial_beta(kleinz3):
    sigma = kleinz3
    result = decompose(sigma.tau, sigma.fp.g1, sigma.fp.g2, max_len=5, pairs=300, rng=random.Random(11))
    rng = random.Random(12)
    assert any(bool(result.witness(sigma.fp.random_kernel_word(rng, 8))) for _ in range(300))


def test_decompose_trivial(kleinz3):
    fp = kleinz3.fp
    triv = free_product_multiplier(trivial_multiplier(fp.g1), trivial_multiplier(fp.g2))
    result = decompose(triv.value, fp.g1, fp.g2, max_len=5, pairs=200, rng=random.Random(13))
    rng = random.Random(14)
    assert all(not bool(result.witness(fp.random_word(rng, 6))) for _ in range(200))


def test_decompose_detects_non_free_product():
    # an oracle that is not similar to any free product of its restrictions:
    # corrupt the free product multiplier off the factor subgroups
    base = free_product_multiplier(trivial_multiplier(cyclic(2)), trivial_multiplier(cyclic(2)))

    def corrupted(x, y):
        v = base.value(x, y)
        if len(x) >= 2 and len(y) >= 2:
            return v + tk.rot("1/3")
        return v

    with pytest.raises(SimilarityFailure):
        decompose(corrupted, base.fp.g1, base.fp.g2, max_len=5, pairs=300, rng=random.Random(15))

"""Differential tests: the torus, g3 and free-product families on compiled
integer exponent vectors against the RotationNumber code they replaced.

The ``_*_ref`` functions below are that code, kept as references: the
values, the fuzz loop of ``validate``, ``is_regular_lattice`` and the
kernel witness of condition K.  Each test asserts equal values, reports
and witnesses, on random parameters (theta up to rank 32, an unsorted
basis, a declared label that no entry uses, an empty theta), on random
mu and on free products of ``tests/catalog.py`` tables.  Broken
subclasses make the fuzz loop fail, and a structural test pins that the
loops do no RotationNumber arithmetic.
"""

import json
import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import random_normalized_tables
from reference import mu_params, reduce_pair, scale, theta_entries

import twistk.cli
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
from twistk.multipliers import coboundary_twist, klein, normalize, trivial_multiplier, validate
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
            assert sigma._exponents.rotation(sigma._tau(x, y)) == _tau_ref(sigma, x, y)
            assert sigma.value(x, y) == _free_product_value_ref(sigma, x, y)


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


class _NonUnitalTorus(LatticeMultiplier):
    """sigma(a, e) = (a_1 + ... + a_n) / D: the identity row fails."""

    def vector(self, a, b):
        v = super().vector(a, b)
        return [v[0] + (0 if any(b) else sum(a)), *v[1:]]


def _broken():
    mu = MuMatrix({(1, 3): rot("1/6", {"s": 1}), (2, 2): rot(0, {"s": 1}), (1, 1): rot("1/4")}, IrrationalBasis(("s",)))
    g3 = _FlippedG3(mu)
    s1, s2 = normalize(klein(2, 1))[0], normalize(klein(3, 1))[0]
    fp = _ShiftedFreeProduct(s1, s2)
    D = fp.exponents().D
    theta = Theta(3, {(0, 1): rot("1/5", {"t": 1}), (1, 2): rot("2/3")}, IrrationalBasis(("t",)))
    torus = _NonUnitalTorus(theta)
    return {
        "g3": (g3, lambda a, b: _g3_value_ref(mu, a, b, sign=-1), "cocycle identity"),
        "free product": (fp, lambda x, y: _free_product_value_ref(fp, x, y) + rot(Fraction(len(x) * len(y) ** 2, D)), "cocycle identity"),
        "torus": (torus, lambda a, b: _torus_value_ref(theta, a, b) + rot(Fraction(0 if any(b) else sum(a), theta.exponents.D)), "identity row/column"),
    }


@pytest.mark.parametrize("family", ["g3", "free product", "torus"])
def test_broken_family_fails_like_reference(family):
    sigma, value, reason = _broken()[family]
    for seed in range(6):
        report = _same_fuzz(sigma, value, seed, 300, 3)
        assert not report.ok and report.reason == reason


@pytest.mark.parametrize("family", ["g3", "free product", "torus"])
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

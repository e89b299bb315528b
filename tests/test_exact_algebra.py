"""The exact twisted algebra against its term-by-term reference.

``convolve`` collects the terms of each coefficient once;
``convolve_ref`` (``tests/reference.py``) adds each pair's product into
a copy of the running sum.  They must give
the same coefficient terms on every multiplier of the finite catalog and
on the assembled product triples, for coefficients of 2 to 3 terms with
symbolic phases, and a coefficient whose terms cancel must be absent.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from catalog import finite_catalog, product_triples  # noqa: E402
from reference import convolve_ref  # noqa: E402

from twistk.algebra import AlgebraElement, PhaseSum, convolve
from twistk.groups import cyclic
from twistk.products import ProductMultiplier
from twistk.torus import rot

# a small pool, so that terms of one coefficient share phases and cancel
PHASES = [rot(Fraction(k, 6), {"t": Fraction(j, 2)} if j else None) for k in range(3) for j in (-1, 0, 1)]
MAGNITUDES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]


def _multipliers():
    yield from finite_catalog()
    for name, s1, s2, f in product_triples():
        yield f"product:{name}", ProductMultiplier(s1, s2, f)


def _coefficient(rng: random.Random) -> PhaseSum:
    terms = [(rng.choice(PHASES), rng.choice(MAGNITUDES)) for _ in range(rng.randint(2, 3))]
    return PhaseSum(terms)


def _element(group, rng: random.Random) -> AlgebraElement:
    support = rng.sample(range(group.order), min(group.order, rng.randint(1, 4)))
    return AlgebraElement(group, {a: _coefficient(rng) for a in support})


def _terms(element: AlgebraElement) -> dict:
    return {a: v.terms for a, v in element.coeffs.items()}


def _cancelling_pair(sigma, rng: random.Random) -> tuple[AlgebraElement, AlgebraElement, int]:
    """f, g and c with f(b1) g(d1) sigma(b1, d1) = -f(b2) g(d2) sigma(b2, d2)
    for the only two pairs with b d = c."""
    grp = sigma.group
    b1, b2 = rng.sample(range(grp.order), 2)
    c = rng.randrange(grp.order)
    d1, d2 = grp.mul(grp.inv(b1), c), grp.mul(grp.inv(b2), c)
    (p1, m1), (p2, m2) = [(rng.choice(PHASES), rng.choice(MAGNITUDES)) for _ in range(2)]
    q1 = _coefficient(rng)
    s1, s2 = sigma.value(b1, d1), sigma.value(b2, d2)
    q2 = PhaseSum((p1 + q + s1 - p2 - s2, -m1 * n / m2) for q, n in q1.terms.items())
    f = AlgebraElement(grp, {b1: PhaseSum.phase(p1, m1), b2: PhaseSum.phase(p2, m2)})
    return f, AlgebraElement(grp, {d1: q1, d2: q2}), c


def test_convolve_matches_the_term_by_term_reference():
    rng = random.Random(2020)
    cancelled = 0
    for name, sigma in _multipliers():
        grp = sigma.group
        for _ in range(6):
            f, g = _element(grp, rng), _element(grp, rng)
            got = convolve(sigma, f, g)
            assert _terms(got) == convolve_ref(sigma, f, g), name
            assert all(got.coeffs.values()), name
        if grp.order < 2:
            continue
        f, g, c = _cancelling_pair(sigma, rng)
        got = convolve(sigma, f, g)
        assert c not in got.coeffs and got.coeff(c) == PhaseSum.zero(), name
        assert _terms(got) == convolve_ref(sigma, f, g), name
        cancelled += 1
    assert cancelled > 50


def test_phase_sums_cancel_to_nothing():
    x, y = PHASES[1], PHASES[5]
    s = PhaseSum([(x, Fraction(1)), (y, Fraction(2)), (x, Fraction(-1))])
    assert s.terms == {y: Fraction(2)} and s
    cancelled = PhaseSum([(y, Fraction(2)), (x, Fraction(1)), (y, Fraction(-2)), (x, Fraction(-1))])
    assert cancelled.terms == {} and not cancelled and cancelled == PhaseSum.zero()
    assert AlgebraElement(cyclic(2), {0: cancelled, 1: s}).coeffs == {1: s}

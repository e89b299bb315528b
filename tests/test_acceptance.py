"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible
with `pytest -s`).  Exact checks are structural equality on rotation
numbers (zero tolerance); the numeric center oracle runs at 1e-8 with
its enforced singular-value gap; timed criteria assert their budgets.
"""

import random
import sys
import time
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from catalog import assemble, finite_catalog, klein_catalog, product_triples, random_normalized_tables
from reference import check_sigma_tilde, regularity_identity_check

import twistk as tk
from twistk.algebra import AlgebraElement, PhaseSum, center_dimension_numeric, convolve, trace
from twistk.freeprod import decompose, rewrite_to_X, xword_to_word
from twistk.lattices import (
    G3_IDENTITY,
    G3Multiplier,
    MuMatrix,
    Theta,
    condition_k_lattice,
    g3_central_phase,
    g3_inverse,
    g3_multiply,
    is_regular_lattice,
    qtheta_dimension,
)
from twistk.multipliers import normalize, trivial_multiplier, validate
from twistk.products import f_degeneracy, two_of_three
from twistk.regularity import center_basis, condition_k, regular_classes
from twistk.torus import ZERO, IrrationalBasis, rot

NUMERIC_TOL = 1e-8


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")


def test_criterion_01_klein_condition_k_law():
    start = time.monotonic()
    violations = []
    for n in range(2, 7):
        for k in range(n):
            got = condition_k(tk.klein(n, k))
            expected = gcd(k, n) == 1
            if got != expected:
                violations.append((n, k, got))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 10.0
    _line(1, ok, f"condition K on the cyclic-square family iff gcd(k,n)=1 ({elapsed:.2f}s)")
    assert not violations, violations
    assert elapsed < 10.0


def test_criterion_02_matrix_algebra_identification():
    violations = []
    for n in range(2, 7):
        for k in range(n):
            if gcd(k, n) != 1:
                continue
            sigma = tk.klein(n, k)
            combinatorial = sum(1 for _, flag in regular_classes(sigma).classes if flag)
            numeric = center_dimension_numeric(sigma, tol=NUMERIC_TOL)
            got = tk.identify_matrix_algebra(sigma.group.order, numeric)
            if (combinatorial, numeric, got) != (1, 1, n):
                violations.append((n, k, combinatorial, numeric, got))
    ok = not violations
    _line(2, ok, "coprime cases identified as full n x n matrix algebras (tol 1e-8, gap >= 10)")
    assert not violations, violations


def test_criterion_03_center_oracle_agreement():
    violations = []
    entries = klein_catalog() + random_normalized_tables(24)
    assert sum(1 for _, s in entries if s.group.order <= 12) >= 20
    for name, sigma in entries:
        combinatorial = sum(1 for _, flag in regular_classes(sigma).classes if flag)
        numeric = center_dimension_numeric(sigma, tol=NUMERIC_TOL)
        if combinatorial != numeric:
            violations.append((name, combinatorial, numeric))
    ok = not violations
    _line(3, ok, f"combinatorial vs numeric center dimension on {len(entries)} instances")
    assert not violations, violations


def test_criterion_04_center_elements_commute_exactly():
    violations = []
    for name, sigma in finite_catalog():
        g = sigma.group
        for elem in center_basis(sigma):
            for a in g.elements():
                delta = AlgebraElement.delta(g, a)
                if convolve(sigma, delta, elem) != convolve(sigma, elem, delta):
                    violations.append((name, a))
    ok = not violations
    _line(4, ok, "every center basis element commutes with every lambda(a), zero tolerance")
    assert not violations, violations


def test_criterion_05_phase_identities_exhaustive():
    violations = []
    for name, sigma in finite_catalog():
        witness = check_sigma_tilde(sigma)
        if witness is not None:
            violations.append(("sigma-tilde", name, witness))
    for name, s1, s2, f in product_triples():
        sigma = assemble(s1, s2, f)
        g = sigma.group
        for a in g.elements():
            for b in g.elements():
                if not regularity_identity_check(sigma, a, b):
                    violations.append(("product-identity", name, (a, b)))
    ok = not violations
    _line(5, ok, "conjugation and product phase identities, exhaustive on the finite catalogs")
    assert not violations, violations


def test_criterion_06_torus_laws():
    start = time.monotonic()
    violations = []
    t_basis = IrrationalBasis(("t",))

    # rank 2: condition K iff the single entry is irrational
    for p, q in ((1, 2), (2, 5), (3, 7), (5, 6), (0, 1), (4, 9), (7, 10), (1, 12), (9, 11), (3, 4)):
        theta = Theta(2, {(0, 1): rot(Fraction(p, q))})
        decision = condition_k_lattice(theta)
        regular_witness = decision.witness is not None and any(decision.witness) and is_regular_lattice(theta, decision.witness)
        if decision.condition_k or not regular_witness:
            violations.append(("z2-rational", (p, q)))
    for coeff in (1, -1, 2, 3, -2, 5, 7, -3, 4, 6):
        for extra in (Fraction(0), Fraction(1, 3), Fraction(2, 7)):
            theta = Theta(2, {(0, 1): rot(extra, {"t": Fraction(coeff)})}, t_basis)
            if not condition_k_lattice(theta).condition_k:
                violations.append(("z2-irrational", (coeff, extra)))

    # rank 3: condition K iff dim Q_theta in {3, 4}
    rng = random.Random(600)
    b2 = IrrationalBasis(("s", "u"))
    b3 = IrrationalBasis(("s", "u", "v"))
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    while min(counts.values()) < 10:
        target = min(counts, key=counts.get)
        q = lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        nz = lambda: Fraction(rng.choice([x for x in range(-3, 4) if x]))
        if target == 1:
            theta = Theta(3, {(0, 1): rot(q()), (0, 2): rot(q()), (1, 2): rot(q())})
        elif target == 2:
            theta = Theta(
                3,
                {(0, 1): rot(q(), {"s": nz()}), (0, 2): rot(q(), {"s": q()}), (1, 2): rot(q(), {"s": q()})},
                b2,
            )
        elif target == 3:
            theta = Theta(
                3,
                {(0, 1): rot(q(), {"s": nz()}), (0, 2): rot(q(), {"u": nz()}),
                 (1, 2): rot(q(), {"s": q(), "u": q()})},
                b2,
            )
        else:
            theta = Theta(
                3,
                {(0, 1): rot(q(), {"s": nz()}), (0, 2): rot(q(), {"u": nz()}), (1, 2): rot(q(), {"v": nz()})},
                b3,
            )
        dim = qtheta_dimension(theta)
        if dim != target:
            continue
        counts[dim] += 1
        if condition_k_lattice(theta).condition_k != (dim in (3, 4)):
            violations.append(("z3-law", theta.to_json()["theta"], dim))

    # rank 4, both reference configurations
    th_pairs = Theta(4, {(0, 1): rot(0, {"t": 1}), (2, 3): rot(0, {"t": 1})}, t_basis)
    if not condition_k_lattice(th_pairs).condition_k:
        violations.append(("z4-disjoint", None))
    th_chain = Theta(
        4,
        {(0, 1): rot(0, {"t": 1}), (1, 2): rot(0, {"t": 1}), (2, 3): rot(0, {"t": 1}),
         (0, 3): rot(1, {"t": -1})},
        t_basis,
    )
    chain_decision = condition_k_lattice(th_chain)
    if chain_decision.condition_k or not is_regular_lattice(th_chain, (1, 1, 1, 1)):
        violations.append(("z4-chain", chain_decision))
    if not is_regular_lattice(th_chain, chain_decision.witness):
        violations.append(("z4-chain-witness", chain_decision.witness))

    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 5.0
    _line(6, ok, f"rank-2/3/4 torus condition-K laws, all instances exact ({elapsed:.2f}s)")
    assert not violations, violations
    assert elapsed < 5.0


def _random_theta(n, rng, basis):
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            kind = rng.randrange(3)
            if kind == 0:
                entries[(i, j)] = rot(Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)))
            elif kind == 1:
                entries[(i, j)] = rot(0, {rng.choice(basis.labels): Fraction(rng.randrange(-3, 4))})
            else:
                entries[(i, j)] = rot(
                    Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)),
                    {lbl: Fraction(rng.randrange(-2, 3)) for lbl in basis.labels},
                )
    return Theta(n, entries, basis)


def test_criterion_07_lattice_decision_vs_brute_force():
    rng = random.Random(700)
    basis = IrrationalBasis(("t", "u"))
    violations = []
    box = 3
    total = 0
    for n in (2, 3, 4):
        for _ in range(34):
            theta = _random_theta(n, rng, basis)
            total += 1
            decision = condition_k_lattice(theta)
            found = next(
                (
                    a
                    for a in product(range(-box, box + 1), repeat=n)
                    if any(a) and is_regular_lattice(theta, a)
                ),
                None,
            )
            if decision.condition_k:
                if found is not None:
                    violations.append((theta.to_json()["theta"], "claimed K but box found", found))
            else:
                if not is_regular_lattice(theta, decision.witness):
                    violations.append((theta.to_json()["theta"], "witness not regular", decision.witness))
    ok = not violations and total >= 100
    _line(7, ok, f"lattice decision vs box scan (B={box}) on {total} random instances")
    assert total >= 100
    assert not violations, violations[:3]


def _random_mu(rng, basis):
    mu = {}
    for key in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        if rng.random() < 0.5:
            mu[key] = rot(
                Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
                {rng.choice(basis.labels): Fraction(rng.randrange(-2, 3))},
            )
        else:
            mu[key] = rot(Fraction(rng.randrange(-5, 6), rng.randrange(1, 6)))
    return MuMatrix(mu, basis)


def test_criterion_08_g3_family():
    rng = random.Random(800)
    violations = []

    for _ in range(10000):
        a = tuple(rng.randint(-5, 5) for _ in range(6))
        b = tuple(rng.randint(-5, 5) for _ in range(6))
        c = tuple(rng.randint(-5, 5) for _ in range(6))
        if g3_multiply(g3_multiply(a, b), c) != g3_multiply(a, g3_multiply(b, c)):
            violations.append(("assoc", a, b, c))
        if g3_multiply(a, g3_inverse(a)) != G3_IDENTITY:
            violations.append(("inverse", a))

    basis = IrrationalBasis(("t", "u"))
    mus = [_random_mu(rng, basis) for _ in range(10)]
    per_mu = 1000
    for mu in mus:
        sigma = G3Multiplier(mu)
        report = validate(sigma, rng=rng, triples=per_mu, box=3)
        if not report.ok:
            violations.append(("cocycle", mu.to_json(), report.witness))

    false_count = true_count = 0
    for _ in range(60):
        mu = _random_mu(rng, basis)
        decision = tk.g3_condition_k(mu)  # internally re-verifies false witnesses
        if decision.condition_k:
            true_count += 1
            if true_count <= 6:
                for c in product(range(-2, 3), repeat=3):
                    if any(c) and all(
                        g3_central_phase(mu, tuple(int(j == i) for j in range(3)) + (0, 0, 0), c).is_integral()
                        for i in range(3)
                    ):
                        violations.append(("false-negative", mu.to_json(), c))
        else:
            false_count += 1
            for _ in range(25):
                a = tuple(rng.randint(-4, 4) for _ in range(6))
                if not g3_central_phase(mu, a, decision.witness).is_integral():
                    violations.append(("bad-witness", mu.to_json(), decision.witness, a))
    ok = not violations and false_count > 0 and true_count > 0
    _line(8, ok, f"rank-3 nilpotent family: axioms, cocycle fuzz, decisions ({false_count} false / {true_count} true)")
    assert false_count and true_count
    assert not violations, violations[:3]


def test_criterion_09_product_degeneracy_equivalence():
    triples = product_triples()
    assert len(triples) >= 50
    violations = []
    for name, s1, s2, f in triples:
        sigma = assemble(s1, s2, f)
        if f_degeneracy(s1, s2, f).nondegenerate != condition_k(sigma):
            violations.append(("equivalence", name))
        for a in sigma.group.elements():
            two_of_three(sigma, a)  # LemmaViolation would escape and fail the test
    ok = not violations
    _line(9, ok, f"product degeneracy criterion == condition K on {len(triples)} triples; lemma audit clean")
    assert not violations, violations


def test_criterion_10_free_product_suite():
    start = time.monotonic()
    rng = random.Random(1000)
    violations = []

    z2 = trivial_multiplier(tk.cyclic(2))
    z3 = trivial_multiplier(tk.cyclic(3))
    v4k = normalize(tk.klein(2, 1))[0]
    t9k = normalize(tk.klein(3, 1))[0]
    factor_pairs = [("Z2*Z3", z2, z3), ("V4k*Z2", v4k, z2), ("T9k*Z3", t9k, z3), ("V4k*T9k", v4k, t9k)]

    for name, s1, s2 in factor_pairs:
        sigma = tk.free_product_multiplier(s1, s2)
        fp = sigma.fp

        for _ in range(2500):
            x = fp.random_word(rng, 6)
            y = fp.random_word(rng, 6)
            z = fp.random_word(rng, 6)
            lhs = sigma.value(x, y) + sigma.value(fp.multiply(x, y), z)
            rhs = sigma.value(x, fp.multiply(y, z)) + sigma.value(y, z)
            if lhs != rhs:
                violations.append((name, "cocycle", x, y, z))

        for _ in range(250):
            x = fp.random_word(rng, 6)
            if not sigma.value(x, fp.inverse(x)).is_integral():
                violations.append((name, "normalization", x))

        for factor, s in ((1, s1), (2, s2)):
            g = s.group
            for a in g.elements():
                for b in g.elements():
                    if a == g.identity or b == g.identity:
                        continue
                    if sigma.value(((factor, a),), ((factor, b),)) != s.value(a, b):
                        violations.append((name, "restriction", factor, a, b))

        for _ in range(250):
            x = fp.random_kernel_word(rng, 8)
            y = fp.random_kernel_word(rng, 8)
            if not sigma.value(x, y).is_integral():
                violations.append((name, "commutator-subgroup", x, y))

        for _ in range(250):
            x = fp.random_kernel_word(rng, 8)
            if xword_to_word(fp, rewrite_to_X(fp, x)) != x:
                violations.append((name, "rewrite", x))

        decompose(sigma, fp.g1, fp.g2, max_len=6, pairs=250, rng=rng)

    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 60.0
    _line(10, ok, f"free product suite over 4 factor pairs ({elapsed:.1f}s)")
    assert not violations, violations[:3]
    assert elapsed < 60.0


def _random_exact_element(group, rng):
    support = rng.sample(range(group.order), min(group.order, rng.randint(1, 4)))
    return AlgebraElement(
        group,
        {
            a: PhaseSum.phase(
                rot(Fraction(rng.randrange(12), 12)),
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
            )
            for a in support
        },
    )


def test_criterion_11_trace_symmetry():
    rng = random.Random(1100)
    violations = []
    for name, sigma in finite_catalog():
        g = sigma.group
        for _ in range(1000):
            f = _random_exact_element(g, rng)
            h = _random_exact_element(g, rng)
            if trace(convolve(sigma, f, h)) != trace(convolve(sigma, h, f)):
                violations.append((name, f.coeffs, h.coeffs))
                break
    ok = not violations
    _line(11, ok, "trace symmetry phi(f*g) = phi(g*f), 1000 exact pairs per catalog entry")
    assert not violations, violations[:1]

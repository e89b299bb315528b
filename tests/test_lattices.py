import json
import random
from fractions import Fraction
from itertools import product

import pytest

from reference import scale

from twistk.cli import main
from twistk.lattices import (
    G3_IDENTITY,
    G3Multiplier,
    LatticeMultiplier,
    MuMatrix,
    RankMismatch,
    Theta,
    condition_k_lattice,
    g3_central_phase,
    g3_condition_k,
    g3_inverse,
    g3_multiply,
    g3_value,
    is_regular_lattice,
    qtheta_dimension,
    torus_value,
)
from twistk.multipliers import validate
from twistk.torus import ZERO, IrrationalBasis, UnknownSymbol, rot

T = IrrationalBasis(("t",))
TU = IrrationalBasis(("t", "u"))


def random_theta(n, rng, basis=TU):
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


def brute_force_regular_vector(theta, box=3):
    """Search of the box for a nonzero regular vector (the slow oracle)."""
    for a in product(range(-box, box + 1), repeat=theta.n):
        if any(a) and is_regular_lattice(theta, a):
            return a
    return None


def test_torus_value_examples():
    th = Theta(2, {(0, 1): rot(0, {"t": 1})}, T)
    assert torus_value(th, (0, 0), (5, 7)) == ZERO
    assert torus_value(th, (1, 0), (0, 1)) == rot(0, {"t": 1})
    th3 = Theta(2, {(0, 1): rot("1/3")})
    assert torus_value(th3, (2, 0), (0, 2)) == rot("1/3")  # 4/3 mod 1


def test_rank_mismatch():
    th = Theta(2, {(0, 1): rot("1/3")})
    with pytest.raises(RankMismatch):
        torus_value(th, (1, 0, 0), (0, 1))
    with pytest.raises(ValueError):
        Theta(2, {(1, 0): rot("1/3")})
    with pytest.raises(UnknownSymbol):
        Theta(2, {(0, 1): rot(0, {"zz": 1})}, T)


def test_paper_z4_vector_is_regular():
    th = Theta(
        4,
        {
            (0, 1): rot(0, {"t": 1}),
            (1, 2): rot(0, {"t": 1}),
            (2, 3): rot(0, {"t": 1}),
            (0, 3): rot(1, {"t": -1}),
        },
        T,
    )
    assert is_regular_lattice(th, (1, 1, 1, 1))
    rng = random.Random(1)
    for _ in range(100):
        b = tuple(rng.randint(-5, 5) for _ in range(4))
        assert torus_value(th, (1, 1, 1, 1), b) == torus_value(th, b, (1, 1, 1, 1))
    decision = condition_k_lattice(th)
    assert not decision.condition_k
    assert is_regular_lattice(th, decision.witness)


def test_z4_disjoint_irrational_pairs_satisfies_k():
    th = Theta(4, {(0, 1): rot(0, {"t": 1}), (2, 3): rot(0, {"t": 1})}, T)
    assert condition_k_lattice(th).condition_k
    assert brute_force_regular_vector(th) is None


def test_regularity_matches_standard_basis_phases():
    rng = random.Random(2)
    for _ in range(60):
        theta = random_theta(rng.randrange(1, 5), rng)
        a = tuple(rng.randint(-3, 3) for _ in range(theta.n))
        units = [tuple(int(i == j) for i in range(theta.n)) for j in range(theta.n)]
        basis_check = all(torus_value(theta, a, e) == torus_value(theta, e, a) for e in units)
        assert is_regular_lattice(theta, a) == basis_check


def test_condition_k_z2():
    rational = Theta(2, {(0, 1): rot("2/5")})
    decision = condition_k_lattice(rational)
    assert not decision.condition_k
    assert decision.witness == (5, 0)
    assert is_regular_lattice(rational, decision.witness)

    irrational = Theta(2, {(0, 1): rot(0, {"t": 1})}, T)
    assert condition_k_lattice(irrational).condition_k

    mixed = Theta(2, {(0, 1): rot("1/3", {"t": "1/2"})}, T)
    assert condition_k_lattice(mixed).condition_k


def test_qtheta_dimension():
    assert qtheta_dimension(Theta(3, {(0, 1): rot("1/3"), (0, 2): rot("5/7")})) == 1
    assert qtheta_dimension(Theta(3, {(0, 1): rot(0, {"t": 1})}, T)) == 2
    b3 = IrrationalBasis(("s", "u", "v"))
    full = Theta(3, {(0, 1): rot(0, {"s": 1}), (0, 2): rot(0, {"u": 1}), (1, 2): rot(0, {"v": 1})}, b3)
    assert qtheta_dimension(full) == 4
    with pytest.raises(RankMismatch):
        qtheta_dimension(Theta(2, {(0, 1): rot("1/3")}))


def test_z3_law_on_constructed_instances():
    rng = random.Random(3)
    b2 = IrrationalBasis(("s", "u"))

    def make(dim):
        q = lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        nz = lambda: Fraction(rng.choice([x for x in range(-3, 4) if x]))
        if dim == 1:
            vals = [rot(q()), rot(q()), rot(q())]
        elif dim == 2:
            vals = [rot(q(), {"s": nz()}), rot(q(), {"s": q()}), rot(q(), {"s": q()})]
        elif dim == 3:
            vals = [rot(q(), {"s": nz()}), rot(q(), {"u": nz()}),
                    rot(q(), {"s": q(), "u": q()})]
        else:
            b3 = IrrationalBasis(("s", "u", "v"))
            return Theta(3, {(0, 1): rot(q(), {"s": nz()}), (0, 2): rot(q(), {"u": nz()}),
                             (1, 2): rot(q(), {"v": nz()})}, b3), 4
        theta = Theta(3, {(0, 1): vals[0], (0, 2): vals[1], (1, 2): vals[2]}, b2)
        return theta, qtheta_dimension(theta)

    for dim in (1, 2, 3, 4):
        for _ in range(12):
            theta, actual = make(dim)
            if actual != dim:
                continue  # random degenerate draw; the law is tested on the actual dim
            decision = condition_k_lattice(theta)
            assert decision.condition_k == (actual in (3, 4)), (theta.to_json()["theta"], actual)


def test_decision_vs_brute_force_small():
    rng = random.Random(4)
    for _ in range(40):
        theta = random_theta(rng.randrange(1, 4), rng)
        decision = condition_k_lattice(theta)
        found = brute_force_regular_vector(theta, box=3)
        if decision.condition_k:
            assert found is None
        else:
            assert is_regular_lattice(theta, decision.witness)


def test_lattice_multiplier_validates():
    rng = random.Random(5)
    theta = random_theta(3, rng)
    sigma = LatticeMultiplier(theta)
    report = validate(sigma, rng=random.Random(0), triples=400, box=4)
    assert report.ok and report.mode == "fuzz"


# -- the rank-3 nilpotent family ------------------------------------------------


def test_g3_multiplication_example():
    assert g3_multiply((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)) == (1, 1, 0, 1, 0, 0)
    assert g3_multiply((1, 2, 3, 4, 5, 6), G3_IDENTITY) == (1, 2, 3, 4, 5, 6)


def test_g3_group_axioms_random():
    rng = random.Random(6)
    for _ in range(500):
        a = tuple(rng.randint(-5, 5) for _ in range(6))
        b = tuple(rng.randint(-5, 5) for _ in range(6))
        c = tuple(rng.randint(-5, 5) for _ in range(6))
        assert g3_multiply(g3_multiply(a, b), c) == g3_multiply(a, g3_multiply(b, c))
        assert g3_multiply(a, g3_inverse(a)) == G3_IDENTITY
        assert g3_multiply(g3_inverse(a), a) == G3_IDENTITY


def random_mu(rng, with_irrational=True):
    basis = TU if with_irrational else IrrationalBasis(())
    mu = {}
    for key in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        if with_irrational and rng.random() < 0.5:
            mu[key] = rot(
                Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
                {rng.choice(basis.labels): Fraction(rng.randrange(-2, 3))},
            )
        else:
            mu[key] = rot(Fraction(rng.randrange(-5, 6), rng.randrange(1, 6)))
    return MuMatrix(mu, basis)


def test_mu_matrix_derived_row():
    mu = MuMatrix({(1, 3): rot("1/3"), (2, 2): rot("1/4")})
    assert mu.row_matrix()[2][0] == rot("1/4") - rot("1/3")
    with pytest.raises(ValueError):
        MuMatrix({(3, 1): rot("1/2")})
    with pytest.raises(ValueError):
        MuMatrix({(4, 4): rot("1/2")})


def test_g3_value_identity_slots():
    rng = random.Random(7)
    mu = random_mu(rng)
    for _ in range(50):
        a = tuple(rng.randint(-4, 4) for _ in range(6))
        assert g3_value(mu, a, G3_IDENTITY) == ZERO
        assert g3_value(mu, G3_IDENTITY, a) == ZERO


def test_g3_cocycle_identity_fuzz():
    rng = random.Random(8)
    for _ in range(5):
        mu = random_mu(rng)
        sigma = G3Multiplier(mu)
        report = validate(sigma, rng=random.Random(9), triples=400, box=3)
        assert report.ok, report.witness


def test_g3_central_phase_reproduces_criterion_rows():
    rng = random.Random(10)
    for _ in range(30):
        mu = random_mu(rng)
        rows = mu.row_matrix()
        c = tuple(rng.randint(-4, 4) for _ in range(3))
        for i in range(3):
            probe = tuple(int(j == i) for j in range(3)) + (0, 0, 0)
            expected = sum((scale(rows[i][j], c[j]) for j in range(3) if c[j]), ZERO)
            assert g3_central_phase(mu, probe, c) == expected


def test_g3_condition_k_examples():
    assert not g3_condition_k(MuMatrix({})).condition_k
    assert g3_condition_k(MuMatrix({})).witness == (1, 0, 0)
    rng = random.Random(11)
    rational = random_mu(rng, with_irrational=False)
    decision = g3_condition_k(rational)
    assert not decision.condition_k

    diag = MuMatrix(
        {(1, 1): rot(0, {"t": 1}), (2, 2): rot(0, {"t": 1}), (3, 3): rot(0, {"t": 1})}, T
    )
    assert g3_condition_k(diag).condition_k


def test_g3_condition_k_false_witness_is_centrally_regular():
    rng = random.Random(12)
    checked = 0
    while checked < 15:
        mu = random_mu(rng)
        decision = g3_condition_k(mu)
        if decision.condition_k:
            continue
        checked += 1
        for _ in range(30):
            a = tuple(rng.randint(-4, 4) for _ in range(6))
            assert g3_central_phase(mu, a, decision.witness).is_integral()


def test_g3_condition_k_true_matches_box_scan():
    rng = random.Random(13)
    checked = 0
    while checked < 8:
        mu = random_mu(rng)
        if not g3_condition_k(mu).condition_k:
            continue
        checked += 1
        for c in product(range(-2, 3), repeat=3):
            if not any(c):
                continue
            # some probe must expose a non-integral phase
            assert any(
                not g3_central_phase(mu, tuple(int(j == i) for j in range(3)) + (0, 0, 0), c).is_integral()
                for i in range(3)
            )


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "torus", "n": 2, "theta": {"1,2": {"irr": {"t": "1"}}}, "basis": ["t"]},
        {"type": "g3", "mu": {"11": {"irr": {"t": "1"}}}, "basis": ["t"]},
    ],
    ids=["torus", "g3"],
)
def test_a_witness_that_fails_the_recheck_raises(spec, monkeypatch):
    # e_1 lies outside the symbol kernel of both (M^T e_1 and R e_1 each
    # have a component t), so a kernel that returns it must be refused
    monkeypatch.setattr("twistk.lattices.integer_kernel", lambda rows, ncols: [[1] + [0] * (ncols - 1)])
    with pytest.raises(RuntimeError, match="fails the regularity re-check"):
        main(["condition-k", "--inline", json.dumps(spec)])


def _random_spec(kind: str, rng: random.Random) -> dict:
    """A torus or g3 spec over some of the symbols s, t, u, some of whose
    coefficients are 0, so that a declared symbol may get no slot."""
    labels = rng.sample(["s", "t", "u"], rng.randrange(4))

    def entry():
        irr = {label: str(rng.randrange(-2, 3)) for label in labels if rng.random() < 0.6}
        return {"rat": f"{rng.randrange(-5, 6)}/{rng.randrange(1, 7)}", "irr": irr}

    if kind == "torus":
        n = rng.randrange(1, 7)
        theta = {f"{i + 1},{j + 1}": entry() for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6}
        return {"type": "torus", "n": n, "theta": theta, "basis": labels}
    keys = ("11", "12", "13", "21", "22", "23", "32", "33")
    return {"type": "g3", "mu": {key: entry() for key in keys if rng.random() < 0.6}, "basis": labels}


def test_unused_label_changes_no_report(capsys):
    # a basis label that no entry uses gets no slot and stacks nothing into
    # the Hermite form: the condition-k report bytes are the same wherever
    # it is declared
    rng = random.Random(26)
    witnesses = 0
    for kind in ("torus", "g3") * 80:
        spec = _random_spec(kind, rng)
        assert main(["condition-k", "--inline", json.dumps(spec)]) == 0, spec
        report = capsys.readouterr().out
        witnesses += json.loads(report)["witness"] is not None
        basis = spec["basis"]
        for at in {0, len(basis) // 2, len(basis)}:
            wider = {**spec, "basis": basis[:at] + ["unused"] + basis[at:]}
            assert main(["condition-k", "--inline", json.dumps(wider)]) == 0, wider
            assert capsys.readouterr().out == report, wider
    assert 40 < witnesses < 120  # both answers occur

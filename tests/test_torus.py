import random
from fractions import Fraction

import pytest

from reference import evaluate, halve, scale

from twistk.torus import ZERO, IrrationalBasis, MissingHint, RotationNumber, UnknownSymbol, rot

HALF = rot("1/2")


def test_add_examples():
    assert rot("1/3") + rot("1/3") == rot("2/3")
    assert rot("1/2", {"t": 1}) + rot("3/4", {"t": -1}) == rot("1/4")
    x = rot("2/7", {"u": Fraction(3, 5)})
    assert ZERO + x == x


def test_negate_scale_halve():
    assert -rot("1/3") == rot("2/3")
    assert scale(rot("1/4", {"t": 1}), 4) == rot(0, {"t": 4})
    assert halve(HALF) == rot("1/4")
    assert halve(rot("3/4", {"t": "1/3"})) == rot("3/8", {"t": "1/6"})


def test_scale_requires_integer():
    with pytest.raises(TypeError):
        scale(rot("1/3"), Fraction(1, 2))


def test_is_integral():
    assert ZERO.is_integral()
    assert not HALF.is_integral()
    assert not rot(0, {"t12": 1, "t34": -1}).is_integral()
    assert rot(3).is_integral()


def test_evaluate():
    assert abs(evaluate(rot("1/4")) - 1j) < 1e-12
    assert abs(evaluate(HALF) + 1) < 1e-12
    with pytest.raises(MissingHint) as info:
        evaluate(rot("1/4", {"u": 1, "t": 2}))
    assert info.value.args == ("t",)


def test_unit_modulus():
    rng = random.Random(0)
    for _ in range(200):
        x = rot(Fraction(rng.randrange(-40, 40), rng.randrange(1, 12)))
        assert abs(abs(evaluate(x)) - 1) < 1e-12


def test_group_laws_random():
    rng = random.Random(1)

    def rand():
        return rot(
            Fraction(rng.randrange(-30, 30), rng.randrange(1, 10)),
            {lbl: Fraction(rng.randrange(-4, 5)) for lbl in ("s", "t") if rng.random() < 0.7},
        )

    for _ in range(300):
        x, y, z = rand(), rand(), rand()
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert (x + (-x)).is_integral()
        assert x - y == x + (-y)


def test_canonical_form_unique():
    a = RotationNumber(Fraction(7, 3), {"t": Fraction(2, 4), "u": Fraction(0)})
    b = RotationNumber(Fraction(1, 3), (("t", Fraction(1, 2)),))
    assert a == b
    assert hash(a) == hash(b)
    assert a.rat == Fraction(1, 3)
    assert a.coeffs == (("t", Fraction(1, 2)),)


def test_scale_by_denominator_is_integral():
    rng = random.Random(2)
    for _ in range(100):
        q = rng.randrange(1, 30)
        x = rot(Fraction(rng.randrange(-50, 50), q))
        assert scale(x, x.rat.denominator).is_integral()


def test_double_halve_identity():
    for raw in ("0", "1/2", "3/7", "9/10"):
        x = rot(raw, {"t": Fraction(5, 3)})
        assert scale(halve(x), 2) == x


def test_json_round_trip():
    x = rot("5/6", {"t12": Fraction(-2, 3), "u": 4})
    data = x.to_json()
    assert data["rat"] == "5/6"
    assert RotationNumber.from_json(data) == x
    assert RotationNumber.from_json({"rat": "1/2"}) == HALF


def test_basis_validation():
    basis = IrrationalBasis(("t12", "t13"))
    basis.check_labels(["t13"])
    with pytest.raises(UnknownSymbol):
        basis.check_labels(["t12", "zzz"])
    with pytest.raises(ValueError):
        IrrationalBasis(("t", "t"))

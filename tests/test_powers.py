"""One square-and-multiply loop, gf.binary_power, behind every ** on ring
elements: exact product counts for MultiPoly and MotivicValue."""

import pytest

from wildmckay.gf import binary_power
from wildmckay.invariant_rings import MultiPoly
from wildmckay.motivic import L, MotivicValue


def bases():
    x, y = MultiPoly.gens(5, ("x", "y"))
    return {
        "MultiPoly": (x + 2 * y, MultiPoly.constant(5, ("x", "y"), 1)),
        "MotivicValue": (L + 2, MotivicValue.one()),
    }


@pytest.mark.parametrize("kind", ["MultiPoly", "MotivicValue"])
@pytest.mark.parametrize("n", [1, 2, 3, 31, 32])
def test_power_takes_no_wasted_product(monkeypatch, kind, n):
    base, one = bases()[kind]
    want = base
    for _ in range(n - 1):
        want = want * base
    cls = type(base)
    mul = cls.__mul__
    squares, products = [], []

    def counting(a, b):
        (squares if a is b else products).append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    got = base ** n
    assert len(squares) == n.bit_length() - 1
    assert len(products) == bin(n).count("1") - 1
    assert got == want
    assert base ** 0 == one


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        binary_power(3, -1, 1)
    assert binary_power(3, 0, 1) == 1
    assert [binary_power(3, n, 1) for n in range(1, 9)] == [3 ** n for n in range(1, 9)]

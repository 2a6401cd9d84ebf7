"""One square-and-multiply loop, gf.binary_power, behind every ** on ring
elements and every residue power in gf: exact product counts for
MultiPoly, MotivicValue and a product function.  MultiPoly over F_5
powers one stretched base per base-5 digit of the exponent."""

import pytest

from wildmckay.gf import binary_power
from wildmckay.invariant_rings import MultiPoly
from wildmckay.motivic import L, MotivicValue


P = 5


def expected_counts(kind: str, n: int) -> tuple[int, int]:
    """(squares, other products) of base ** n: binary_power on each digit,
    and one product to join each further nonzero digit."""
    digits = [n // P ** i % P for i in range(n.bit_length())] if kind == "MultiPoly" else [n]
    digits = [d for d in digits if d]
    squares = sum(d.bit_length() - 1 for d in digits)
    return squares, sum(bin(d).count("1") - 1 for d in digits) + len(digits) - 1


def bases():
    x, y = MultiPoly.gens(P, ("x", "y"))
    return {
        "MultiPoly": (x + 2 * y, MultiPoly.constant(P, ("x", "y"), 1)),
        "MotivicValue": (L + 2, MotivicValue({0: 1})),
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
    assert (len(squares), len(products)) == expected_counts(kind, n)
    assert got == want
    assert base ** 0 == one


def test_negative_exponent_is_refused():
    # every caller handles n = 0 itself, so binary_power takes n >= 1 only
    for n in (-1, 0):
        with pytest.raises(ValueError):
            binary_power(3, n)
    assert [binary_power(3, n) for n in range(1, 9)] == [3 ** n for n in range(1, 9)]


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32])
def test_binary_power_counts_through_its_product(n):
    # a product function, as gf passes for residues mod the modulus
    squares, products = [], []

    def counting(a, b):
        (squares if a is b else products).append(1)
        return a * b

    assert binary_power(3, n, counting) == 3 ** n
    assert (len(squares), len(products)) == expected_counts("int", n)

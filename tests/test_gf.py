"""Finite field towers: axioms by sampling, Frobenius, trace, p-th roots."""

import random

import pytest
import sympy

from wildmckay.gf import GF, MR_BOUND, PrimalityUnproven, is_prime, prime_power_decomposition

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def test_primality_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None


def test_is_prime_matches_sympy():
    assert [n for n in range(10 ** 5) if is_prime(n)] == list(sympy.primerange(10 ** 5))
    rng = random.Random(2017)
    for _ in range(2000):
        n = rng.getrandbits(60)
        assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # ... to every prime base up to 23
    318665857834031151167461,  # ... up to 37: the smallest such, caught by base 41
])
def test_strong_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert is_prime(n) is False


def test_above_the_bound_no_guess():
    # MR_BOUND itself is the smallest composite passing all 13 bases
    with pytest.raises(PrimalityUnproven):
        is_prime(MR_BOUND)
    with pytest.raises(PrimalityUnproven):
        prime_power_decomposition(2 ** 89 - 1)
    assert is_prime(2 ** 89 + 1) is False  # a witness still proves compositeness
    assert prime_power_decomposition(2 ** 1100) == (2, 1100)
    assert prime_power_decomposition(3 ** 120) == (3, 120)
    assert prime_power_decomposition((2 ** 61 - 1) ** 3) == (2 ** 61 - 1, 3)
    assert prime_power_decomposition(2 ** 1100 + 1) is None
    assert prime_power_decomposition(6 ** 40) is None


@pytest.mark.parametrize("p,e", FIELDS + [(3, 3), (2, 4)])
def test_code_maps_agree_with_elements(p, e):
    F = GF(p, e)
    add, neg, frobenius, pth_root, trace, mul = F.codes
    elems = list(F.elements())
    rng = random.Random(p * 31 + e)
    for x in elems:
        n = x.encode()
        assert neg(n) == (-x).encode()
        assert frobenius(n) == x.frobenius().encode()
        assert pth_root(n) == x.pth_root().encode()
        assert trace(n) == x.trace()
        y = rng.choice(elems)
        assert add(n, y.encode()) == (x + y).encode()
        assert mul(n, y.encode()) == (x * y).encode()


def test_prime_field_maps_build_no_table():
    p = 2 ** 61 - 1
    add, neg, frobenius, pth_root, trace, mul = GF(p).codes
    assert add(p - 1, 5) == 4 and neg(3) == p - 3
    assert frobenius(7) == pth_root(7) == trace(7) == 7
    assert mul(p - 1, p - 1) == 1 and mul(2 ** 60, 2) == 1
    assert not any(isinstance(getattr(m, "__self__", None), dict) for m in GF(p).codes)


def test_modulus_is_deterministic_and_minimal():
    # F_4: y^2 + y + 1 is the only irreducible quadratic over F_2
    assert GF(2, 2).modulus == (1, 1, 1)
    # F_9: y^2 + 1 is irreducible and lexicographically first
    assert GF(3, 2).modulus == (1, 0, 1)
    assert GF(2, 2) is GF(2, 2)


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms_by_sampling(p, e):
    F = GF(p, e)
    rng = random.Random(p * 100 + e)
    elems = list(F.elements())
    assert len(elems) == p ** e
    assert len({x.encode() for x in elems}) == p ** e
    for _ in range(40):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + F.zero == a
        assert a * F.one == a
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


@pytest.mark.parametrize("p,e", FIELDS)
def test_frobenius_is_additive_automorphism(p, e):
    F = GF(p, e)
    rng = random.Random(17)
    elems = list(F.elements())
    for _ in range(25):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


@pytest.mark.parametrize("p,e", FIELDS)
def test_pth_root_total(p, e):
    F = GF(p, e)
    for x in F.elements():
        assert x.pth_root() ** p == x


@pytest.mark.parametrize("p,e", FIELDS)
def test_trace_lands_in_prime_field_and_kernel_size(p, e):
    F = GF(p, e)
    traces = [x.trace() for x in F.elements()]
    assert all(0 <= t < p for t in traces)
    # the trace kernel is the Artin-Schreier image, of index p
    assert sum(1 for t in traces if t == 0) == p ** e // p


@pytest.mark.parametrize("p,e", FIELDS)
def test_artin_schreier_image_has_trace_zero(p, e):
    F = GF(p, e)
    for x in F.elements():
        assert (x ** p - x).trace() == 0


def test_parse_and_str_round_trip():
    F = GF(3, 2)
    for x in F.elements():
        assert F.parse(str(x)) == x
    assert F.parse("2+y") == F.element([2, 1])
    assert F.parse("-1") == F.element(2)


def test_encoding_round_trip():
    F = GF(5, 2)
    for x in F.elements():
        assert F.from_encoding(x.encode()) == x


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 2)])
def test_power_equals_repeated_product(p, e):
    F = GF(p, e)
    for x in F.elements():
        acc = F.one
        for n in range(64):
            assert x ** n == acc
            acc = acc * x

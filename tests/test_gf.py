"""Finite field towers: axioms by sampling, Frobenius, trace, p-th roots.

Elements are codes; sympy's galoistools (gf_reference) is the reference."""

import random

import pytest
import sympy

from gf_reference import Reference, is_irreducible
from wildmckay import covers, gf, oracles, stringy
from wildmckay.gf import GF, MR_BOUND, PrimalityUnproven, is_prime, prime_power_decomposition
from wildmckay.motivic import L

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]
REFERENCE_FIELDS = FIELDS + [(3, 3), (2, 4)]


def test_primality_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None


def test_p_q_e_jumps_and_const_class_must_be_ints():
    # GF caches by type, so a field built from ints does not answer a float
    GF(2), GF(2, 2)
    for call in (
        lambda: L.point_count(9.0),
        lambda: prime_power_decomposition(9.0),
        lambda: stringy.origin_fiber_point_count(stringy.RepType(3, [3, 3]), 9.0),
        lambda: covers.count_rep_covers(4.0, 3),
        lambda: GF(2, 2.0),
        lambda: covers.enumerate_covers(2, 3, guard=10.5),
        lambda: is_prime(7.0),
        lambda: is_prime(True),
        lambda: GF(2.0, 1),
        lambda: covers.count_rep_covers(2, 3.0),
        lambda: covers.count_extensions(2, 3.0),
        lambda: stringy.shift_number(stringy.RepType(3, [3]), 2.0),
        lambda: oracles.uniformizer_params(3, 2.0),
        lambda: covers.enumerate_covers(2, 3.0),
        lambda: covers.ASCoverClass(GF(2), {1: 1}, 1.5),
    ):
        with pytest.raises(TypeError, match="is not an int"):
            call()
    # the error names the argument at fault, p, not the coefficient a
    with pytest.raises(TypeError, match="p 3.0 is not an int"):
        stringy.stack_pair_invariant(3.0, -2)


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


@pytest.mark.parametrize("p,e", REFERENCE_FIELDS)
def test_code_maps_agree_with_elements(p, e):
    # every code against the element arithmetic of sympy's galoistools
    F = GF(p, e)
    ref = Reference(F)
    add, neg, frobenius, pth_root, trace, mul = F.add, F.neg, F.frob, F.root, F.trace, F.mul
    rng = random.Random(p * 31 + e)
    for x in range(F.order):
        assert neg(x) == ref.neg(x)
        assert frobenius(x) == ref.frobenius(x)
        assert pth_root(x) == ref.pth_root(x)
        assert trace(x) == ref.trace(x)
        y = rng.randrange(F.order)
        assert add(x, y) == ref.add(x, y)
        assert mul(x, y) == ref.mul(x, y)


def test_prime_field_maps_build_no_table():
    p = 2 ** 61 - 1
    F = GF(p)
    assert F.add(p - 1, 5) == 4 and F.neg(3) == p - 3
    assert F.frob(7) == F.root(7) == F.trace(7) == 7
    assert F.mul(p - 1, p - 1) == 1 and F.mul(2 ** 60, 2) == 1
    maps = (F.add, F.neg, F.frob, F.root, F.trace, F.mul)
    assert not any(isinstance(getattr(m, "__self__", None), dict) for m in maps)


def test_modulus_is_deterministic_and_minimal():
    # F_4: y^2 + y + 1 is the only irreducible quadratic over F_2
    assert GF(2, 2).modulus == (1, 1, 1)
    # F_9: y^2 + 1 is irreducible and lexicographically first
    assert GF(3, 2).modulus == (1, 0, 1)
    assert GF(2, 2) is GF(2, 2)


@pytest.mark.parametrize("p,e", REFERENCE_FIELDS)
def test_modulus_is_the_first_irreducible_candidate(p, e):
    # sympy's irreducibility test on the modulus and on every monic
    # candidate of degree e whose base-p code is smaller
    modulus = GF(p, e).modulus
    assert len(modulus) == e + 1 and modulus[-1] == 1
    assert is_irreducible(modulus, p)
    code = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
    for n in range(code):
        low = [n // p ** i % p for i in range(e)]
        assert not is_irreducible(low + [1], p)


def test_modulus_guard_counts_candidates(monkeypatch):
    # GF(3, 3) needs 1 + the code of its modulus candidates; the guard
    # counts them at a fixed cost each, so the budget decides, not the clock
    p, e = 3, 3
    modulus = GF(p, e).modulus
    tested = 1 + sum(c * p ** i for i, c in enumerate(modulus[:-1]))
    cost = (e + 4) ** 2 * ((p ** e).bit_length() + (p ** e).bit_count())
    monkeypatch.setattr(gf, "MAX_MODULUS_WORK", tested * cost)
    assert gf._find_modulus(p, e) == modulus
    monkeypatch.setattr(gf, "MAX_MODULUS_WORK", tested * cost - 1)
    with pytest.raises(gf.TooLarge, match=f"among the first {tested - 1} candidates"):
        gf._find_modulus(p, e)


def test_modulus_search_skips_candidates_divisible_by_y(monkeypatch):
    # a candidate with c_0 = 0 has the factor y, so only odd codes are tested
    # over F_2: GF(2, 16) tests 22 of its first 44 candidates
    tested = []
    is_irreducible = gf._is_irreducible

    def counting(m, p):
        tested.append(m)
        return is_irreducible(m, p)

    monkeypatch.setattr(gf, "_is_irreducible", counting)
    modulus = gf._find_modulus(2, 16)
    assert len(tested) == 22 and all(m[0] for m in tested)
    assert 1 + sum(c << i for i, c in enumerate(modulus[:-1])) == 44


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms_by_sampling(p, e):
    F = GF(p, e)
    add, neg, mul = F.add, F.neg, F.mul
    rng = random.Random(p * 100 + e)
    for _ in range(40):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        if b:
            inverse = next(x for x in range(F.order) if mul(b, x) == 1)
            assert mul(mul(a, inverse), b) == a


@pytest.mark.parametrize("p,e", FIELDS)
def test_frobenius_is_additive_automorphism(p, e):
    F = GF(p, e)
    add, frobenius, mul = F.add, F.frob, F.mul
    rng = random.Random(17)
    for _ in range(25):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert frobenius(add(a, b)) == add(frobenius(a), frobenius(b))
        assert frobenius(mul(a, b)) == mul(frobenius(a), frobenius(b))


@pytest.mark.parametrize("p,e", FIELDS)
def test_pth_root_total(p, e):
    F = GF(p, e)
    for x in range(F.order):
        assert F.frob(F.root(x)) == x


@pytest.mark.parametrize("p,e", FIELDS)
def test_trace_lands_in_prime_field_and_kernel_size(p, e):
    F = GF(p, e)
    traces = [F.trace(x) for x in range(F.order)]
    assert all(0 <= t < p for t in traces)
    # the trace kernel is the Artin-Schreier image, of index p
    assert sum(1 for t in traces if t == 0) == p ** e // p


@pytest.mark.parametrize("p,e", FIELDS)
def test_artin_schreier_image_has_trace_zero(p, e):
    F = GF(p, e)
    add, neg, frobenius, trace = F.add, F.neg, F.frob, F.trace
    for x in range(F.order):
        assert trace(add(frobenius(x), neg(x))) == 0


def test_parse_and_str_round_trip():
    # str of an element is now GaloisField.format of its code
    for p, e in [(3, 2), (2, 3), (5, 2)]:
        F = GF(p, e)
        for x in range(F.order):
            assert F.parse(F.format(x)) == x
    F = GF(3, 2)
    assert F.format(0) == "0" and F.format(5) == "2+y" and F.format(7) == "1+2*y"
    assert F.parse("2+y") == 5 and F.parse("-1") == 2 and F.parse("y-y") == 0
    assert GF(2, 3).format(6) == "y+y^2"
    assert GF(7).format(6) == "6" and GF(7).parse("-1") == 6


def test_encoding_round_trip():
    # an element is its base-p encoding c_0 + c_1*p + ...
    F = GF(5, 2)
    for x in range(F.order):
        digits = gf._digits(x, F.p)
        assert gf._code(digits, F.p) == x
        assert digits == [] or digits[-1] != 0
        c0, c1 = x % 5, x // 5
        assert F.parse(f"{c0}+{c1}*y") == x


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 2)])
def test_power_equals_repeated_product(p, e):
    # sympy's powers against repeated products of the mul map
    F = GF(p, e)
    ref, mul = Reference(F), F.mul
    for x in range(F.order):
        acc = 1
        for n in range(64):
            assert ref.power(x, n) == acc
            acc = mul(acc, x)

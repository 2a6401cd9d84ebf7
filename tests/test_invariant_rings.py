"""Polynomial oracles for the explicitly presented invariant rings."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wildmckay import invariant_rings
from wildmckay.gf import PreconditionError, TooLarge
from wildmckay.invariant_rings import (
    _B,
    _MASK,
    MAX_REFLECTION_DIM,
    MAX_REFLECTION_PRIME,
    jacobian_determinant,
    MultiPoly,
    catalan_mod,
    dim22_generators,
    dim22_relation,
    dim3_action,
    dim3_quadratic_invariant,
    dim3_relation,
    norm,
    reflection_jacobian_check,
    standard_action,
    verify_dim22_relation,
    verify_dim3_relation,
)


def unpack(key, n):
    """The exponent tuple of a packed monomial, variable 0 in the low bits."""
    return tuple(key >> _B * i & _MASK for i in range(n))


def random_poly(rng, p, names, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in names)
        terms[mono] = rng.randint(0, p - 1)
    return MultiPoly(p, names, terms)


def rescanned_degree(f):
    """Total degree from the exponent tuples of f's terms, 0 for zero."""
    return max((sum(unpack(k, len(f.vars))) for k in f.terms), default=0)


@st.composite
def polys(draw, p, names):
    """A polynomial over F_p whose coefficients may be 0 and whose terms may
    cancel in sums and differences."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(names)), st.integers(-p, p), max_size=5))
    return MultiPoly(p, names, terms)


def has_order_p(images):
    """sigma^p fixes every variable, by p substitutions."""
    p, names = next(iter(images.values())).p, tuple(images)
    for g in MultiPoly.gens(p, names):
        h = g
        for _ in range(p):
            h = h.substitute(images)
        if h != g:
            return False
    return True


class TestMultiPoly:
    def test_arithmetic_mod_p(self):
        x, y = MultiPoly.gens(3, ("x", "y"))
        assert (x + x + x).is_zero()
        assert (x + y) ** 3 == x ** 3 + y ** 3

    def test_constructor_cleans_and_ring_results_stay_clean(self):
        assert MultiPoly(3, ("x",), {(1,): 3, (2,): -2}).terms == {2: 1}
        assert MultiPoly(5, ("x", "y"), {(2, 1): 6, (0, 3): 5, (0, 0): -1}).terms == {2 + (1 << _B): 1, 0: 4}
        with pytest.raises(ValueError, match="length mismatch"):
            MultiPoly(3, ("x", "y"), {(1,): 1})
        # no int() truncation: (1.5,): 2.7 is not 2*x and (True,): 1 is not x
        for terms in ({(1.5,): 2.7}, {(True,): 1}, {(1,): 2.0}):
            with pytest.raises(ValueError, match="not of ints"):
                MultiPoly(3, ("x",), terms)
        rng = random.Random(7)
        names = ("x", "y")
        images = {"x": MultiPoly.gens(3, names)[1], "y": random_poly(rng, 3, names)}
        for _ in range(20):
            f, g = random_poly(rng, 3, names), random_poly(rng, 3, names)
            for r in (f + g, f - g, -f, f * g, f ** 4, f.substitute(images), f.derivative("x")):
                assert r.terms == MultiPoly(3, names, {unpack(k, 2): c for k, c in r.terms.items()}).terms
                assert all(0 < c < 3 and type(k) is int and k >= 0 for k, c in r.terms.items())

    def test_substitution_is_ring_hom(self):
        rng = random.Random(5)
        names = ("x", "y")
        x, y = MultiPoly.gens(5, names)
        images = {"x": x + y, "y": x * y - 1}
        for _ in range(20):
            f = random_poly(rng, 5, names)
            g = random_poly(rng, 5, names)
            assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)
            assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_substitute_equals_naive_powering(self, p):
        rng = random.Random(p)
        names, targets = ("x", "y", "z"), ("u", "v")
        rises = falls = 0
        for _ in range(12):
            f = random_poly(rng, p, names, max_deg=6, max_terms=10)
            images = {n: random_poly(rng, p, targets, max_deg=2, max_terms=3) for n in names}
            want = MultiPoly(p, targets)
            for mono, c in f.terms.items():
                term = MultiPoly.constant(p, targets, c)
                for name, e in zip(names, unpack(mono, 3)):
                    for _ in range(e):
                        term = term * images[name]
                want = want + term
            assert f.substitute(images) == want
            # the visit order (increasing keys, which is the exponents read
            # from the last variable) makes the leading variables' exponents
            # both rise and fall
            order = [unpack(k, 3) for k in sorted(f.terms)]
            assert order == sorted(order, key=lambda m: m[::-1])
            steps = [(a[0], b[0]) for a, b in zip(order, order[1:]) if a[0] and b[0]]
            rises += any(a < b for a, b in steps)
            falls += any(a > b for a, b in steps)
        assert rises and falls

    def test_derivative_is_a_derivation(self):
        rng = random.Random(11)
        names = ("x", "y", "z")
        for _ in range(20):
            f = random_poly(rng, 7, names)
            g = random_poly(rng, 7, names)
            got = (f * g).derivative("y")
            want = f * g.derivative("y") + g * f.derivative("y")
            assert got == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_degree_bookkeeping(self, data):
        # products and powers carry their degree; every result must report the
        # degree that a rescan of its terms gives (0 for the zero polynomial)
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        names = ("x", "y", "z")
        f, g, h = (data.draw(polys(p, names)) for _ in range(3))
        images = {name: data.draw(polys(p, names)) for name in names}
        n = data.draw(st.integers(0, 2 * p * p + p))  # two or three base-p digits: Frobenius powers
        zero = MultiPoly(p, names)
        results = [
            f * g, (f * g) * h, f * zero, zero * f, f * 3, f * p, f ** n, (f * g) ** n, (f ** n) * g,
            zero ** n, f ** p, f ** (p * p + 1), f + g, f - f, f - g, -f, f.substitute(images),
            (f * g).substitute(images), f.derivative("x"), (f ** p).derivative("y"),
            MultiPoly.constant(p, names, n), MultiPoly.variable(p, names, "z"), zero,
            *MultiPoly.gens(p, names),
        ]
        for r in results:
            assert r.degree == rescanned_degree(r)

    def test_frobenius_powers_form_no_product(self, monkeypatch):
        # over F_p, f^(p^k) has the terms {p^k key: c}: stretched, not multiplied
        x, y, z = MultiPoly.gens(3, ("x", "y", "z"))
        products = []
        mul = MultiPoly.__mul__
        monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        assert (x + 2 * y + z) ** 27 == x ** 27 + 2 * y ** 27 + z ** 27
        assert products == []
        assert (x + y) ** 0 == 1 and MultiPoly(3, ("x", "y", "z")) ** 5 == 0

    def test_packed_degree_guard(self, monkeypatch):
        names = ("x", "y")
        x, y = MultiPoly.gens(2, names)
        top = MultiPoly(2, names, {(_MASK - 1, 0): 1})
        assert str(top) == f"x^{_MASK - 1}"
        assert MultiPoly(2, names, {(2 ** 31, 2 ** 31 - 2): 1}) == x ** 2 ** 31 * y ** (2 ** 31 - 2)
        for mono in ((-1, 0), (0, _MASK), (2 ** 31, 2 ** 31 - 1)):
            with pytest.raises(PreconditionError):
                MultiPoly(2, names, {mono: 1})
        # products and powers: total degree 2^B - 2 is accepted, 2^B - 1 refused
        assert x ** (_MASK - 1) == top
        assert x ** 5 * x ** (_MASK - 6) == top
        assert (x * y) ** ((_MASK - 1) // 2) == MultiPoly(2, names, {((_MASK - 1) // 2,) * 2: 1})
        for make in (lambda: x ** _MASK, lambda: top * x, lambda: top * y,
                     lambda: (x * y) ** ((_MASK + 1) // 2), lambda: (top + 1).substitute({"x": x * y, "y": y})):
            with pytest.raises(TooLarge, match="which packed monomials cannot hold"):
                make()
        assert MultiPoly.constant(2, names, 1) ** 10 ** 30 == 1
        # the guard reads the degree that products and powers carry
        low, high = x ** 5, x ** (_MASK - 5)
        assert (low._deg, high._deg) == (5, _MASK - 5)
        with pytest.raises(TooLarge, match=f"product of degree up to {_MASK} is at least 2"):
            low * high
        assert low * x ** (_MASK - 6) == top
        built, f = [], x * y + 1
        mul_terms = invariant_rings._mul_terms
        monkeypatch.setattr(invariant_rings, "_mul_terms", lambda a, b: built.append(1) or mul_terms(a, b))
        square = f * f
        assert square._deg == 4 and built == [1]
        with pytest.raises(TooLarge, match="power of degree up to"):
            square ** ((_MASK + 3) // 4)
        assert built == [1]

    def test_graded_lex_printing(self):
        x, y = MultiPoly.gens(7, ("x", "y"))
        f = 3 * x * y ** 2 + x ** 2 + y
        assert str(f) == "3*x*y^2 + x^2 + y"


class TestActions:
    @pytest.mark.parametrize("p,dims", [(2, (2,)), (3, (3,)), (3, (2, 2)), (5, (3, 1))])
    def test_standard_action_order_p(self, p, dims):
        assert has_order_p(standard_action(p, dims))

    def test_standard_action_display(self):
        images = standard_action(3, (3,))
        x1, x2, x3 = MultiPoly.gens(3, ("x1_1", "x1_2", "x1_3"))
        assert images == {"x1_1": x1 + x2, "x1_2": x2 + x3, "x1_3": x3}

    def test_delta_nilpotence(self):
        images = standard_action(5, (4, 2))
        names = tuple(images)
        for lam, d in enumerate((4, 2)):
            first = MultiPoly.variable(5, names, f"x{lam + 1}_1")
            h = first
            for i in range(1, d):
                h = h.substitute(images) - h
                assert h == MultiPoly.variable(5, names, f"x{lam + 1}_{i + 1}")
            assert (h.substitute(images) - h).is_zero()

    def test_dim3_action_matches_display(self):
        images, x, y, z = dim3_action(3)
        assert images == {"x": x, "y": -x + y, "z": x - y + z}
        assert has_order_p(images)

    def test_norm_invariance_random(self):
        rng = random.Random(3)
        images = standard_action(3, (3,))
        for _ in range(10):
            f = random_poly(rng, 3, tuple(images), max_deg=2, max_terms=3)
            n = norm(f, images)
            assert n.substitute(images) == n

    def test_norm_examples(self):
        images = standard_action(2, (2,))
        x, y = MultiPoly.gens(2, tuple(images))
        # norm of the moving variable is x^2 + x*y in the (x, y) labels
        assert norm(x, images) == x * x + x * y
        one = MultiPoly.constant(2, tuple(images), 1)
        assert norm(one, images) == one
        images3, x3, y3, _ = dim3_action(3)
        assert norm(y3, images3) == y3 ** 3 - x3 ** 2 * y3


class TestCatalan:
    def test_values(self):
        assert catalan_mod(1, 7) == 1
        assert catalan_mod(2, 3) == 2
        assert catalan_mod(4, 5) == 14 % 5


class TestDim3Relation:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_vanishes(self, p):
        assert verify_dim3_relation(p)["ok"]

    def test_p31_monomial_products(self, monkeypatch):
        # 182 722 while substitute powered each image anew for every term,
        # 41 470 before Frobenius powers and the scalar pass in substitute;
        # 341 calls (18 252 products) while dim3_relation was built by ring
        # operations.  The call pin catches per-call overhead at equal products.
        products = []
        mul = MultiPoly.__mul__

        def counting(a, b):
            products.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        assert verify_dim3_relation(31)["ok"]
        assert sum(products) <= 20_000
        assert len(products) <= 200

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_relation_matches_ring_operations(self, p):
        X, Y, Z, W = MultiPoly.gens(p, ("X", "Y", "Z", "W"))
        rel = 2 * X ** p * Z + W ** p - Y * Y
        for i in range(2, (p + 1) // 2 + 1):
            rel = rel + (-1) ** i * catalan_mod(i - 1, p) * X ** (2 * (p - i)) * W ** i
        assert dim3_relation(p) == rel

    def test_p3_specialization(self):
        X, Y, Z, W = MultiPoly.gens(3, ("X", "Y", "Z", "W"))
        assert dim3_relation(3) == -(X ** 3) * Z + W ** 3 - Y * Y + X * X * W * W

    def test_quadratic_invariant_is_invariant(self):
        for p in (3, 5, 7, 11, 13):
            images, *_ = dim3_action(p)
            d = dim3_quadratic_invariant(p)
            assert d.substitute(images) == d

    def test_quadratic_invariant_p3_form(self):
        # at p = 3 the invariant reads y^2 + xz - xy
        _, x, y, z = dim3_action(3)
        assert dim3_quadratic_invariant(3) == y * y + x * z - x * y

    def test_negative_control(self):
        # corrupt one Catalan coefficient, or add a stray W^2: the relation
        # must not vanish
        p = 5
        images, x, y, z = dim3_action(p)
        w = dim3_quadratic_invariant(p)
        X, _, _, W = MultiPoly.gens(p, ("X", "Y", "Z", "W"))
        for corruption in (X ** (2 * (p - 2)) * W ** 2, W ** 2):
            rel = dim3_relation(p) + corruption
            residual = rel.substitute({"X": x, "Y": norm(y, images), "Z": norm(z, images), "W": w})
            assert not residual.is_zero()


class TestDim22Relation:
    def test_ok(self):
        result = verify_dim22_relation()
        assert result["ok"] and result["invariance_ok"]
        assert result["residual"].is_zero()

    def test_swapped_assignment_still_ok(self):
        # the relation is symmetric under swapping both pairs (V,X) <-> (W,Y)
        _, gens = dim22_generators()
        swapped = dict(gens, V=gens["W"], W=gens["V"], X=gens["Y"], Y=gens["X"])
        assert verify_dim22_relation(swapped)["ok"]

    def test_corrupted_assignment_fails(self):
        images, gens = dim22_generators()
        bad = dict(gens)
        bad["Z"] = gens["Z"] + MultiPoly.variable(2, tuple(images), "x1_2")
        result = verify_dim22_relation(bad)
        assert not result["ok"]
        assert not result["residual"].is_zero()


class TestReflectionJacobian:
    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (5, 4)])
    def test_ok(self, p, d):
        result = reflection_jacobian_check(p, d)
        assert result["invariance_ok"] and result["det_ok"]

    def test_determinant_values(self):
        r22 = reflection_jacobian_check(2, 2)
        y = MultiPoly.variable(2, ("x", "y"), "y")
        assert r22["determinant"] == y
        r32 = reflection_jacobian_check(3, 2)
        y3 = MultiPoly.variable(3, ("x", "y"), "y")
        assert r32["determinant"] == -(y3 ** 2)

    def test_p997_monomial_products(self, monkeypatch):
        # 412 836 while x + y was powered by repeated squaring
        products = []
        mul = MultiPoly.__mul__

        def counting(a, b):
            products.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        result = reflection_jacobian_check(997, 97)
        assert result["invariance_ok"] and result["det_ok"]
        assert sum(products) <= 1_000

    def test_work_guards(self):
        assert reflection_jacobian_check(3, MAX_REFLECTION_DIM)["det_ok"]
        assert reflection_jacobian_check(997, 2)["det_ok"]  # the largest prime below MAX_REFLECTION_PRIME
        for p, d in ((1009, 2), (3, MAX_REFLECTION_DIM + 1)):
            assert p > MAX_REFLECTION_PRIME or d > MAX_REFLECTION_DIM
            with pytest.raises(TooLarge, match=f"p = {p}, d = {d} is above the work guard"):
                reflection_jacobian_check(p, d)

    def test_negative_control(self):
        # a perturbed first generator no longer has determinant +-y^(p-1)
        p = 3
        names = ("x", "y")
        x, y = MultiPoly.gens(p, names)
        det = jacobian_determinant([x ** p - x * y ** (p - 1) + x, y], names)
        assert det != y ** (p - 1) and det != -(y ** (p - 1))


class TestSympyOracle:
    """Products, powers and derivatives against sympy.Poly over GF(p)."""

    NAMES = ("x", "y", "z")

    def to_sympy(self, f):
        n = len(self.NAMES)
        return sympy.Poly.from_dict({unpack(k, n): c for k, c in f.terms.items()} or {(0,) * n: 0},
                                    *sympy.symbols(self.NAMES), modulus=f.p)

    def assert_agrees(self, f, want):
        # sympy keeps residues symmetric about 0
        assert {unpack(k, 3): c for k, c in f.terms.items()} == {
            m: int(c) % f.p for m, c in want.as_dict().items() if int(c) % f.p
        }

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_products_and_derivatives(self, p):
        rng = random.Random(100 + p)
        for _ in range(15):
            f = random_poly(rng, p, self.NAMES, max_deg=4, max_terms=6)
            g = random_poly(rng, p, self.NAMES, max_deg=4, max_terms=6)
            self.assert_agrees(f * g, self.to_sympy(f) * self.to_sympy(g))
            for name in self.NAMES:
                self.assert_agrees(f.derivative(name), self.to_sympy(f).diff(sympy.Symbol(name)))

    @pytest.mark.parametrize("p,exponents", [(2, (3, 5, 6, 11)), (3, (4, 7, 10, 14)), (5, (6, 11, 27)), (7, (8, 15))])
    def test_powers(self, p, exponents):
        rng = random.Random(200 + p)
        for n in exponents:
            digits = [n // p ** i % p for i in range(n.bit_length())]
            assert sum(1 for d in digits if d) >= 2
            for _ in range(3):
                f = random_poly(rng, p, self.NAMES, max_deg=2, max_terms=3)
                self.assert_agrees(f ** n, self.to_sympy(f) ** n)

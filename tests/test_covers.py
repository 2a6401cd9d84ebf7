"""Cover classification: reduction, jumps, the norm-based jump oracle, census."""

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
import sympy

from gf_reference import Reference
from wildmckay import covers, laurent, oracles
from wildmckay.cli import main
from wildmckay.covers import (
    ASCoverClass,
    InvalidJump,
    count_extensions,
    count_rep_covers,
    enumerate_covers,
    nonzero_codes,
    reduce,
    reduce_with_witnesses,
    witnesses_account_for,
)
from wildmckay.gf import GF, InternalMismatch, TooLarge, require_prime_power
from wildmckay.laurent import artin_schreier
from wildmckay.oracles import uniformizer_params, verify_jump

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)


def cli_process(*argv):
    """Run the CLI in a fresh interpreter, with a 10 s timeout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-B", "-m", "wildmckay.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)


def element(field, *comps):
    """The element sum_i comps[i] g^i of the cover ring, comps as {exponent: coefficient}."""
    return [nonzero_codes(field, c) for c in comps]


def power(F, a, n, f):
    out = a
    for _ in range(n - 1):
        out = oracles._ring_mul(F, out, a, f)
    return out


def delta(F, a):
    return [laurent.sub(F, x, y) for x, y in zip(oracles._sigma(F, a), a)]


class TestReduce:
    def test_zero(self):
        cls = reduce(F2, {})
        assert cls.coeffs == {} and cls.const_class == 0 and cls.jump == 0

    def test_single_step(self):
        cls = reduce(F2, {-2: 1})
        assert cls == ASCoverClass(F2, {1: 1})
        assert cls.const_class == 0

    def test_single_step_p3(self):
        cls = reduce(F3, {-3: 1})
        assert cls == ASCoverClass(F3, {1: 1})
        assert cls.const_class == 0

    def test_positive_tail_discarded(self):
        cls = reduce(F2, {0: 1, 1: 1, 2: 1})
        assert cls.coeffs == {}
        assert cls.const_class == 1

    def test_cascading_reduction(self):
        # t^-4 over F_2 reduces through t^-2 down to t^-1
        cls, wits = reduce_with_witnesses(F2, {-4: 1})
        assert cls == ASCoverClass(F2, {1: 1})
        assert wits == [(-2, 1), (-1, 1)]
        assert witnesses_account_for(F2, {-4: 1}, cls, wits)

    def test_witness_chain_guard(self):
        # t^(-2^1023) over F_2 walks a chain of 1023 witnesses: 1024^2 bits at most
        assert reduce(F2, {-2 ** 1023: 1}) == ASCoverClass(F2, {1: 1}, 0)
        with pytest.raises(TooLarge, match="1050625 bits of witnesses, above the guard of 1048576"):
            reduce(F2, {-2 ** 1024: 1})
        # a huge exponent prime to p starts no chain
        assert reduce(F2, {-2 ** 5000 - 1: 1}).jump == 2 ** 5000 + 1

    def test_witness_chain_guard_refuses_before_the_walk(self):
        # a 60 KB argument: the chain walk alone took 24 s, quadratic in the bits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = str(2 ** 200000)
        finally:
            sys.set_int_max_str_digits(limit)
        done = cli_process("covers", "reduce", "--p", "2", "--q", "2", f"--series=-{digits}:1")
        assert done.returncode == 2
        assert "above the guard of 1048576" in done.stderr

    @pytest.mark.parametrize("p,q", [
        (10 ** 9 + 7, (10 ** 9 + 7) ** 3),  # p = 2 mod 3: every y^3 + c is reducible
        (2, 2 ** 128),
    ])
    def test_field_build_guard_refuses_before_a_long_search(self, p, q):
        # without the guard the modulus search ran for days and for 20 s
        done = cli_process("covers", "reduce", "--p", str(p), "--q", str(q), "--series=-1:1")
        assert done.returncode == 2
        assert "the search stops at 10000000" in done.stderr

    def test_rep_poly_invariants(self):
        # the representative polynomial's indices are positive and prime to p
        for index in (2, 0, -1):  # p | index, the constant term, a positive power
            with pytest.raises(ValueError, match=f"exponent index {index} must be positive and coprime to 2"):
                ASCoverClass(F2, {index: 1})
        assert ASCoverClass(F2, {1: 0, 3: 1}, 3).coeffs == {3: 1}
        assert ASCoverClass(F2, {1: 0, 3: 1}, 3).const_class == 1

    @pytest.mark.parametrize("bad", [4, -1, 1.0, None, True])
    def test_entry_points_refuse_non_codes(self, bad):
        # a polynomial is a plain dict, so each public entry point validates
        # it, the positive tail that reduction drops included
        cls = ASCoverClass(F4, {1: 1})
        for f in ({-3: 1, -1: bad}, {-3: 1, 2: bad}):
            calls = [
                lambda: reduce(F4, f),
                lambda: reduce_with_witnesses(F4, f),
                lambda: witnesses_account_for(F4, f, cls, []),
                lambda: verify_jump(F4, f),
                lambda: artin_schreier(F4, f),
            ]
            for call in calls:
                with pytest.raises(ValueError, match=f"coefficient {bad!r} is not a code of GF"):
                    call()

    @pytest.mark.parametrize("F", [F2, F3, F4, F5])
    def test_idempotent_and_witnesses_random(self, F):
        rng = random.Random(F.order)
        for _ in range(200):
            coeffs = {rng.randint(-9, 2): rng.choice(range(F.order)) for _ in range(rng.randint(0, 5))}
            cls, wits = reduce_with_witnesses(F, coeffs)
            assert witnesses_account_for(F, coeffs, cls, wits)
            assert reduce(F, cls.lift()) == cls

    @pytest.mark.parametrize("F", [F2, F3, F4, GF(3, 2)])
    def test_witness_order_is_not_read(self, F):
        # the witnesses come in the order subtracted; any order accounts for f
        rng = random.Random(F.order + 1)
        shuffled = 0
        for _ in range(100):
            # exponents divisible by p, so most terms start a chain
            f = {F.p * rng.randint(-30, 0): rng.randrange(F.order) for _ in range(rng.randint(1, 6))}
            cls, wits = reduce_with_witnesses(F, f)
            assert len({e for e, _ in wits}) == len(wits)
            again = rng.sample(wits, len(wits))
            shuffled += again != wits
            assert witnesses_account_for(F, f, cls, again)
        assert shuffled >= 25


class TestJump:
    def test_unramified(self):
        assert ASCoverClass(F2, {}, 1).jump == 0

    def test_simple(self):
        assert ASCoverClass(F2, {1: 1}, 0).jump == 1

    def test_top_index(self):
        assert ASCoverClass(F2, {3: 1, 1: 1}, 0).jump == 3


class TestUniformizerParams:
    @pytest.mark.parametrize(
        "p,j,expected",
        [(3, 2, (1, 1, 1, 0)), (2, 1, (1, 1, 1, 0)), (5, 3, (1, 2, 3, 1))],
    )
    def test_examples(self, p, j, expected):
        assert uniformizer_params(p, j) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_defining_identity(self, p):
        for j in range(1, 30):
            if j % p == 0:
                continue
            q_, r_, l_, c_ = uniformizer_params(p, j)
            assert j == p * q_ - r_ and 1 <= r_ <= p - 1
            assert 1 <= l_ <= p - 1 and l_ * r_ == p * c_ + 1
            assert p * (l_ * q_ - c_) - l_ * j == 1

    def test_invalid(self):
        with pytest.raises(InvalidJump):
            uniformizer_params(3, 6)
        with pytest.raises(InvalidJump):
            uniformizer_params(3, 0)


class TestCoverRingArithmetic:
    """Exact arithmetic in F_q((t))[g]/(g^p - g + f), on lists of p polynomials {exponent: code}."""

    def test_sigma_of_g(self):
        assert oracles._sigma(F2, element(F2, {}, {0: 1})) == element(F2, {0: 1}, {0: 1})

    def test_delta_of_g_times_series(self):
        # (sigma - id)(g*h) = h for h in the base field of polynomials
        f = {-2: 1}
        h = element(F3, {3: 2}, {}, {})
        gh = oracles._ring_mul(F3, element(F3, {}, {0: 1}, {}), h, f)
        assert delta(F3, gh) == h

    def test_defining_relation(self):
        # g * g^(p-1) = g - f
        f = {-1: 1, 2: 1}
        g = element(F3, {}, {0: 1}, {})
        assert power(F3, g, 3, f) == [{-1: 2, 2: 2}, {0: 1}, {}]

    def test_valuation_examples(self):
        # v(t^n g^i) = np - ij on a cover of jump j
        assert oracles._norm_order(F2, element(F2, {}, {0: 1}), {-1: 1}) == -1
        x = element(F5, {}, {}, {1: 1}, {}, {})  # t * g^2: 5 - 6 = -1
        assert oracles._norm_order(F5, x, {-3: 1}) == -1

    def test_uniformizer_valuation(self):
        f = {-2: 1}
        q_, _, l_, c_ = uniformizer_params(3, 2)
        s = oracles._ring_mul(F3, element(F3, {l_ * q_ - c_: 1}, {}, {}), power(F3, element(F3, {}, {0: 1}, {}), l_, f), f)
        assert oracles._norm_order(F3, s, f) == 1

    def test_zero_has_no_valuation(self):
        with pytest.raises(InternalMismatch):
            oracles._norm_order(F2, element(F2, {}, {}), {-1: 1})

    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_norm_order_is_the_resultant_order(self, F):
        # P = g^p - g + f is monic, so Res_g(P, Q) = prod Q(roots of P) = N(Q)
        p, rng = F.p, random.Random(F.p)
        g, t = sympy.symbols("g t")

        def sym(a):
            return sum((c * t ** e for e, c in a.items()), sympy.Integer(0))

        def t_order(poly):
            return min(m for (m,), c in sympy.Poly(poly, t).terms() if c % p)

        for _ in range(5):
            j = rng.choice([j for j in range(1, 6) if j % p])
            f = nonzero_codes(F, {-j: rng.randrange(1, p), **{rng.randint(1 - j, 2): rng.randrange(p) for _ in range(2)}})
            x = [nonzero_codes(F, {rng.randint(-3, 3): rng.randrange(p) for _ in range(2)}) for _ in range(p)]
            if not any(x):
                continue
            res = sympy.resultant(g ** p - g + sym(f), sum(sym(a) * g ** i for i, a in enumerate(x)), g)
            num, den = sympy.fraction(sympy.together(res))
            assert oracles._norm_order(F, x, f) == t_order(num) - t_order(den)


class TestVerifyJump:
    @pytest.mark.parametrize(
        "F,rep",
        [
            (F2, {1: 1}),
            (F3, {2: 1}),
            (F3, {1: 2}),
            (F5, {3: 1}),
            (F4, {1: 3}),  # 1 + y
        ],
    )
    def test_oracle_true(self, F, rep):
        cls = ASCoverClass(F, rep, 0)
        assert verify_jump(F, cls.lift())
        assert verify_jump(F, laurent.add(F, cls.lift(), artin_schreier(F, {-2 * cls.jump: 1, 3: 1})))

    def test_sigma_s_minus_s_valuation(self):
        s = element(F2, {}, {1: 1})  # t * g
        assert oracles._norm_order(F2, delta(F2, s), {-1: 1}) == 2

    def test_p3_jump2(self):
        f = {-2: 1}
        q_, _, l_, c_ = uniformizer_params(3, 2)
        s = oracles._ring_mul(F3, element(F3, {l_ * q_ - c_: 1}, {}, {}), power(F3, element(F3, {}, {0: 1}, {}), l_, f), f)
        assert oracles._norm_order(F3, delta(F3, s), f) == 3

    def test_unramified_rejected(self):
        with pytest.raises(InvalidJump):
            verify_jump(F2, {0: 1, -2: 1, -1: 1})

    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_delta_raises_valuation_by_jump(self, F):
        # for elements of non-p-divisible valuation, v(sigma(h) - h) = v(h) + j
        rng = random.Random(F.p)
        for j in (1, F.p + 1):
            f = {-j: 1}
            for _ in range(20):
                h = [
                    nonzero_codes(F, {rng.randint(0, 2): rng.randrange(F.order) for _ in range(rng.randint(0, 2))})
                    for _i in range(F.p)
                ]
                if not any(h):
                    continue
                v = oracles._norm_order(F, h, f)
                if v % F.p == 0:
                    continue
                assert oracles._norm_order(F, delta(F, h), f) == v + j


class TestCounting:
    def test_rep_cover_counts(self):
        assert count_rep_covers(2, 0) == 1
        assert count_rep_covers(2, 3) == 2
        assert count_rep_covers(4, 1) == 3

    def test_extension_counts(self):
        assert count_extensions(3, 1) == 3
        assert count_extensions(2, 1) == 2
        # p = 2, q = 2, j = 2n+1 gives 2^(n+1)
        for n in range(5):
            assert count_extensions(2, 2 * n + 1) == 2 ** (n + 1)

    def test_invalid_jumps(self):
        with pytest.raises(InvalidJump):
            count_rep_covers(2, 4)
        with pytest.raises(InvalidJump):
            count_extensions(2, 0)

    def test_class_count_partial_sums(self):
        # sum over j <= J of the stratum counts equals q^(J - floor(J/p))
        for q, p in ((2, 2), (4, 2), (3, 3), (5, 5)):
            for max_j in range(0, 9):
                total = sum(
                    count_rep_covers(q, j)
                    for j in range(max_j + 1)
                    if j == 0 or j % p != 0
                )
                assert total == q ** (max_j - max_j // p)


def census_by_reduction(F, max_exp):
    """The census's fibers and witness verdict, with each input of
    itertools.product reduced and checked alone by the public functions."""
    fibers, held = Counter(), True
    for combo in itertools.product(range(F.order), repeat=max_exp):
        f = {-i: c for i, c in enumerate(combo, 1)}
        cls, witnesses = reduce_with_witnesses(F, f)
        fibers[cls.key()] += 1
        held &= witnesses_account_for(F, f, cls, witnesses)
    return fibers, held


class TestCensus:
    def test_tiny_f2(self):
        report = enumerate_covers(2, 2)
        assert report.class_count == 2
        assert {c.key()[0] for c in report.classes} == {(), ((1, 1),)}
        assert set(report.fiber_sizes.values()) == {2}
        assert report.all_ok

    def test_no_collapse_below_p(self):
        report = enumerate_covers(2, 1)
        assert report.class_count == 2
        assert set(report.fiber_sizes.values()) == {1}

    def test_f3(self):
        report = enumerate_covers(3, 3)
        assert report.class_count == 9
        assert set(report.fiber_sizes.values()) == {3}
        assert report.all_ok

    def test_guard(self):
        with pytest.raises(TooLarge, match="2\\^40 exceeds the enumeration guard 10000000"):
            enumerate_covers(2, 40)

    def test_guard_refuses_before_forming_q_to_the_j(self):
        # 3^(10^8) alone takes minutes to form; the guard compares exponents first
        done = cli_process("covers", "census", "--p", "3", "--q", "3", "--max-exp", "100000000")
        assert done.returncode == 2
        assert "3^100000000 exceeds the enumeration guard 10000000" in done.stderr

    def test_max_enum_lowers_the_input_guard_but_never_raises_it(self, capsys):
        # unclamped, --max-enum 10^12 started a walk of 2^38 inputs, about 55 h
        start = time.perf_counter()
        assert main(["covers", "census", "--p", "2", "--q", "2", "--max-exp", "38",
                     "--max-enum", "1000000000000"]) == 2
        assert time.perf_counter() - start < 1
        assert "2^38 exceeds the enumeration guard 10000000" in capsys.readouterr().err
        assert covers.MAX_CENSUS_INPUTS == 10 ** 7
        with pytest.raises(TooLarge, match="2\\^10 exceeds the enumeration guard 100$"):
            enumerate_covers(2, 10, guard=100)
        outputs = []
        for guard in ([], ["--max-enum", "1024"], ["--max-enum", "1000000000000"]):
            assert main(["covers", "census", "--p", "2", "--q", "2", "--max-exp", "10", *guard]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_class_guard_refuses_before_the_walk(self):
        # p > J makes every input its own class: 1009^2 classes took 3.3 s and 272 MB
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"1009\^2 = 1018081 classes, above the class guard 1000000"):
            enumerate_covers(1009, 2)
        assert time.perf_counter() - start < 1
        done = cli_process("covers", "census", "--p", "1009", "--q", "1009", "--max-exp", "2")
        assert done.returncode == 2
        assert "1018081 classes, above the class guard" in done.stderr

    def test_class_guard_bounds_the_class_count_not_the_inputs(self, monkeypatch):
        # 3^4 inputs in 3^(4 - 1) = 27 classes
        monkeypatch.setattr(covers, "MAX_CENSUS_CLASSES", 27)
        assert enumerate_covers(3, 4).class_count == 27
        monkeypatch.setattr(covers, "MAX_CENSUS_CLASSES", 26)
        with pytest.raises(TooLarge, match="27 classes"):
            enumerate_covers(3, 4)

    def test_determinism(self):
        a = enumerate_covers(2, 4).to_json(list_forms=True)
        b = enumerate_covers(2, 4).to_json(list_forms=True)
        assert a == b

    @pytest.mark.parametrize("q,max_exp", [(2, 0), (2, 8), (3, 5), (4, 4), (8, 3), (9, 2)])
    def test_census_matches_the_reduction_of_every_input(self, q, max_exp):
        # the census settles coefficients once per prefix; the public
        # reduction and witness check, run on each input alone, must give
        # the same fibers and the same witness verdict
        report = enumerate_covers(q, max_exp)
        fibers, held = census_by_reduction(GF(*require_prime_power(q)), max_exp)
        assert fibers == report.fiber_sizes
        assert held is report.witnesses_ok is True
        assert sum(fibers.values()) == report.total_inputs == q ** max_exp

    @pytest.mark.parametrize("q,max_exp", [(2, 0), (2, 1), (3, 1), (4, 2), (7, 3), (8, 3), (9, 2), (2, 9)])
    def test_sorted_views_match_the_reduction_of_every_input(self, q, max_exp):
        # the census counts level 1 in rows and leaves its fibers unsorted;
        # the views built from them when read must be those of the public
        # reduction of each input, in key order
        report = enumerate_covers(q, max_exp)
        fibers, held = census_by_reduction(GF(*require_prime_power(q)), max_exp)
        assert list(report.fiber_sizes.items()) == sorted(fibers.items())
        classes = report.classes
        assert [c.key() for c in classes] == list(report.fiber_sizes)
        jumps = Counter(c.jump for c in classes)
        assert [row[:2] for row in report.jump_histogram] == [[j, jumps[j]] for j, *_ in report.jump_histogram]
        assert sum(row[1] for row in report.jump_histogram) == report.class_count == len(classes)
        assert report.fibers_uniform is (set(report.fiber_sizes.values()) == {report.expected_fiber_size})
        assert report.witnesses_ok is held is True


class TestIntCodedCore:
    """The census and the (F, f) entry points share one int-coded core."""

    @staticmethod
    def laurent_route(F, f, cls, witnesses):
        # the check redone with the laurent kernel and sympy's trace,
        # independent of the core
        g = f
        for e, c in witnesses:
            g = laurent.sub(F, g, artin_schreier(F, {e: c}))
        neg = {e: c for e, c in g.items() if e < 0}
        trace = Reference(F).trace(g.get(0, 0))
        return neg == {-i: c for i, c in cls.coeffs.items()} and trace == cls.const_class

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (5, 2)])
    def test_adapter_matches_core(self, p, e):
        F = GF(p, e)
        rng = random.Random(p * 10 + e)
        for _ in range(150):
            # terms above t^0 too: reduction must discard the positive tail
            codes = {rng.randint(-60, 3): rng.randrange(1, F.order) for _ in range(rng.randint(0, 7))}
            cls, wits = reduce_with_witnesses(F, codes)
            polar = {x: c for x, c in codes.items() if x <= 0}
            assert nonzero_codes(F, codes, polar=True) == polar
            rep, const, core_wits = covers._reduce_codes(F, polar)
            assert cls.key() == (tuple(sorted((-x, c) for x, c in rep.items())), const)
            assert wits == core_wits
            assert witnesses_account_for(F, codes, cls, wits) is True
            assert self.laurent_route(F, codes, cls, wits)
            if wits:
                # dropping a witness must be caught by both routes
                assert not witnesses_account_for(F, codes, cls, wits[1:])
                assert not self.laurent_route(F, codes, cls, wits[1:])

    @pytest.mark.parametrize("map_name,attr,p,e", [
        pytest.param("pth_root", "root", 2, 2, id="pth_root-3"),
        pytest.param("frobenius", "frob", 2, 2, id="frobenius-2"),
        pytest.param("pth_root", "root", 3, 2, id="pth_root-3-F9"),
        pytest.param("frobenius", "frob", 3, 2, id="frobenius-2-F9"),
    ])
    def test_wrong_field_map_fails_the_census(self, map_name, attr, p, e, monkeypatch, capsys):
        # root and Frobenius are memoized separately, so one wrong entry in
        # either makes the reduction and its check disagree; over F_4 add is
        # XOR, over F_9 add and neg are memoized maps too
        F = GF(p, e)
        memo = getattr(F, attr).__self__
        right = getattr(Reference(F), map_name)(1)
        monkeypatch.setitem(memo, 1, right ^ 2)
        report = enumerate_covers(F.order, 4)
        assert report.witnesses_ok is False and report.all_ok is False
        # the public reduction, run on each input alone, fails its check too
        assert census_by_reduction(F, 4) == (report.fiber_sizes, False)
        argv = ["covers", "census", "--p", str(p), "--q", str(F.order), "--max-exp", "4"]
        assert main(argv) == 3
        assert '"witnesses_ok": false' in capsys.readouterr().out

    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
    def test_census_follows_a_wrong_add(self, p, e, monkeypatch):
        # every fiber has q^floor(J/p) inputs whatever the carries are, so
        # right fibers alone do not show that each input reached its class;
        # a wrong add(1, 1) that collides with add(0, 1) makes them uneven,
        # and the census must still find the fibers of the reduction of
        # each input (the witness verdicts may differ: the census checks
        # v = frob(r), the public check sums with add)
        F = GF(p, e)
        add = F.add
        monkeypatch.setattr(F, "add", lambda a, b: add(0, b) if (a, b) == (1, 1) else add(a, b))
        report = enumerate_covers(F.order, 4)
        assert report.fibers_uniform is False
        assert census_by_reduction(F, 4)[0] == report.fiber_sizes

    def test_one_class_object_per_class(self, monkeypatch):
        built = []
        of = ASCoverClass._of

        def counting_of(*args):
            built.append(1)
            return of(*args)

        monkeypatch.setattr(ASCoverClass, "_of", counting_of)
        report = enumerate_covers(3, 5)
        assert report.all_ok and report.to_json()["all_ok"]
        assert built == []  # the census builds its forms only when they are read
        classes = report.classes
        assert len(built) == len(classes) == report.class_count == 81

    @staticmethod
    def assert_public_twin(cls):
        twin = ASCoverClass(cls.field, cls.coeffs, cls.const_class)
        assert twin == cls and hash(twin) == hash(cls)
        assert twin.key() == cls.key() and twin.to_json() == cls.to_json() and repr(twin) == repr(cls)

    @pytest.mark.parametrize("q,max_exp", [(2, 6), (3, 4), (4, 3), (9, 2), (5, 3)])
    def test_census_classes_match_the_public_constructor(self, q, max_exp):
        report = enumerate_covers(q, max_exp)
        for cls in report.classes:
            self.assert_public_twin(cls)
        assert [c.key() for c in report.classes] == list(report.fiber_sizes)
        assert len(set(report.classes)) == report.class_count

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2)])
    def test_reductions_match_the_public_constructor(self, p, e):
        F = GF(p, e)
        rng = random.Random(p * 100 + e)
        for _ in range(100):
            f = {rng.randint(-40, 3): rng.randrange(F.order) for _ in range(rng.randint(0, 6))}
            self.assert_public_twin(reduce(F, f))

    @pytest.mark.parametrize(
        "p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3), (5, 5), (7, 2)]
    )
    def test_lift_constant_is_first_of_its_trace(self, p, e):
        F = GF(p, e)
        trace = Reference(F).trace
        for t in range(1, p):
            first = next(x for x in range(F.order) if trace(x) == t)
            lifted = ASCoverClass(F, {1: 1}, t).lift()
            assert lifted == {-1: 1, 0: first}
            assert reduce(F, lifted).const_class == t
        assert ASCoverClass(F, {1: 1}, 0).lift() == {-1: 1}

    def test_lift_over_a_huge_prime_field(self):
        # the constant comes from a closed form, not a scan over the field
        F = GF(2 ** 61 - 1)
        start = time.perf_counter()
        lifted = ASCoverClass(F, {1: 1}, 2 ** 40).lift()
        assert time.perf_counter() - start < 1.0
        assert lifted[0] == 2 ** 40

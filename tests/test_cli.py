"""CLI surface: reports, schema conformance, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildmckay import invariant_rings, stringy
from wildmckay.cli import COMMANDS, REQUIRED, build_parser, main, parse, schema_path

SCHEMA = json.loads(open(schema_path()).read())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    data = json.loads(out)
    jsonschema.validate(data, SCHEMA)
    return code, data


class TestStringyCommands:
    def test_invariant_report(self, capsys):
        code, data = run_json(capsys, "stringy", "invariant", "--p", "3", "--dims", "3")
        assert code == 0
        assert data["D_V"] == 3
        assert data["M_st"] == {"scale": 1, "num": [[2, 2], [3, 1]], "den": [[0, 1]]}
        assert data["e_st"] == "3"
        assert data["sht"] == [[1, 0], [2, 1]]
        assert data["crepant"]["dv_equals_p"] is True
        assert data["E0"] == {"scale": 1, "num": [[0, 1], [1, 2]], "den": [[0, 1]]}
        assert data["duality_ok"] is True

    def test_invariant_builds_each_quantity_once(self, capsys, monkeypatch):
        from wildmckay import stringy

        calls = []
        twisted_sum = stringy._twisted_sum

        def counting(*args):
            calls.append(args)
            return twisted_sum(*args)

        monkeypatch.setattr(stringy, "_twisted_sum", counting)
        code, _ = run(capsys, "stringy", "invariant", "--p", "13", "--dims", "13,13")
        assert code == 0
        assert len(calls) == 3  # M_st, E0 and the projectivization

    def test_invariant_forms_the_shift_numbers_once(self, capsys, monkeypatch):
        calls = []
        shift_number = stringy.shift_number
        monkeypatch.setattr(stringy, "shift_number", lambda rep, j: calls.append(j) or shift_number(rep, j))
        code, _ = run(capsys, "stringy", "invariant", "--p", "13", "--dims", "13,13")
        assert code == 0
        assert calls == list(range(1, 13))  # sht(1), ..., sht(p-1), each once

    def test_invariant_not_klt_exit_2(self, capsys):
        code, _ = run(capsys, "stringy", "invariant", "--p", "2", "--dims", "2")
        assert code == 2

    def test_pair_smooth_and_stack(self, capsys):
        code, data = run_json(capsys, "stringy", "pair", "--p", "2", "--a=-1")
        assert code == 0
        # (L^2-L)/(1-L^-2) canonicalizes to L^3/(L+1)
        assert data == {"scale": 1, "num": [[3, 1]], "den": [[0, 1], [1, 1]]}
        code, data = run_json(capsys, "stringy", "pair", "--p", "3", "--a=-2", "--stack")
        assert code == 0
        assert data == {"scale": 1, "num": [[2, 1]], "den": [[0, 1]]}

    def test_pair_not_klt_exit_2(self, capsys):
        code, _ = run(capsys, "stringy", "pair", "--p", "2", "--a", "0", "--stack")
        assert code == 2

    @pytest.mark.parametrize("p", ["4", "-7"])
    @pytest.mark.parametrize("stack", [(), ("--stack",)])
    def test_pair_checks_p_with_and_without_stack(self, capsys, p, stack):
        assert main(["stringy", "pair", "--p", p, "--a=-1", *stack]) == 2
        assert capsys.readouterr().err == f"error: characteristic {p} is not prime\n"

    def test_pointcount(self, capsys):
        code, data = run_json(capsys, "stringy", "pointcount", "--p", "2", "--dims", "2,2", "--q", "4")
        assert code == 0 and data == "5"

    def test_dims_bounds_checked(self, capsys):
        code, _ = run(capsys, "stringy", "invariant", "--p", "3", "--dims", "5")
        assert code == 2


class TestCoversCommands:
    def test_reduce(self, capsys):
        code, data = run_json(capsys, "covers", "reduce", "--p", "2", "--q", "2", "--series=-2:1")
        assert code == 0
        assert data == {"rep": {"terms": [[1, 1]]}, "const_class": 0, "jump": 1}

    def test_reduce_extension_field(self, capsys):
        code, data = run_json(capsys, "covers", "reduce", "--p", "2", "--q", "4", "--series=-1:1+y,0:y")
        assert code == 0
        assert data["rep"] == {"terms": [[1, "1+y"]]}
        assert data["jump"] == 1

    def test_census(self, capsys):
        code, data = run_json(capsys, "covers", "census", "--p", "2", "--q", "2", "--max-exp", "4")
        assert code == 0
        assert data["class_count"] == data["expected_class_count"] == 4
        assert data["all_ok"] is True
        assert list(data) == ["p", "q", "max_exp", "total_inputs", "class_count", "expected_class_count",
                              "jump_histogram", "expected_fiber_size", "fibers_uniform", "witnesses_ok",
                              "all_ok"]

    def test_census_guard(self, capsys):
        code, _ = run(capsys, "covers", "census", "--p", "2", "--q", "2", "--max-exp", "10",
                      "--max-enum", "100")
        assert code == 2

    def test_count(self, capsys):
        code, data = run_json(capsys, "covers", "count", "--p", "2", "--q", "2", "--jump", "3",
                              "--extensions")
        assert code == 0 and data == 4
        code, data = run_json(capsys, "covers", "count", "--p", "2", "--q", "4", "--jump", "1")
        assert code == 0 and data == 3

    def test_q_must_match_p(self, capsys):
        code, _ = run(capsys, "covers", "count", "--p", "3", "--q", "8", "--jump", "1")
        assert code == 2


class TestVerifyCommands:
    def test_v3(self, capsys):
        code, data = run_json(capsys, "verify", "v3", "--p", "11")
        assert code == 0 and data["ok"] is True

    def test_v2v2(self, capsys):
        code, data = run_json(capsys, "verify", "v2v2")
        assert code == 0
        assert data["ok"] is True and data["details"]["invariance_ok"] is True

    def test_reflection(self, capsys):
        code, data = run_json(capsys, "verify", "reflection", "--p", "3", "--d", "2")
        assert code == 0 and data["ok"] is True
        assert data["details"]["determinant"] == "2*y^2"

    def test_bad_input_exit_2(self, capsys):
        code, _ = run(capsys, "verify", "reflection", "--p", "3", "--d", "1")
        assert code == 2


class TestSuiteCommand:
    def test_filtered_run(self, capsys):
        code, data = run_json(capsys, "suite", "--only", "duality")
        assert code == 0
        assert [c["name"] for c in data["criteria"]] == ["poincare-duality"]
        assert data["all_ok"] is True

    def test_seed_changes_nothing(self, capsys):
        _, a = run_json(capsys, "suite", "--only", "reflection-pair", "--seed", "0")
        _, b = run_json(capsys, "suite", "--only", "reflection-pair", "--seed", "99")
        assert [c["ok"] for c in a["criteria"]] == [c["ok"] for c in b["criteria"]]


class TestExitCodes:
    """0 success, 1 internal error, 2 PreconditionError only, 3 failed check."""

    def test_ok(self, capsys):
        assert run(capsys, "stringy", "pair", "--p", "2", "--a=-1")[0] == 0

    def test_internal_value_error_is_not_a_precondition(self, capsys, monkeypatch):
        from wildmckay import stringy
        from wildmckay.motivic import MotivicValue

        monkeypatch.setattr(stringy, "projectivized_invariant", lambda rep: MotivicValue({0: 1}, None, 0))
        code = main(["stringy", "invariant", "--p", "3", "--dims", "3"])
        assert code == 1
        assert "internal error: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("suite", "--only", "no-such-criterion"),
        ("covers", "census", "--p", "2", "--q", "2", "--max-exp", "-1"),
        ("covers", "reduce", "--p", "2", "--q", "4", "--series=-1:z"),
        ("verify", "v3", "--p", "2"),
    ])
    def test_precondition(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2

    def test_verification_failure(self, capsys, monkeypatch):
        from wildmckay import invariant_rings

        monkeypatch.setattr(invariant_rings, "catalan_mod", lambda i, p: 1)
        code, data = run_json(capsys, "verify", "v3", "--p", "7")
        assert code == 3 and data["ok"] is False

    def test_precondition_classes(self):
        from wildmckay.covers import InvalidJump
        from wildmckay.gf import PreconditionError, PrimalityUnproven, TooLarge
        from wildmckay.stringy import BaseFieldMismatch, NotKLT, NotStringilyKLT

        for exc in (PrimalityUnproven, InvalidJump, BaseFieldMismatch, TooLarge):
            assert issubclass(exc, PreconditionError)
        for exc in (NotStringilyKLT, NotKLT):
            assert issubclass(exc, PreconditionError) and issubclass(exc, ArithmeticError)


class TestOutputContracts:
    def test_byte_determinism(self, capsys):
        args = ("stringy", "invariant", "--p", "2", "--dims", "2,2")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_tsv_format(self, capsys):
        code, out = run(capsys, "--format", "tsv", "covers", "count", "--p", "2", "--q", "2",
                        "--jump", "1", "--extensions")
        assert code == 0
        assert out == "\t2\n"

    def test_tsv_nested(self, capsys):
        code, out = run(capsys, "--format", "tsv", "covers", "reduce", "--p", "2", "--q", "2",
                        "--series=-2:1")
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["jump"] == "1"
        assert lines["rep.terms[0][0]"] == "1"

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["covers", "reduce", "--p", "2"])

    def test_invariant_rings_load_on_use(self):
        # stringy and covers calls do not import (and so do not compile) it
        code = "import sys, wildmckay.cli; print('wildmckay.invariant_rings' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"

    def test_startup_imports_no_heavy_stdlib_modules(self):
        # -S keeps site's own imports out of the set, and -B writes no
        # __pycache__ into the checkout (-E would drop PYTHONDONTWRITEBYTECODE)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (f"import sys; sys.path.insert(0, {src!r}); import wildmckay.cli; "
                "wildmckay.cli.build_parser(); "
                "print(sorted({'dataclasses', 'inspect', 'typing', 'importlib.resources'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-B", "-c", code],
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


class TestGoldenOutputs:
    """stdout SHA-256 frozen before the int-coded reduction core, so the
    extension-field paths the benchmark never reaches keep their output."""

    CENSUS = [
        ((2, 6), "f7a30391f4fbe6a40a1edc3c4a2f0e6e2d8c77eb73f9e02d7a87392a06bcafa1"),
        ((3, 4), "5610750130b6c852b89d49faec05fcde908baf515ee78366c7be10c67eb5c262"),
        ((4, 3), "fea842a7258905896628b5e4ae797f4c75489e7d812ce7e8fa8d724c769fcf10"),
        ((8, 2), "04363f0ad66c46ae78b4ca070b488b51073bba0dbc4ec6ff8d3266ed74ea539a"),
        ((9, 2), "c0278d09926bb9d71762189d62e7ba3a6b0bc9b7a43076a5b2af48af8af61cac"),
        ((25, 1), "f64fea031e2e403a62ea2f09f1941419e06cbf8153100dcb8c66b7a66f0deda4"),
        ((5, 3), "b43090fdaaaf6c9ef931fcf15a3b4e55295d3627f5c4ce94389ae7b979e570a5"),
    ]
    REDUCE = [
        ((2, 8, "-12:y,-8:1+y^2,-3:y^2,0:y,2:1"),
         "ce71d0145615b0f67b32f1ec2edc3f4006b1da94f3d782554e242234d31008e3"),
        ((2, 8, "-64:1+y,-6:y^2,0:1+y+y^2"),
         "e21f86ddc202f7ded5d920d1beb184487426aff81950ad07536bb2196a3881d1"),
        ((3, 9, "-27:y,-18:2+y,-9:1,-4:2*y,0:1+y,1:2"),
         "398cebb0ade0c3f0e4242b6ece7ca6ac82524cb81083334b266491c32c69d1b7"),
        ((3, 9, "-81:2+2*y,-5:y,0:2"),
         "c3f9c18c278a53177cb606ff63d65ba58b7ab9c67f9b87c374fea02cd3060bab"),
        ((5, 25, "-25:3+y,-10:4*y,-5:2,-3:1+y,0:y,3:4"),
         "8402037fc8537ccd666fe623d9c8567fa802efaed24e1ea2cc7102bce03696a8"),
        ((5, 25, "-125:y,-50:2+3*y,-2:1,0:3+y"),
         "4b879052b381df545e3aaae7bb1f1d4f81244b9e0faf697914d67c0d431a0d87"),
    ]

    # frozen before gf.binary_power and the power reuse in MultiPoly.substitute
    VERIFY = [
        (("v3", "--p", "17"), "471835fcf5051adf685c14147964678bcae69ff180ed0575e86de2b04a664ae8"),
        (("v3", "--p", "19"), "a6c273eed7adc5d5aa0d07227cefa46c892261143c4b10d1a6841dfe43a76682"),
        (("v3", "--p", "23"), "adad21d59e82ecf1dfa8531564bc0251128f607999dcf971ae32997204090bf5"),
        (("v3", "--p", "29"), "b9513f6468a2495816348aab7bb6dc9d5ce9dd04c78532188cf6ff5109a2892f"),
        (("v3", "--p", "31"), "c9a6bec83a08cf8cc406611e8ecee5804914a18301e6c569dbcfee35985b7a68"),
        (("reflection", "--p", "11", "--d", "4"),
         "ba7fb7a693b478f82c97d2369033c67363fb82593da9fe1b40b577237d82e2f1"),
    ]

    @pytest.mark.parametrize("args,digest", VERIFY)
    def test_verify(self, capsys, args, digest):
        code, out = run(capsys, "verify", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case,digest", CENSUS)
    def test_census_list_forms(self, capsys, case, digest):
        q, j = case
        p = next(p for p in (2, 3, 5) if q % p == 0)
        code, out = run(capsys, "covers", "census", "--p", str(p), "--q", str(q),
                        "--max-exp", str(j), "--list-forms")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case,digest", REDUCE)
    def test_reduce(self, capsys, case, digest):
        p, q, text = case
        code, out = run(capsys, "covers", "reduce", "--p", str(p), "--q", str(q), f"--series={text}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHugeModuli:
    MERSENNE_61 = 2 ** 61 - 1
    MERSENNE_89 = 2 ** 89 - 1  # prime, but above the deterministic Miller-Rabin bound

    def test_mersenne_pointcount_is_a_quick_mismatch(self, capsys):
        start = time.perf_counter()
        code, _ = run(capsys, "stringy", "pointcount", "--p", "3", "--dims", "3",
                      "--q", str(self.MERSENNE_61))
        assert code == 2
        assert time.perf_counter() - start < 1.0

    def test_reduce_over_a_huge_prime_field(self, capsys):
        p = str(self.MERSENNE_61)
        start = time.perf_counter()
        code, data = run_json(capsys, "covers", "reduce", "--p", p, "--q", p, "--series=-2:1")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert data == {"rep": {"terms": [[2, 1]]}, "const_class": 0, "jump": 2}

    @pytest.mark.parametrize("argv,code", [(("count", "--jump", "1"), 0), (("census", "--max-exp", "5"), 2)])
    def test_count_and_census_build_no_field(self, capsys, argv, code):
        # building F_(2^128) takes about 20 s; these commands only check q = p^e
        q = 2 ** 128
        start = time.perf_counter()
        assert main(["covers", argv[0], "--p", "2", "--q", str(q), *argv[1:]]) == code
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        if code == 0:
            assert out == f"{q - 1}\n"
        else:
            assert "exceeds the enumeration guard" in err

    def test_unprovable_prime_is_a_precondition_error(self, capsys):
        p = str(self.MERSENNE_89)
        assert main(["covers", "reduce", "--p", p, "--q", p, "--series=-2:1"]) == 2
        assert "Miller-Rabin" in capsys.readouterr().err


class TestHugeIntegers:
    """Exact answers beyond CPython's 4300-digit int/str cap reach stdout;
    main lifts the cap for the call only."""

    @staticmethod
    def uncapped(fn):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return fn()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_count_with_150k_digits(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "covers", "count", "--p", "2", "--q", "2", "--jump", "1000001")
        assert code == 0 and sys.get_int_max_str_digits() == limit
        assert out == self.uncapped(lambda: str(2 ** 500000)) + "\n"

    def test_pointcount_with_over_4300_digits(self, capsys):
        code, out = run(capsys, "stringy", "pointcount", "--p", "31", "--dims", "31,31", "--q", "923521")
        assert code == 0
        count = stringy.origin_fiber_point_count(stringy.RepType(31, (31, 31)), 923521)
        assert len(out) > 4300
        assert out == self.uncapped(lambda: json.dumps(str(count))) + "\n"

    @pytest.mark.parametrize("extensions", [(), ("--extensions",)])
    def test_count_beyond_the_output_guard_exits_2_quickly(self, capsys, extensions):
        start = time.perf_counter()
        code = main(["covers", "count", "--p", "2", "--q", "2", "--jump", "100000000001", *extensions])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "above the output guard of 1048576" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("stringy", "invariant", "--p", "1009", "--dims", "1009,1009"),
        ("stringy", "pair", "--p", "3", "--a=-1000000"),
        ("stringy", "pair", "--p", "2305843009213693951", f"--a=-{10 ** 30}"),
        ("stringy", "pair", "--p", "2305843009213693951", "--stack", f"--a=-{10 ** 30}"),
    ])
    def test_closed_form_beyond_the_output_guard_exits_2_quickly(self, capsys, argv):
        start = time.perf_counter()
        code = main(list(argv))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"above the output guard of {stringy.MAX_DEGREE}" in capsys.readouterr().err

    def test_pointcount_beyond_the_output_guard_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code = main(["stringy", "pointcount", "--p", "1009", "--dims", "1009,1009", "--q", "1009"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "above the output guard of 1048576" in capsys.readouterr().err

    def test_pointcount_guard_runs_before_the_shift_numbers(self, capsys):
        # the p - 1 shift numbers alone take 24 s here; m >= 0 gives a lower
        # bound on the size that refuses first
        start = time.perf_counter()
        code = main(["stringy", "pointcount", "--p", "10007", "--dims", "10007,10007", "--q", "10007"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "above the output guard of 1048576" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("stringy", "invariant", "--p", "65521", "--dims", "363"),  # 11 s unguarded
        ("stringy", "invariant", "--p", "1000000007", "--dims", "44722"),  # did not finish
        ("stringy", "invariant", "--p", "1009", "--dims", ",".join(["2"] * 1009)),
        ("stringy", "invariant", "--p", "8191", "--dims", "129"),
        ("stringy", "pointcount", "--p", "8191", "--dims", "129", "--q", "8191"),
        ("stringy", "pointcount", "--p", "30011", "--dims", ",".join(["2"] * 65000), "--q", "30011"),  # > 15 s
    ], ids=lambda argv: " ".join(argv[:4]))
    def test_shift_numbers_beyond_the_work_guard_exit_2_quickly(self, capsys, argv):
        start = time.perf_counter()
        code = main(list(argv))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"above the work guard of {stringy.MAX_SHIFT_WORK}" in capsys.readouterr().err

    @pytest.mark.parametrize("leaf,extra", [("invariant", ()), ("pointcount", ("--q", "169"))])
    def test_shift_work_guard_edge(self, capsys, monkeypatch, leaf, extra):
        # p = 13, dims 4,5,5: (13 - 1) * (3 + 4 + 4) = 132 floor terms
        argv = ["stringy", leaf, "--p", "13", "--dims", "4,5,5", *extra]
        monkeypatch.setattr(stringy, "MAX_SHIFT_WORK", 132)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(stringy, "MAX_SHIFT_WORK", 131)
        assert run(capsys, *argv) == (2, "")

    @pytest.mark.parametrize("p,d", [("1009", "2"), ("3", "101"), ("3", "1000"), ("4099", "400")])
    def test_reflection_beyond_the_work_guard_exits_2_quickly(self, capsys, p, d):
        start = time.perf_counter()
        code = main(["verify", "reflection", "--p", p, "--d", d])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert (f"above the work guard of p <= {invariant_rings.MAX_REFLECTION_PRIME}, "
                f"d <= {invariant_rings.MAX_REFLECTION_DIM}") in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["211", "1009"])
    def test_v3_beyond_the_work_guard_exits_2_quickly(self, capsys, p):
        start = time.perf_counter()
        code = main(["verify", "v3", "--p", p])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"above the work guard of {invariant_rings.MAX_V3_PRIME}" in capsys.readouterr().err

    def test_pointcount_below_the_output_guard_is_exact(self, capsys):
        code, out = run(capsys, "stringy", "pointcount", "--p", "151", "--dims", "151,151", "--q", "151")
        assert code == 0
        # the independent route: the origin-fiber class evaluated at L = q
        count = stringy.origin_fiber_class(stringy.RepType(151, (151, 151))).point_count(151)
        assert out == self.uncapped(lambda: json.dumps(str(count))) + "\n"

    def test_closed_form_at_the_output_guard_is_exact(self, capsys):
        # 3 - a = MAX_DEGREE: the largest smooth pair the guard lets through
        a = 3 - stringy.MAX_DEGREE
        code, out = run(capsys, "stringy", "pair", "--p", "3", f"--a={a}")
        assert code == 0
        assert json.loads(out) == stringy.smooth_pair_invariant(2, a).to_json()


class TestParserPaths:
    """main reads plain calls straight from the command table; every other
    argv, and every argparse output and exit, goes to the full parser."""

    ARGPARSE_EXITS = [
        (), ("-h",), ("--help",), ("--he",),
        ("stringy",), ("stringy", "-h"), ("stringy", "invariant", "-h"),
        ("stringy", "invariant"), ("stringy", "bogus"), ("bogus",),
        ("stringy", "invariant", "--p", "x", "--dims", "3"),
        ("covers", "census", "--p", "3", "--q", "3", "--max-exp", "3", "--max"),
        ("covers", "reduce", "--p", "2", "--q", "4", "--series", "-2:1"),
        ("suite", "--seed"), ("verify", "v2v2", "extra"),
        ("--format", "xml", "suite"),
    ]

    LEAVES = [
        ("stringy", "invariant", "--p", "3", "--dims", "3"),
        ("stringy", "pointcount", "--p", "3", "--dims", "3", "--q", "9"),
        ("covers", "reduce", "--p", "2", "--q", "4", "--series=-3:1"),
        ("covers", "census", "--p", "2", "--q", "2", "--max-exp", "3"),
        ("suite", "--only", "duality"),
        ("verify", "v3", "--p", "5"),
    ]

    # SHA-256 of json.dumps([exit code, stdout, stderr]) at COLUMNS=80, frozen
    # from the hand-written argparse parser before the command table replaced
    # it: help on every command path, ARGPARSE_EXITS, and a few calls that
    # argparse alone must read.
    PARSER_TEXT = [
        ("-h", "9ab76f30248ed43562dcdc833daeecef2cc22110966330ab44886268408a8011"),
        ("stringy -h", "9258263da0511bd81f4375ae714c125b01438a8cc365bb980e310632fa302d97"),
        ("stringy invariant -h", "682b5d0d944e32e0da553fafc31434760ec1a44a822a54059f8e4049c8ef0522"),
        ("stringy pair -h", "c90f5d6d9d01426c7f69bab88a502d697af5d8701abd3101b61273e28e04ece4"),
        ("stringy pointcount -h", "fb939970214b530f2b6e7a029c6d936df2c00dd050e03e611e270686b5289bbd"),
        ("covers -h", "c8629d7f83e7e5b39755dac8668b4bbf1b49f577662afc1173c9c617707c5ebd"),
        ("covers reduce -h", "ba174e8ec0a1a5e51d735ee5b22832d5a113f261958ebf59b711c4f82a3720c3"),
        ("covers census -h", "ea36df8c7bb48fdf33b93bec650c7a245b04d15767ce9e3aebe9bd6ab7d0d742"),
        ("covers count -h", "e041f9aba9a7e1bafcb5d7634a39386532aff97b019d0091c409c4157b5ff42e"),
        ("verify -h", "c8b48ec047f15eed504f294d636c3f649b0babfdd8c3c3189f0e906c817f5a5d"),
        ("verify v3 -h", "30dbeeca5868c2d0947e6a862294757865f28d7b3ee86684ea667fe2e6aedd91"),
        ("verify v2v2 -h", "d8f4edaea518de963f75b17f1e05d3c62c91d808f924431a08cdb6557a7684f3"),
        ("verify reflection -h", "454ed9467de839216cccb4941c7f4a5070f5ac0d26bbe3aca5f01143c5f5e446"),
        ("suite -h", "07546daaa146f0e3cddf1afcc02d14a8c28e5ef424d8850a8ce7d2e206a22e36"),
        ("", "f6f61b3f76a7f5521302f26b25748e72ffaa266e5bca6811cd1d5c2f461b7be6"),
        ("--help", "9ab76f30248ed43562dcdc833daeecef2cc22110966330ab44886268408a8011"),
        ("--he", "9ab76f30248ed43562dcdc833daeecef2cc22110966330ab44886268408a8011"),
        ("stringy", "cd3d436d5fc3866879523e51f86413345059605de50fe111fe8dca40642f77b0"),
        ("stringy invariant", "a2ae23870d26ee2580018e49c9988218e01f473fe1874a835f0a3f5df38b5371"),
        ("stringy bogus", "f7627f03120f44b8e9f787de7d2a30b05ca4ba4358f648ec9c1267b43f6053da"),
        ("bogus", "ee06398ca40d92fd2fa440ccc8877e9cca53e95be4e16a8c4b53d10c57f2ec50"),
        ("stringy invariant --p x --dims 3", "f8a42481ceeb98952ced474d97b03821cfef303468f7fb6c9381d3b26e8bd7af"),
        ("covers census --p 3 --q 3 --max-exp 3 --max",
         "e54581fc408d6cd1a7e1008ec5ba47c313a919186b1a1de76635d8fd8fd7ee7a"),
        ("covers reduce --p 2 --q 4 --series -2:1", "ee624a269ace1f309ca28b7965e2d2525c74354c03ecd55e5256eb4fcb41f770"),
        ("suite --seed", "50e050bca941641855fff555fba420b813f56fb72a9c664b3186e78ddc3511cc"),
        ("verify v2v2 extra", "57242a098abf6ed14a019348942500c09c68267ee7dcbfc301fa49de357eba95"),
        ("--format xml suite", "e0cec3d30d25e662cc3e8ecc1c396b70e8dedabc3c8dc3cfe8c7fd1c8c6e24b0"),
        ("stringy pair --p 3 --a=-2 --stack=1", "0ac5e840d8157fdb5cf1753d56a8c4a75964bf704831e12e584675aec5112079"),
        ("covers count --p 2 --q 2", "7c61b4e0c5e72b21fa8cd82a3b3f4ef0e387780dff062152e36e7bee21bbc759"),
        ("verify v3 --p 5 --p 7", "b8b7552d07f5e342127e6689310dd21eb84adec2f2e11cddccef88d7036b32bc"),
        ("covers census --p 2 --q 2 --max-exp 3 -- --list-forms",
         "16af480188b31e064d4409b90e1b0787672b7143b4bb014bfea3a295cc29cf59"),
        ("stringy invariant --p=-3 --dims 3", "53fc6b1b9244a16c2d58d32cf1a70d9fb55584cd7b521d30c6173d5af3587bcf"),
    ]

    @pytest.mark.parametrize("line,digest", PARSER_TEXT, ids=lambda x: x[:40] or "(none)")
    def test_parser_text_is_frozen(self, capsys, monkeypatch, line, digest):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        try:
            code = main(line.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", ARGPARSE_EXITS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_output_and_exit_as_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as via_main:
            main(list(argv))
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as via_full:
            build_parser().parse_args(list(argv))
        assert printed.out or printed.err
        assert (via_main.value.code, printed) == (via_full.value.code, capsys.readouterr())

    def test_leading_global_flag_still_runs(self, capsys):
        code, out = run(capsys, "--format", "tsv", "suite", "--only", "duality")
        assert code == 0
        assert out == (
            'seed\t0\ncriteria[0].name\t"poincare-duality"\ncriteria[0].ok\ttrue\n'
            'criteria[0].checks\t55\ncriteria[0].details\t"all identities hold"\nall_ok\ttrue\n'
        )

    @pytest.mark.parametrize("argv", LEAVES, ids=" ".join)
    def test_valid_call_builds_only_its_leaf(self, capsys, monkeypatch, argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(list(argv)) == 0
        assert built == []


LEAF_PATHS = [path for path, entry in COMMANDS.items() if len(entry) == 3]
INT_TEXTS = st.integers(-10 ** 6, 10 ** 6).map(str) | st.sampled_from(["+3", " 7 ", "1_000", "\u0663"])
JUNK = st.sampled_from(["", "x", "3,3", "-1/2", "-2:1", "-5", "--", "-h", "0x10", "1.5", "=", "--p"]) | st.text(max_size=4)


def argparse_reads(argv):
    """vars() of the full parser's Namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def parser_values(flag, kind):
    return INT_TEXTS if kind is int else st.text(max_size=6)


@st.composite
def plain_calls(draw, paths=LEAF_PATHS, values=parser_values):
    """A leaf path, then its required options and some of the others in any
    order, each once by its exact flag, in the = or the space form; the
    value of an option is drawn from values(flag, kind)."""
    path = draw(st.sampled_from(paths))
    argv = list(path)
    options = [opt for opt in COMMANDS[path][2] if opt[2] is REQUIRED or draw(st.booleans())]
    for flag, kind, _, _ in draw(st.permutations(options)):
        if kind is bool:
            argv.append(flag)
            continue
        value = draw(values(flag, kind))
        argv += [f"{flag}={value}"] if value.startswith("-") or draw(st.booleans()) else [flag, value]
    return argv


@st.composite
def any_calls(draw):
    """Plain calls spoiled by abbreviations, repeats, switch values, junk
    values, missing options, stray tokens, a leading --format and paths
    that name no leaf."""
    path = draw(st.sampled_from(list(COMMANDS) + [(), ("bogus",), ("suite", "suite")]))
    entry = COMMANDS.get(path, (None, None, ()))
    flags = [opt[0] for opt in entry[2]] if len(entry) == 3 else ["--p"]
    argv = draw(st.sampled_from([[], ["--format", "tsv"], ["--format=json"]])) + list(path)
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(flags + ["--format", "-h", "--", "extra"]))
        flag = flag[:draw(st.integers(2, max(2, len(flag))))] if draw(st.booleans()) else flag
        value = draw(INT_TEXTS | JUNK)
        argv += draw(st.sampled_from([[flag], [f"{flag}={value}"], [flag, value]]))
    return argv


class TestParseMatchesArgparse:
    """parse(argv) is None or exactly what the full parser reads."""

    @settings(max_examples=300, deadline=None)
    @given(plain_calls())
    def test_plain_calls_are_read_without_argparse(self, argv):
        got = parse(argv)
        assert got is not None
        assert vars(got) == argparse_reads(argv)

    @settings(max_examples=500, deadline=None)
    @given(any_calls())
    def test_any_call_is_read_as_argparse_reads_it_or_left_to_it(self, argv):
        got = parse(argv)
        assert got is None or vars(got) == argparse_reads(argv)

    @settings(max_examples=300, deadline=None)
    @given(plain_calls(), st.data())
    def test_a_spoiled_plain_call_is_left_to_argparse_or_read_alike(self, argv, data):
        i = data.draw(st.integers(0, len(argv)))
        argv.insert(i, data.draw(st.sampled_from(["--", "-h", "--help", "x", "--p", "--stack=1", "--format"])))
        got = parse(argv)
        assert got is None or vars(got) == argparse_reads(argv)

    @pytest.mark.parametrize("argv", TestParserPaths.LEAVES, ids=" ".join)
    def test_the_benchmark_leaves_are_plain(self, argv):
        assert vars(parse(list(argv))) == argparse_reads(list(argv))


MERSENNE_PRIMES = [2 ** k - 1 for k in (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)]
BOUNDARY_INTS = st.integers(-7, 2 ** 128) | st.integers(-7, 64) | st.sampled_from(MERSENNE_PRIMES + [10 ** 9 + 7])
FUZZ_PATHS = [path for path in LEAF_PATHS if path != ("suite",)]


def smallest_klt_dim(p):
    """The least d with d(d - 1)/2 >= p: dims [d] is the smallest stringily-KLT type over p."""
    d = (math.isqrt(8 * p + 1) + 1) // 2
    return d if d * (d - 1) // 2 >= p else d + 1


def fraction_text(sign, a, b, over_zero):
    """The text of sign * a / b, or of sign * a / 0 when over_zero."""
    return f"{sign * a}/{0 if over_zero else b}"


@st.composite
def boundary_calls(draw):
    """A plain call of a leaf other than suite, on boundary values: ints from
    -7 to 2^128, Mersenne primes and 10^9 + 7, --q often a power of --p,
    --dims often the smallest KLT dims of --p, fractions of either sign, half
    of them over 0, and a --max-enum of at most 10^4 on every census: a
    census at the 10^7 input guard can take 8.5 s, past the alarm."""
    p = draw(BOUNDARY_INTS)
    ints = BOUNDARY_INTS.map(str)
    joined = st.lists(BOUNDARY_INTS, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
    fractions = st.builds(fraction_text, st.sampled_from([1, -1]), BOUNDARY_INTS, BOUNDARY_INTS, st.booleans())
    terms = st.lists(st.tuples(BOUNDARY_INTS, BOUNDARY_INTS), max_size=3).map(
        lambda pairs: ",".join("%d:%d" % pair for pair in pairs))
    texts = {
        "--p": st.just(str(p)),
        "--q": (ints | st.integers(1, 2).map(lambda e: str(p ** e))) if p > 1 else ints,
        "--dims": joined | st.text(max_size=6) | (st.just(str(smallest_klt_dim(p))) if p > 1 else joined),
        "--a": fractions | st.text(max_size=6),
        "--series": terms | st.text(max_size=6),
        "--max-enum": st.integers(-7, 10 ** 4).map(str),
    }
    argv = draw(plain_calls(FUZZ_PATHS, lambda flag, kind: texts.get(flag, ints)))
    if argv[:2] == ["covers", "census"] and not any(a.startswith("--max-enum") for a in argv):
        argv.append(f"--max-enum={draw(texts['--max-enum'])}")
    return argv


class Hang(BaseException):
    """A call outlived its alarm; not an Exception, so main cannot report it as exit 1."""


def hang(signum, frame):
    raise Hang


class TestBoundaryFuzz:
    """Every leaf but suite, on boundary values, ends within 5 s in exit 0
    (with a report the schema accepts), 2 or 3.  Derandomized, so that every
    run makes the same calls."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(boundary_calls())
    @example(["stringy", "invariant", "--p", "1000000007", "--dims", "44722"])  # the shift-number work guard
    @example(["stringy", "pair", "--p", "3", "--a=-10000000"])  # the degree guard: over 20 s without it
    def test_every_call_ends_in_an_exit_code(self, argv):
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3)
        if code == 0:  # reports print exact ints of any size, and the schema's errors quote them
            TestHugeIntegers.uncapped(lambda: jsonschema.validate(json.loads(out.getvalue()), SCHEMA))

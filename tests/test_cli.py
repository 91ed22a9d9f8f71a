import io
import math
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from zeroness.cli import main

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def model(name):
    return os.path.join(MODELS, name)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_zero_cdf_zero():
    code, out, _ = run("zero", model("sin2cos2.cdf"))
    assert code == 0
    assert out == "ZERO (chain length 0)\n"


def test_zero_wbpp_nonzero():
    code, out, _ = run("zero", model("running.wbpp"))
    assert code == 1
    assert out == "NONZERO (witness ab, value 1)\n"


def test_zero_wbpp_zero_model():
    code, out, _ = run("zero", model("zero.wbpp"))
    assert code == 0
    assert "ZERO (chain length 0)" in out


def test_zero_cdf_witness_monomial():
    code, out, _ = run("zero", model("sin.cdf"))
    assert code == 1
    assert out == "NONZERO (witness x1, value 1)\n"


def test_eval_running():
    code, out, _ = run("eval", model("running.wbpp"), "--word", "aabb")
    assert code == 0
    assert out == "2\n"


def digits_value(text):
    """The integer of the decimal ``text``, read 500 digits at a time, so
    that no conversion reaches the interpreter's limit."""
    n = 0
    for i in range(0, len(text), 500):
        chunk = text[i : i + 500]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_values_of_any_size_print_in_full(tmp_path, digit_limit):
    # a^n b^n takes S to X^n, with (n-1)!, then to 1, with n!
    word = "a" * 1000 + "b" * 1000
    code, out, err = run("eval", model("running.wbpp"), "--word", word)
    assert (code, err) == (0, "")
    assert len(out) - 1 > digit_limit
    assert digits_value(out[:-1]) == math.factorial(999) * math.factorial(1000)
    # an output weight of 7^8192, 6923 digits, under zero, coeffs and equiv
    big = tmp_path / "big.wbpp"
    big.write_text(WBPP_HEAD + "output S = ((7^64)^64)^2\ndelta a S = 0\n")
    nil = tmp_path / "nil.wbpp"
    nil.write_text(WBPP_HEAD + "output S = 0\ndelta a S = 0\n")
    for argv, want, head in (
        (("zero", str(big)), 1, "NONZERO (witness eps, value "),
        (("equiv", str(big), str(nil)), 1, "DIFFER (witness eps, value "),
        (("coeffs", str(big), "--max", "2"), 0, "eps "),
    ):
        code, out, err = run(*argv)
        assert (code, err) == (want, "")
        assert out.startswith(head) and out.endswith("\n")
        assert digits_value(out[len(head) :].rstrip(")\n")) == 7**8192
    # a series coefficient over a denominator
    series = tmp_path / "big.cdf"
    series.write_text("vars x1\ngens s\ninit s = (((1/7)^64)^64)^2\nd/dx1 s = s\nexpr = s\n")
    code, out, err = run("coeffs", str(series), "--max", "0")
    assert (code, err) == (0, "")
    num, den = out[len("1 ") : -1].split("/")
    assert (num, digits_value(den)) == ("1", 7**8192)


def test_oversized_literal_is_a_parse_error(tmp_path, digit_limit):
    bad = tmp_path / "literal.wbpp"
    bad.write_text(WBPP_HEAD + "output S = " + "7" * (digit_limit + 1) + "\n")
    for argv in (("eval", str(bad), "--word", "a"), ("zero", str(bad)), ("check", str(bad))):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 4: a literal of {digit_limit + 1} digits exceeds "
            f"the limit of {digit_limit} digits\n"
        )
    # a literal at the limit is read
    bad.write_text(WBPP_HEAD + "output S = " + "7" * digit_limit + "\ndelta a S = 0\n")
    code, out, err = run("coeffs", str(bad), "--max", "0")
    assert (code, err) == (0, "")
    assert out == "eps " + "7" * digit_limit + "\n"


def test_eval_zero_value():
    code, out, _ = run("eval", model("running.wbpp"), "--word", "a")
    assert code == 0
    assert out == "0\n"


def test_equiv_cdf():
    code, out, _ = run("equiv", model("e2x_direct.cdf"), model("e2x_squared.cdf"))
    assert code == 0
    assert out.startswith("EQUIVALENT")


def test_equiv_sinh():
    code, out, _ = run(
        "equiv", model("sinh_restriction.cdf"), model("sinh_closure.cdf")
    )
    assert code == 0
    assert out.startswith("EQUIVALENT")


def test_equiv_wbpp_self():
    code, out, _ = run("equiv", model("running.wbpp"), model("running.wbpp"))
    assert code == 0


def test_equiv_mixed_kind_usage_error():
    code, _, err = run("equiv", model("running.wbpp"), model("sin.cdf"))
    assert code == 2
    assert "error" in err


def test_coeffs_wbpp():
    code, out, _ = run("coeffs", model("running.wbpp"), "--max", "4")
    assert code == 0
    assert out == "ab 1\naabb 2\n"


def test_coeffs_cdf():
    code, out, _ = run("coeffs", model("cayley.cdf"), "--max", "5")
    assert code == 0
    assert out == "x1 1\nx1^2 2\nx1^3 9\nx1^4 64\nx1^5 625\n"


def test_coeffs_spec():
    code, out, _ = run("coeffs", model("bell.spec"), "--max", "4")
    assert code == 0
    assert out == "1 1\nx1 1\nx1^2 2\nx1^3 5\nx1^4 15\n"


def test_coeffs_negative_bound_is_a_usage_error():
    for name in ("running.wbpp", "cayley.cdf", "bell.spec"):
        code, out, err = run("coeffs", model(name), "--max", "-1")
        assert code == 2
        assert out == ""
        assert "--max: must be at least 0, got -1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--max-degree", "-1", "zero", "sin2cos2.cdf"),
            "--max-degree: must be at least 0, got -1",
        ),
        (("--max-basis", "-1", "zero", "sin2cos2.cdf"), "--max-basis: must be at least 0, got -1"),
        (
            ("--timeout-iterations", "-5", "zero", "sin2cos2.cdf"),
            "--timeout-iterations: must be at least 0, got -5",
        ),
        (("check", "--jobs", "-2", "sin.cdf"), "--jobs: must be at least 1, got -2"),
    ],
    ids=["max-degree", "max-basis", "timeout-iterations", "jobs"],
)
def test_invalid_cap_is_a_usage_error(argv, message):
    argv = [model(a) if a.endswith(".cdf") else a for a in argv]
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_zero_basis_cap_is_inconclusive():
    # the one input generator already exceeds a basis cap of 0
    code, out, _ = run("--max-basis", "0", "zero", model("sin2cos2.cdf"))
    assert code == 4
    assert out == "INCONCLUSIVE_RESOURCE_LIMIT (resource cap 'max_basis' exceeded: 1 > 0)\n"


def test_equipotent_equal():
    code, out, _ = run("equipotent", model("seq.spec"), model("seq_via_fix.spec"))
    assert code == 0
    assert out.startswith("EQUIVALENT")


def test_equipotent_differ():
    code, out, _ = run("equipotent", model("set.spec"), model("seq.spec"))
    assert code == 1
    assert out == "DIFFER (witness x1^2, value -1)\n"


def test_compile_species(tmp_path):
    target = str(tmp_path / "bell.cdf")
    code, out, _ = run("compile-species", model("bell.spec"), "-o", target)
    assert code == 0
    code2, out2, _ = run("coeffs", target, "--max", "5")
    assert code2 == 0
    assert out2 == "1 1\nx1 1\nx1^2 2\nx1^3 5\nx1^4 15\nx1^5 52\n"


def test_not_well_posed_exit_code():
    code, out, err = run("zero", model("not_well_posed.spec"))
    assert code == 3
    assert "error" in err


def test_resource_limit_exit_code():
    # self-equivalence of the tree system needs configurations beyond
    # degree 3, so the tiny cap must end in an inconclusive exit
    code, out, _ = run(
        "--max-degree", "3", "equiv", model("cayley.cdf"), model("cayley.cdf")
    )
    assert code == 4
    assert out.startswith("INCONCLUSIVE_RESOURCE_LIMIT")
    code, out, _ = run(
        "--stats", "--max-degree", "3", "equiv", model("cayley.cdf"), model("cayley.cdf")
    )
    assert code == 4
    assert "chain length: 1" in out and "basis size: 2" in out


def test_verdict_under_tiny_caps_still_fine():
    # queries that stay within the cap still produce their verdict
    code, out, _ = run("--max-degree", "3", "zero", model("sin2cos2.cdf"))
    assert code == 0


def test_stats_flag():
    code, out, _ = run("--stats", "zero", model("sin2cos2.cdf"))
    assert code == 0
    assert "chain length: 0" in out and "basis size: 1" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cdf"
    bad.write_text("vars x1\ngens f\nexpr = g\n")
    code, _, err = run("zero", str(bad))
    assert code == 2
    assert "error" in err


def test_huge_power_is_a_parse_error(tmp_path):
    bad = tmp_path / "power.cdf"
    bad.write_text("vars x1\ngens s\ninit s = 0\nd/dx1 s = (s+1)^3000\nexpr = s\n")
    start = time.perf_counter()
    code, _, err = run("check", str(bad))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "degree cap" in err


def test_huge_products_are_parse_errors(tmp_path):
    for name, expr in (
        ("nested", "((s+1)^32)^32"),
        ("product", "*".join(["(s+1)^64"] * 16)),
    ):
        bad = tmp_path / f"{name}.cdf"
        bad.write_text(f"vars x1\ngens s\ninit s = 0\nd/dx1 s = 1\nexpr = {expr}\n")
        start = time.perf_counter()
        code, _, err = run("zero", str(bad))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "degree cap" in err


@pytest.mark.parametrize(
    "constraint, size",
    [
        ("z1 % 61 == 0 || z1 % 64 == 0", 61 * 64),
        ("z1 % 61 == 0 || z1 % 64 == 0 || z1 % 59 == 0", 59 * 61 * 64),
    ],
    ids=["lcm-3904", "lcm-230336"],
)
def test_large_recognizer_is_a_resource_limit(tmp_path, constraint, size):
    # each constant is within the degree cap, but the moduli's lcm is not
    path = tmp_path / "restricted.cdf"
    path.write_text(f"vars x1\ngens e\ninit e = 1\nd/dx1 e = e\nexpr = restrict(e; {constraint})\n")
    start = time.perf_counter()
    code, out, err = run("check", str(path))
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert err == (
        f"INCONCLUSIVE_RESOURCE_LIMIT (resource cap 'recognizer_size' exceeded: {size} > 1024)\n"
    )



def test_restriction_work_is_a_resource_limit(tmp_path):
    # 960 elements are within the recognizer cap, but s*c splits into
    # 960 * 960 terms over them: past the cap on a restriction's terms
    path = tmp_path / "restricted.cdf"
    path.write_text(
        "vars x1\ngens s c\ninit s = 0\ninit c = 1\nd/dx1 s = c\nd/dx1 c = -s\n"
        "expr = restrict(s*c + s^2; z1 % 64 == 0 || z1 % 15 == 1)\n"
    )
    start = time.perf_counter()
    code, out, err = run("check", str(path))
    assert time.perf_counter() - start < 5
    assert code == 4
    assert out == ""
    assert err == (
        "INCONCLUSIVE_RESOURCE_LIMIT (resource cap 'restriction_terms' exceeded: "
        "924480 > 200000)\n"
    )

WBPP_HEAD = "alphabet a\nnonterminals S\nstart S\n"
CDF_HEAD = "vars x1\ngens s\ninit s = 1\nd/dx1 s = s\n"


@pytest.mark.parametrize(
    "name, text",
    [
        ("letter.spec", "species Bell {\n  restrict(SET(X1); z1 == x)\n}\n"),
        ("letter.cdf", CDF_HEAD + "expr = restrict(s; z1 >= q)\n"),
        ("power.wbpp", WBPP_HEAD + "delta a S = 2^65 * S\n"),
        ("output.wbpp", WBPP_HEAD + "output S = 1 + S\n"),
        ("init.cdf", "vars x1\ngens s\ninit s = 2*s + 1/2\nexpr = s\n"),
        ("alphabet.wbpp", "alphabet a a\nnonterminals S\nstart S\n"),
        ("delta.wbpp", WBPP_HEAD + "delta a S = S\ndelta a S = 1\n"),
        ("gens.cdf", "vars x1\ngens s s\nexpr = s\n"),
        ("nested.cdf", CDF_HEAD + "expr = " + "(" * 400 + "s" + ")" * 400 + "\n"),
    ],
)
def test_malformed_models_exit_2(tmp_path, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    code, out, err = run("coeffs", str(bad), "--max", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_missing_file_exit_code():
    code, _, err = run("zero", "/no/such/file.cdf")
    assert code == 2


def test_usage_error_exit_code():
    code, _, _ = run("zero")
    assert code == 2


def test_check_command():
    code, out, _ = run(
        "check", model("running.wbpp"), model("sin2cos2.cdf"), model("cayley.spec")
    )
    assert code == 0
    assert out.count("OK") == 3


def test_check_flags_ill_posed():
    code, out, _ = run("check", model("not_well_posed.spec"))
    assert code == 3
    assert "not well posed" in out


NESTED_FIX = """sorts 1
species Nested {
  fix { A = X1 + X1 * fix { B = X1 * A + X1 * B } in B } in A
}
"""


def test_check_nested_fixpoint_sees_its_enclosing_binder(tmp_path):
    # the inner block mentions A, which the outer block binds
    path = tmp_path / "nested.spec"
    path.write_text(NESTED_FIX)
    code, out, err = run("check", str(path))
    assert (code, err) == (0, "")
    assert out == f"== {path}\n  species Nested: compiles (order 8)\n  OK\n"
    code, out, _ = run("coeffs", str(path), "--max", "5")
    assert code == 0
    assert out == "x1 1\nx1^3 6\nx1^4 24\nx1^5 240\n"
    # an ill-posed inner block is diagnosed, not reported as unbound
    path.write_text(NESTED_FIX.replace("X1 * B", "B"))
    code, out, err = run("check", str(path))
    assert (code, err) == (3, "")
    assert "not well posed: Jacobian at the origin is not nilpotent" in out


def test_check_reports_a_nested_block_once(tmp_path):
    # the inner block is ill posed; the outer one, whose check would solve
    # it, adds nothing
    path = tmp_path / "nested.spec"
    path.write_text(
        "sorts 1\nspecies N {\n"
        "  fix { A = X1 + X1 * fix { B = X1 * A + B } in B } in A\n}\n"
    )
    code, out, err = run("check", str(path))
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        f"== {path}",
        "  not well posed: Jacobian at the origin is not nilpotent",
        "  FAIL",
    ]


def test_coeffs_word_count_is_capped():
    # 2 letters: 2^(N+1) - 1 words up to length N, 511 for N = 8
    coeffs8 = ("coeffs", model("running.wbpp"), "--max", "8")
    code, out, _ = run(*coeffs8)
    assert code == 0
    assert out == (
        "ab 1\naabb 2\naaabbb 12\naababb 4\naaaabbbb 144\naaababbb 72\n"
        "aaabbabb 24\naabaabbb 24\naabababb 8\n"
    )
    assert run("--timeout-iterations", "511", *coeffs8) == (code, out, "")
    code, out, err = run("--timeout-iterations", "510", *coeffs8)
    assert (code, out) == (4, "")
    assert err == (
        "INCONCLUSIVE_RESOURCE_LIMIT (resource cap 'max_iterations' exceeded: 511 > 510)\n"
    )
    # at the default cap, 200000, length 17 is the first refused
    start = time.perf_counter()
    code, out, err = run("coeffs", model("running.wbpp"), "--max", "40")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err.startswith("INCONCLUSIVE_RESOURCE_LIMIT (resource cap 'max_iterations'")
    assert run("coeffs", model("running.wbpp"), "--max", "17")[:2] == (4, "")


def test_coeffs_of_a_series_are_capped():
    # n^(n-1) labelled rooted trees of size n
    coeffs8 = ("coeffs", model("cayley.cdf"), "--max", "8")
    assert run(*coeffs8) == (
        0,
        "x1 1\nx1^2 2\nx1^3 9\nx1^4 64\nx1^5 625\nx1^6 7776\nx1^7 117649\nx1^8 2097152\n",
        "",
    )
    # past the degree cap (64 by default), or past the iteration cap by the
    # C(200 + 1, 1) = 201 coefficients of one axis, before any table is built
    for argv, err in (
        ((), "resource cap 'max_degree' exceeded: 200 > 64"),
        (
            ("--max-degree", "300", "--timeout-iterations", "100"),
            "resource cap 'max_iterations' exceeded: 201 > 100",
        ),
    ):
        start = time.perf_counter()
        result = run(*argv, "coeffs", model("cayley.cdf"), "--max", "200")
        assert time.perf_counter() - start < 1
        assert result == (4, "", f"INCONCLUSIVE_RESOURCE_LIMIT ({err})\n")


def test_check_jobs():
    code, out, _ = run(
        "check", "--jobs", "2", model("running.wbpp"), model("sin.cdf")
    )
    assert code == 0
    # output order follows input order regardless of jobs
    assert out.index("running.wbpp") < out.index("sin.cdf")


def test_deterministic_output():
    first = run("coeffs", model("cayley.spec"), "--max", "5")
    second = run("coeffs", model("cayley.spec"), "--max", "5")
    assert first == second
    a = run("--stats", "zero", model("running.wbpp"))
    b = run("--stats", "zero", model("running.wbpp"))
    assert a == b


def test_bpp_multiplicity_equivalence():
    code, out, _ = run("equiv", model("running.bpp"), model("running.wbpp"))
    assert code == 0
    assert out.startswith("EQUIVALENT")


def test_compiled_species_equivalent_to_source(tmp_path):
    target = str(tmp_path / "cayley.cdf")
    code, _, _ = run("compile-species", model("cayley.spec"), "-o", target)
    assert code == 0
    code, out, _ = run("equiv", target, model("cayley.cdf"))
    assert code == 0
    assert out.startswith("EQUIVALENT")


def test_subprocess_determinism():
    import subprocess
    import sys as _sys

    cmd = [_sys.executable, "-m", "zeroness.cli", "coeffs", model("bell.spec"),
           "--max", "5"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_nonzero_at_origin_prints_unit_monomial():
    code, out, _ = run("zero", model("exp.cdf"))
    assert code == 1
    assert out == "NONZERO (witness 1, value 1)\n"

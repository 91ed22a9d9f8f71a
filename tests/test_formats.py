import glob
import os
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroness import cdf as C
from zeroness import constraints as K
from zeroness import formats as F
from zeroness import species as S
from zeroness import wbpp as W
from zeroness.cli import _PRECONDITION_ERRORS
from zeroness.errors import ParseError, ResourceLimitExceeded
from zeroness.poly import Context

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


@pytest.fixture
def ctx():
    return Context(["x", "y"])


def test_parse_poly_literals(ctx):
    assert F.parse_poly("3", ctx) == ctx.const(3)
    assert F.parse_poly("-5/2", ctx) == ctx.const(Fraction(-5, 2))
    assert F.parse_poly("x^2 - y", ctx) == ctx.var("x") ** 2 - ctx.var("y")
    assert F.parse_poly("2 * (x + y) * x", ctx) == 2 * (
        ctx.var("x") + ctx.var("y")
    ) * ctx.var("x")
    assert F.parse_poly("-x^2", ctx) == -(ctx.var("x") ** 2)


def test_parse_poly_rejects_implicit_multiplication(ctx):
    with pytest.raises(ParseError):
        F.parse_poly("2 x", ctx)
    with pytest.raises(ParseError):
        F.parse_poly("x y", ctx)


def test_parse_poly_rejects_unknowns(ctx):
    with pytest.raises(ParseError):
        F.parse_poly("z + 1", ctx)
    # restrict is a keyword of .cdf expressions only
    with pytest.raises(ParseError, match="unknown variable 'restrict'"):
        F.parse_poly("restrict(x; z1 == 0)", ctx)


def test_parse_rejects_powers_beyond_the_degree_cap(ctx):
    # expanding these would take tens of seconds; the cap is checked first
    start = time.perf_counter()
    with pytest.raises(ParseError, match="degree cap"):
        F.parse_poly("(x+1)^3000", ctx)
    with pytest.raises(ParseError, match="degree cap"):
        F.parse_cdf("vars x1\ngens s\ninit s = 0\nd/dx1 s = (s+1)^3000\nexpr = s\n")
    with pytest.raises(ParseError, match="degree cap"):
        F.parse_cdf("vars x1\ngens s\ninit s = 0\nd/dx1 s = 1\nexpr = (s+1)^3000\n")
    # a constant power is capped at its exponent, as its cost grows with it
    with pytest.raises(ParseError, match="degree cap"):
        F.parse_poly("2^65", ctx)
    with pytest.raises(ParseError, match="degree cap"):
        F.parse_wbpp("alphabet a\nnonterminals S\nstart S\noutput S = 2^10000000\n")
    # a series power is that many closure products
    with pytest.raises(ParseError, match="degree cap"):
        F.parse_cdf("vars x1\ngens s\ninit s = 0\nd/dx1 s = 1\nexpr = restrict(s; true)^65\n")
    assert time.perf_counter() - start < 1
    assert F.parse_poly("(x+1)^64", ctx).degree == 64
    assert F.parse_poly("2^64", ctx) == ctx.const(2**64)


# Degree 1024 built from pieces each within the cap: a power of a power,
# and a product of sixteen capped powers.
NESTED_POWER = "((s+1)^32)^32"
LONG_PRODUCT = "*".join(["(s+1)^64"] * 16)


def test_parse_rejects_products_beyond_the_degree_cap():
    ctx = Context(["s"])
    start = time.perf_counter()
    for text in (NESTED_POWER, LONG_PRODUCT):
        with pytest.raises(ParseError, match="degree cap"):
            F.parse_poly(text, ctx)
        with pytest.raises(ParseError, match="degree cap"):
            F.parse_cdf(f"vars x1\ngens s\ninit s = 0\nd/dx1 s = {text}\nexpr = s\n")
        with pytest.raises(ParseError, match="degree cap"):
            F.parse_cdf(f"vars x1\ngens s\ninit s = 0\nd/dx1 s = 1\nexpr = {text}\n")
    assert time.perf_counter() - start < 1
    assert F.parse_poly("(s+1)^32*(s+1)^32", ctx).degree == 64


def test_poly_print_parse_round_trip(ctx):
    import random

    from test_poly import rand_poly

    rng = random.Random(3)
    for _ in range(40):
        p = rand_poly(ctx, rng)
        assert F.parse_poly(str(p), ctx) == p


def test_parse_constraint():
    c = F.parse_constraint("z1 % 2 == 1 && z2 == 0")
    assert K.contains(c, (1, 0))
    assert not K.contains(c, (2, 0))
    assert not K.contains(c, (1, 1))
    c2 = F.parse_constraint("!(z1 == 0) || z1 >= 3")
    assert K.contains(c2, (1,)) and K.contains(c2, (5,)) and not K.contains(c2, (0,))
    c3 = F.parse_constraint("z1 <= 1")
    assert K.contains(c3, (0,)) and K.contains(c3, (1,)) and not K.contains(c3, (2,))


@pytest.mark.parametrize(
    "text", ["z1 >= q", "z1 == -1", "z1 % m == 0", "z1 % 2 == r", "z1 <= (1)"]
)
def test_parse_constraint_rejects_non_numbers(text):
    with pytest.raises(ParseError, match="must be a number"):
        F.parse_constraint(text)


def test_wbpp_round_trip_and_warnings():
    text = """# running example
alphabet a b
nonterminals S X
start S
output S = 0
delta a S = X
delta a X = X^2
delta b X = 1
"""
    model, warnings = F.parse_wbpp(text)
    assert "output X defaults to 0" in warnings
    assert "delta b S defaults to 0" in warnings
    assert W.evaluate(model, model.start, "aabb") == 2
    printed = F.format_wbpp(model)
    again, warnings2 = F.parse_wbpp(printed)
    assert F.format_wbpp(again) == printed
    # printing is explicit, so no warnings the second time
    assert not any("output" in w for w in warnings2)


def test_wbpp_output_must_be_constant():
    with pytest.raises(ParseError, match="line 4: expected a constant"):
        F.parse_wbpp("alphabet a\nnonterminals S\nstart S\noutput S = 1 + S\n")
    model, _ = F.parse_wbpp("alphabet a\nnonterminals S\nstart S\noutput S = 2 * 3/4 - 1\n")
    assert model.output("S") == Fraction(1, 2)


def test_cdf_init_must_be_constant():
    with pytest.raises(ParseError, match="line 3: expected a constant"):
        F.parse_cdf("vars x1\ngens s\ninit s = 2*s + 1/2\nd/dx1 s = 1\nexpr = s\n")
    with pytest.raises(ParseError, match="line 3: expected a constant"):
        F.parse_cdf("vars x1\ngens s\ninit s = x1\nd/dx1 s = 1\nexpr = s\n")


WBPP_HEAD = "alphabet a\nnonterminals S\nstart S\n"
CDF_HEAD = "vars x1\ngens s\n"


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (F.parse_wbpp, "alphabet a a\nnonterminals S\nstart S\n", 1),
        (F.parse_wbpp, "alphabet a\nnonterminals S T S\nstart S\n", 2),
        (F.parse_wbpp, WBPP_HEAD + "alphabet b\n", 4),
        (F.parse_wbpp, WBPP_HEAD + "start S\n", 4),
        (F.parse_wbpp, WBPP_HEAD + "output S = 1\noutput S = 2\n", 5),
        (F.parse_wbpp, WBPP_HEAD + "delta a S = S\n# comment\ndelta a S = 1\n", 6),
        (F.parse_bpp, "start X\nrule X = a.end\nstart X\n", 3),
        (F.parse_cdf, "vars x1 x1\ngens s\nexpr = s\n", 1),
        (F.parse_cdf, "vars x1\ngens s t s\nexpr = s\n", 2),
        (F.parse_cdf, "vars x1\ngens s x1\nexpr = s\n", 2),
        (F.parse_cdf, CDF_HEAD + "vars x2\nexpr = s\n", 3),
        (F.parse_cdf, CDF_HEAD + "init s = 1\ninit s = 0\nexpr = s\n", 4),
        (F.parse_cdf, CDF_HEAD + "init t = 1\nexpr = s\n", 3),
        (F.parse_cdf, CDF_HEAD + "d/dx1 s = 1\nd/dx1 s = s\nexpr = s\n", 4),
        (F.parse_cdf, CDF_HEAD + "expr = s\nexpr = 2*s\n", 4),
    ],
)
def test_duplicate_declarations_are_errors(parse, text, line):
    with pytest.raises(ParseError, match=f"^line {line}: "):
        parse(text)


def test_wbpp_parse_errors():
    with pytest.raises(ParseError):
        F.parse_wbpp("nonterminals S\nstart S\n")  # no alphabet
    with pytest.raises(ParseError):
        F.parse_wbpp("alphabet a\nnonterminals S\nstart T\n")
    with pytest.raises(ParseError):
        F.parse_wbpp("alphabet a\nnonterminals S\nstart S\ndelta a S = T\n")
    with pytest.raises(ParseError):
        F.parse_wbpp("alphabet a\nnonterminals S\nstart S\nbogus line\n")


def test_cdf_round_trip():
    text = """vars x1
gens s c
init s = 0
init c = 1
d/dx1 s = c
d/dx1 c = -s
expr = s^2 + c^2 - 1
"""
    series = F.parse_cdf(text)
    printed = F.format_cdf(series)
    again = F.parse_cdf(printed)
    assert F.format_cdf(again) == printed
    assert again.system.generator_names() == series.system.generator_names()
    assert again.system.init == series.system.init


def test_cdf_autonomizes_on_load():
    series = F.parse_cdf(
        "vars x1\ngens f\ninit f = 1\nd/dx1 f = 2 * x1 * f\nexpr = f\n"
    )
    assert series.system.order == 2
    assert C.coeff_table(series, 4).univariate_list() == [1, 0, 2, 0, 12]


def test_cdf_expr_with_restriction():
    series = F.parse_cdf(
        "vars x1\ngens e\ninit e = 1\nd/dx1 e = e\n"
        "expr = restrict(e; z1 % 2 == 1)\n"
    )
    assert C.coeff_table(series, 5).univariate_list() == [0, 1, 0, 1, 0, 1]


def test_cdf_expr_mixing_restriction_and_arithmetic():
    series = F.parse_cdf(
        "vars x1\ngens e\ninit e = 1\nd/dx1 e = e\n"
        "expr = e - restrict(e; z1 % 2 == 1) - restrict(e; z1 % 2 == 0)\n"
    )
    table = C.coeff_table(series, 6)
    assert all(v == 0 for v in table.coeffs.values())


def test_cdf_parse_errors():
    with pytest.raises(ParseError):
        F.parse_cdf("gens f\nexpr = f\n")  # no vars
    with pytest.raises(ParseError):
        F.parse_cdf("vars x1\ngens f\nd/dx1 g = f\nexpr = f\n")
    with pytest.raises(ParseError):
        F.parse_cdf("vars x1\ngens f\nexpr = g\n")


def test_spec_round_trip():
    text = """sorts 1
species Cayley {
  fix { Y = X1 * SET(Y) } in Y
}
"""
    name, expr, sorts = F.parse_spec(text)
    assert name == "Cayley" and sorts == 1
    assert expr == S.Fix((("Y", S.Prod(S.Atom(1), S.Set(S.Ref("Y")))),), "Y")
    printed = F.format_spec(name, expr, sorts)
    again = F.parse_spec(printed)
    assert again == (name, expr, sorts)


def test_spec_compose_and_restrict():
    text = """species Bell {
  compose(SET(B); B <- restrict(SET(X1); z1 >= 1))
}
"""
    name, expr, sorts = F.parse_spec(text)
    counts = S.count_table(expr, sorts, 5)
    assert counts.univariate_list() == [1, 1, 2, 5, 15, 52]
    again = F.parse_spec(F.format_spec(name, expr, sorts))
    assert again[1] == expr


def test_spec_multiple_bindings():
    text = """species Pair {
  fix { A = X1 * SET(B); B = X1 * SET(A) } in A
}
"""
    _, expr, _ = F.parse_spec(text)
    assert len(expr.bindings) == 2
    again = F.parse_spec(F.format_spec("Pair", expr, 1))
    assert again[1] == expr


def test_spec_parse_errors():
    with pytest.raises(ParseError):
        F.parse_spec("species X {")
    with pytest.raises(ParseError):
        F.parse_spec("species B { fix { X1 = X1 } in X1 }")  # binder shadows atom
    with pytest.raises(ParseError):
        F.parse_spec("sorts 0\nspecies B { X1 }")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "sorts 1\nspecies Bell {\n  restrict(SET(X1); z1 == x)\n}\n",
            "line 3: bound must be a number, got 'x'",
        ),
        ("species S {\n  SET(X1) $\n}\n", "line 2: unexpected character '$'"),
        ("species S {\n  X1\n\n", "line 2: unexpected end of input"),
        ("# comment\nspecies S { X1 }\n\n}\n", "line 4: trailing input '}'"),
    ],
    ids=["bound", "character", "end", "trailing"],
)
def test_spec_parse_errors_name_the_line(text, message):
    with pytest.raises(ParseError) as exc:
        F.parse_spec(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (F.parse_wbpp, "alphabet a\nnonterminals S\nstart S\noutput S = {}\n", 4),
        (F.parse_wbpp, "alphabet a\nnonterminals S\nstart S\ndelta a S = 1/{} * S\n", 4),
        (F.parse_wbpp, "alphabet a\nnonterminals S\nstart S\ndelta a S = S^{}\n", 4),
        (F.parse_cdf, "vars x1\ngens s\ninit s = 0\n\nexpr = restrict(s; z1 >= {})\n", 5),
        (F.parse_cdf, "vars x1\ngens s\ninit s = 0\nexpr = restrict(s; z{} == 0)\n", 4),
        (F.parse_spec, "sorts 1\nspecies S {{\n  X1 +\n  X{}\n}}\n", 4),
        (F.parse_spec, "species S {{\n  restrict(SET(X1); z1 % {} == 0)\n}}\n", 2),
    ],
    ids=["output", "denominator", "exponent", "bound", "axis", "atom", "modulus"],
)
def test_oversized_literal_is_a_parse_error_on_its_line(parse, text, line, digit_limit):
    # the interpreter's limit on converted digits guards every literal
    digits = "7" * (digit_limit + 1)
    with pytest.raises(ParseError) as exc:
        parse(text.format(digits))
    assert str(exc.value) == (
        f"line {line}: a literal of {digit_limit + 1} digits exceeds "
        f"the limit of {digit_limit} digits"
    )
    assert exc.value.line == line


EXP_CDF = "vars x1\ngens e\ninit e = 1\nd/dx1 e = e\n"


@pytest.mark.parametrize(
    "parse, text, line, what",
    [
        (F.parse_cdf, EXP_CDF + "expr = restrict(e; z1 >= {})\n", 5, "bound"),
        (F.parse_cdf, EXP_CDF + "expr = restrict(e; z1 % {} == 1)\n", 5, "modulus"),
        (F.parse_spec, "sorts 1\nspecies S {{\n  restrict(SET(X1); z1 <= {})\n}}\n", 3, "bound"),
        (F.parse_spec, "species S {{\n\n  restrict(SET(X1); z1 % 64 == {})\n}}\n", 3, "residue"),
        (lambda text: F.parse_constraint(text, 7), "z1 == 2 && !(z1 % {} == 0)", 7, "modulus"),
    ],
    ids=["cdf-bound", "cdf-modulus", "spec-bound", "spec-residue", "constraint"],
)
def test_constraint_constant_is_capped_on_its_line(parse, text, line, what):
    # a restriction builds a monoid about as large as its constant: the
    # constant is capped like a degree, at 64
    parse(text.format(64))
    with pytest.raises(ParseError) as exc:
        parse(text.format(65))
    assert str(exc.value) == f"line {line}: a {what} of 65 exceeds the degree cap 64"
    assert exc.value.line == line


def test_coefficients_of_any_size_print_in_full(ctx, digit_limit):
    # 7^8192 has 6923 digits; each piece is read below the limit
    x = ctx.var("x")
    head, _, tail = str(Fraction(-(7**8192), 3) * x + 1).partition("/")
    assert head[0] == "-" and tail == "3*x + 1"
    value = 0
    for i in range(1, len(head), digit_limit):
        piece = head[i : i + digit_limit]
        value = value * 10 ** len(piece) + int(piece)
    assert value == 7**8192


def test_load_model_dispatch(tmp_path):
    p = tmp_path / "m.wbpp"
    p.write_text("alphabet a\nnonterminals S\nstart S\noutput S = 1\n")
    kind, model, warnings = F.load_model(str(p))
    assert kind == "wbpp"
    q = tmp_path / "m.unknown"
    q.write_text("")
    with pytest.raises(ParseError):
        F.load_model(str(q))


def test_bpp_parse_and_round_trip():
    text = """start S
rule S = a.X
rule X = a.(X|X) + b.end
"""
    spec = F.parse_bpp(text)
    assert spec.start == "S"
    assert spec.rules["X"] == (("a", ("X", "X")), ("b", ()))
    printed = F.format_bpp(spec)
    assert F.parse_bpp(printed) == spec


def test_bpp_default_start_is_first_rule():
    spec = F.parse_bpp("rule T = a.end\nrule U = a.T\n")
    assert spec.start == "T"


def test_bpp_rejects_unguarded():
    with pytest.raises(ParseError):
        F.parse_bpp("rule X = X\n")
    with pytest.raises(ParseError):
        F.parse_bpp("rule X = a.X + Y\n")


def test_bpp_load_model_gives_process(tmp_path):
    p = tmp_path / "m.bpp"
    p.write_text("rule X = a.end + a.end\n")
    kind, model, _ = F.load_model(str(p))
    assert kind == "wbpp"
    assert W.evaluate(model, model.start, "a") == 2


# Whitespace runs, words and operators: joining the pieces gives the text back.
_PIECES = re.compile(r"\s+|\w+|<-|==|&&|\|\||>=|<=|\S")
# Directives, keywords, operators and names of the four grammars.
_FUZZ_TOKENS = (
    "alphabet nonterminals start output delta rule end vars gens init d/dx1 expr "
    "sorts species SET CYC SEQ restrict compose fix in true "
    "0 1 2 65 z1 z2 X1 X2 S X a b s c e x1 q "
    "+ - * ^ / ( ) { } ; = , ! % <- == && || >= <= | ."
).split() + [" ", "\n"]
_BOWS_OUT = (ParseError, ResourceLimitExceeded) + _PRECONDITION_ERRORS


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("ext", [".wbpp", ".bpp", ".cdf", ".spec"])
@given(
    pick=st.integers(0, 2**16),
    edits=st.lists(
        st.tuples(st.sampled_from("ids"), st.integers(0, 2**16), st.sampled_from(_FUZZ_TOKENS)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_mutated_models_parse_or_bow_out(fuzz_dir, ext, pick, edits):
    # Insert, delete or substitute tokens in a bundled model: loading it
    # gives a model or one of the errors the CLI maps to exit 2, 3 or 4.
    models = sorted(glob.glob(os.path.join(MODELS, "*" + ext)))
    with open(models[pick % len(models)], encoding="utf-8") as fh:
        pieces = _PIECES.findall(fh.read())
    for kind, at, tok in edits:
        at %= len(pieces) + 1
        if kind == "i":
            pieces.insert(at, tok)
        elif at < len(pieces):
            if kind == "d":
                del pieces[at]
            else:
                pieces[at] = tok
    path = fuzz_dir / f"mutated{ext}"
    path.write_text("".join(pieces), encoding="utf-8")
    try:
        F.load_model(str(path))
    except _BOWS_OUT:
        pass

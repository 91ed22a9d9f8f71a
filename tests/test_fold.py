"""Words of derivations run packed: ``delta_word`` folds one packed
kernel per letter, and ``coeff_via_lie`` and ``wbpp.evaluate`` fold every
letter but the last two, then evaluate those two in one pass at a
second-order jet of the point, so an exponent cap fires only in a fold
that is built.  Each must give what the plain-Fraction reference below
gives: apply the derivation letter by letter to dense exponent tuples,
then evaluate."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroness import _system, cli
from zeroness import cdf as C
from zeroness import wbpp as W
from zeroness.errors import ContextMismatch, ResourceLimitExceeded
from oracles import dense, packed
from zeroness.poly import _MAX_EXPONENT, Context, Derivation, Poly, _evaluate

GENERATORS = ("a", "b", "c")
LETTERS = ("p", "q")

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
coordinates = st.one_of(st.just(Fraction(0)), fractions)


def ref_derive(images, p):
    """The derivation with ``images`` (variable -> dense polynomial) of the
    dense polynomial ``p``, a dict from exponent tuples to Fractions."""
    out = {}
    for exps, c in p.items():
        for v, e in enumerate(exps):
            if e == 0 or v not in images:
                continue
            rest = exps[:v] + (e - 1,) + exps[v + 1 :]
            for image_exps, ic in images[v].items():
                key = tuple(a + b for a, b in zip(rest, image_exps))
                out[key] = out.get(key, Fraction(0)) + c * e * ic
    return {k: c for k, c in out.items() if c}


def ref_eval(p, point):
    total = Fraction(0)
    for exps, c in p.items():
        for x, e in zip(point, exps):
            c *= x**e
        total += c
    return total


def to_poly(ctx, p):
    return Poly(ctx, {packed(e): c for e, c in p.items()})


def to_dense(poly, nvars):
    return {dense(m, nvars): c for m, c in poly.terms.items()}


def dense_polys(nvars, max_size=4):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), fractions)

    def merge(terms):
        p = {}
        for exps, c in terms:
            p[exps] = p.get(exps, Fraction(0)) + c
        return {e: c for e, c in p.items() if c}

    return st.lists(term, max_size=max_size).map(merge)


@st.composite
def systems(draw, ops):
    """(nvars, images per op, point, start polynomial), all dense."""
    nvars = draw(st.integers(1, 3))
    images = [
        draw(st.dictionaries(st.integers(0, nvars - 1), dense_polys(nvars, 3), max_size=nvars))
        for _ in range(ops)
    ]
    point = draw(st.lists(coordinates, min_size=nvars, max_size=nvars))
    return nvars, images, point, draw(dense_polys(nvars))


def cdf_series(nvars, images, point, expr):
    ctx = Context(GENERATORS[:nvars])
    kernel = {
        (GENERATORS[v], axis): to_poly(ctx, p)
        for axis, op in enumerate(images, start=1)
        for v, p in op.items()
    }
    names = ("x1", "x2")[: len(images)]
    sys = C.CdfSystem(names, GENERATORS[:nvars], kernel, point)
    return C.CdfSeries(sys, to_poly(sys.ctx, expr))


@st.composite
def lie_cases(draw):
    axes = draw(st.sampled_from([1, 2]))
    case = draw(systems(axes))
    return case, tuple(draw(st.lists(st.integers(0, 3), min_size=axes, max_size=axes)))


# x' = y, y' = -x, x^2 + y^2 is invariant
ROTATION = [{0: {(0, 1): Fraction(1)}, 1: {(1, 0): Fraction(-1)}}]


@given(lie_cases())
@example(((2, ROTATION, [Fraction(3, 5), Fraction(4, 5)], {(2, 0): 1, (0, 2): 1}), (3,)))
@example(((2, ROTATION, [Fraction(1, 2), 0], {(1, 1): Fraction(5, 12)}), (0,)))  # empty word
@example(((1, [{0: {(2,): Fraction(1, 7)}}, {}], [0], {}), (2, 1)))  # zero expression
@settings(max_examples=150, deadline=None)
def test_lie_fold_matches_fraction_reference(case):
    (nvars, images, point, expr), n = case
    want = expr
    for op, count in zip(images, n):
        for _ in range(count):
            want = ref_derive(op, want)
    series = cdf_series(nvars, images, point, expr)
    value = C.coeff_via_lie(series, n)
    assert value == ref_eval(want, point)
    assert type(value) is Fraction


@given(systems(len(LETTERS)), st.lists(st.sampled_from(LETTERS), max_size=4))
@example((1, [{0: {(2,): 1}}, {}], [0], {(1,): Fraction(1, 12)}), [])
@example((2, [{0: {(0, 1): Fraction(2, 3)}}, {1: {(0, 0): -1}}], [0, 5], {}), ["p", "q"])
@settings(max_examples=150, deadline=None)
def test_process_fold_matches_fraction_reference(case, word):
    nvars, images, point, start = case
    want = start
    for letter in word:
        want = ref_derive(images[LETTERS.index(letter)], want)
    ctx = Context(GENERATORS[:nvars])
    transitions = {
        (letter, GENERATORS[v]): to_poly(ctx, p)
        for letter, op in zip(LETTERS, images)
        for v, p in op.items()
    }
    outputs = dict(zip(GENERATORS, point))
    m = W.Wbpp(LETTERS, GENERATORS[:nvars], "a", transitions, outputs)
    config = to_poly(m.ctx, start)
    value = W.evaluate(m, config, "".join(word))
    assert value == ref_eval(want, point)
    assert type(value) is Fraction
    configured = W.delta_word(m, "".join(word), config)
    assert to_dense(configured, nvars) == want
    for c in configured.terms.values():
        assert type(c) is Fraction and c != 0


@given(systems(len(LETTERS)), st.lists(st.integers(0, len(LETTERS) - 1), max_size=4))
@example((2, [{0: {(0, 1): 1}}, {}], [Fraction(1, 3), 0], {(1, 1): 1}), [0, 1])  # no images
# a point over a denominator (q = 15) under terms of degree 3 and 4
@example(
    (2, ROTATION + [{}], [Fraction(1, 3), Fraction(2, 5)], {(2, 1): 1, (1, 3): Fraction(1, 7)}),
    [0],
)
# image values over a denominator (dv = 35), after a built fold
@example(
    (2, [{0: {(0, 0): Fraction(1, 5)}, 1: {(1, 0): Fraction(2, 7)}}, {1: {(0, 1): 1}}],
     [3, Fraction(1, 2)], {(1, 1): 1, (2, 0): 3}),
    [1, 0],
)
# x = 0 under exponent 1 keeps the x z term's ε part; y = 0 under exponent 2
# drops the x y^2 and y^2 z terms
@example(
    (3, [{0: {(0, 0, 1): 1}, 1: {(0, 0, 0): 2}, 2: {(1, 0, 0): 1}}, {}], [0, 0, 2],
     {(1, 2, 0): 1, (1, 0, 1): 2, (0, 2, 1): 3}),
    [0],
)
# terms of degree 0 to 3 in one polynomial
@example(
    (2, [{0: {(0, 1): 2}, 1: {(0, 0): -1}}, {}], [2, Fraction(1, 3)],
     {(0, 0): 5, (1, 0): 1, (1, 1): 2, (2, 1): Fraction(1, 3)}),
    [0],
)
# ε parts that cancel to 0: x^2 + y^2 is invariant, and x - 2y vanishes at (2, 1)
@example((2, ROTATION + [{}], [Fraction(3, 5), Fraction(4, 5)], {(2, 0): 1, (0, 2): 1}), [0])
@example((2, [{0: {(1, 0): 1}, 1: {(0, 1): 2}}, {}], [2, 1], {(1, 0): 1, (0, 1): -1}), [0])
# a tail of two different letters, after a built fold
@example(
    (2, [{0: {(0, 1): 1}, 1: {(1, 0): 2}}, {0: {(1, 1): Fraction(1, 3)}, 1: {(0, 0): 1}}],
     [2, 3], {(2, 1): 1, (0, 2): 1}),
    [1, 0, 1],
)
# x = 0 under exponent 2: only the A_x B_x term of x^2 survives
@example(
    (2, [{0: {(0, 0): 1}}, {0: {(0, 1): 3}, 1: {(1, 0): 1}}], [0, Fraction(1, 2)],
     {(2, 1): 1, (2, 0): 2}),
    [1, 0],
)
# B_x = y = 0 at the point, but C_x = (D y)(a) = 1 is not
@example((2, [{1: {(0, 0): 1}}, {0: {(0, 1): 1}}], [1, 0], {(2, 0): 1}), [1, 0])
# A, B and C each over a denominator (A = (2/9, 2/5), B = (1/14, 1/4))
@example(
    (2, [{0: {(0, 1): Fraction(1, 3)}, 1: {(0, 0): Fraction(2, 5)}},
         {0: {(1, 0): Fraction(1, 7)}, 1: {(1, 1): Fraction(3, 4)}}],
     [Fraction(1, 2), Fraction(2, 3)], {(2, 1): 1, (1, 2): Fraction(1, 5)}),
    [1, 0],
)
@settings(max_examples=150, deadline=None)
def test_fold_value_is_the_value_of_the_fold(case, letters):
    # the full fold, evaluated packed, is what fold_value computes with its
    # last two letters evaluated in one pass at a second-order jet
    nvars, images, point, start = case
    ctx = Context(GENERATORS[:nvars])
    ops = [Derivation(ctx, {v: to_poly(ctx, p) for v, p in op.items()}) for op in images]
    word = [ops[i] for i in letters]
    start = to_poly(ctx, start)
    packing, packed, den = _system.fold(start, word)
    value = _system.fold_value(start, word, point)
    assert value == _evaluate(packed, den, packing.point(point), packing)
    assert type(value) is Fraction


def test_fold_value_edge_cases():
    ctx = Context(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    start = 3 * x**2 * y + Fraction(1, 2)

    def value(word, point):
        got = _system.fold_value(start, word, point)
        assert type(got) is Fraction
        return got

    # the empty word evaluates the start
    assert value([], [2, Fraction(1, 3)]) == Fraction(9, 2)
    # a last letter with no images
    d = Derivation(ctx, {0: y, 1: x + 1})
    none = Derivation(ctx, {})
    assert value([none], [2, 3]) == 0
    assert value([d, none], [2, 3]) == 0
    # images that all vanish at the point, of a polynomial that does not vanish
    vanish = Derivation(ctx, {0: y - 1, 1: x - 2})
    assert not vanish(start).is_zero()
    assert value([vanish], [2, 1]) == 0
    assert value([d, vanish], [2, 1]) == 0
    # a coordinate of 0 under an exponent of 1: lowering x^1 leaves a factor 1
    f = Derivation(ctx, {0: y, 1: ctx.const(2)})
    xy = x * y**2 + x  # f(xy) = y^3 + 4xy + y
    assert _system.fold_value(xy, [f], [0, 3]) == 30 == f(xy).eval([0, 3])
    assert _system.fold_value(xy, [d, f], [0, 3]) == f(d(xy)).eval([0, 3])
    # a last letter outside the context
    other = Derivation(Context(["x", "y"]), {})
    with pytest.raises(ContextMismatch):
        _system.fold_value(start, [d, other], [2, 3])


def test_two_axis_lie_ending_on_axis_two():
    # a = e^x1, b = e^(2 x2), c = x2: f = a b c + c^2 has
    # f_(n1, n2) = n2 2^(n2 - 1), plus 2 at (0, 2)
    ctx = Context(["a", "b", "c"])
    kernel = {("a", 1): ctx.var("a"), ("b", 2): 2 * ctx.var("b"), ("c", 2): ctx.one()}
    sys = C.CdfSystem(("x1", "x2"), ctx.names, kernel, [1, 1, 0])
    a, b, c = (sys.ctx.var(n) for n in "abc")
    s = C.CdfSeries(sys, a * b * c + c**2)
    table = C.coeff_table(s, 4)
    for n in [(0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (1, 3)]:
        want = n[1] * 2 ** (n[1] - 1) + (2 if n == (0, 2) else 0)
        assert C.coeff_via_lie(s, n) == want == table[n]


def test_fold_exponent_overflow_is_a_resource_cap():
    # with e' = e^2, a folded letter takes e^M to M e^(M+1): past the field;
    # the last two letters of an evaluated word are not folded, so it takes three
    top, want = _MAX_EXPONENT, _MAX_EXPONENT + 1
    ctx = Context(["e"])
    e = ctx.var("e")
    sys = C.CdfSystem(("x1",), ["e"], {("e", 1): e**2}, [1])
    big = sys.ctx.var("e") ** top
    m = W.Wbpp(["a"], ["X"], "X", {("a", "X"): Context(["X"]).var("X") ** 2}, {"X": 1})
    config = 2 * m.ctx.var("X") ** top
    for run in (
        lambda: C.coeff_via_lie(C.CdfSeries(sys, big), (3,)),
        lambda: W.evaluate(m, config, "aaa"),
        lambda: W.delta_word(m, "a", config),
        lambda: m.op("a")(config),
    ):
        with pytest.raises(ResourceLimitExceeded) as refused:
            run()
        assert (refused.value.cap, refused.value.value) == ("exponent", want)
        assert refused.value.limit == _MAX_EXPONENT

    # one letter only lowers the exponent: M e^(M-1) e^2 at e = 1; two give
    # M (M+1) e^(M+2) at e = 1, exactly, though e^(M+1) does not fit a field
    assert C.coeff_via_lie(C.CdfSeries(sys, big), (1,)) == top
    assert W.evaluate(m, config, "a") == 2 * top
    assert C.coeff_via_lie(C.CdfSeries(sys, big), (2,)) == top * (top + 1)
    assert W.evaluate(m, config, "aa") == 2 * top * (top + 1)

    # the command line reports it as a resource limit, exit code 4
    huge = W.Wbpp.of(m.alphabet, m.core, config)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_load", return_value=("wbpp", huge)):
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["eval", "huge.wbpp", "--word", "aaa"])
    assert code == 4
    assert out.getvalue() == ""
    assert err.getvalue().startswith("INCONCLUSIVE_RESOURCE_LIMIT (resource cap 'exponent'")

import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from zeroness import cdf as C
from zeroness import constraints as K
from zeroness import wbpp as W
from zeroness._saturation import Outcome
from zeroness.errors import (
    ArityMismatch,
    NotComposable,
    NotWellPosed,
    ResourceLimitExceeded,
)
from zeroness.groebner import GroebnerLimits
from zeroness.poly import Context
from zeroness.series import TruncSeries


def exp_series():
    ctx = Context(["e"])
    sys = C.CdfSystem(("x1",), ["e"], {("e", 1): ctx.var("e")}, [1])
    return C.CdfSeries(sys, sys.ctx.var("e"))


def exp_neg_series():
    ctx = Context(["h"])
    sys = C.CdfSystem(("x1",), ["h"], {("h", 1): -ctx.var("h")}, [1])
    return C.CdfSeries(sys, sys.ctx.var("h"))


def sin_cos_system():
    ctx = Context(["s", "c"])
    return C.CdfSystem(
        ("x1",), ["s", "c"], {("s", 1): ctx.var("c"), ("c", 1): -ctx.var("s")}, [0, 1]
    )


def sin_series():
    sys = sin_cos_system()
    return C.CdfSeries(sys, sys.ctx.var("s"))


def cayley_series():
    ctx = Context(["C", "D", "E"])
    sys = C.CdfSystem(
        ("x1",),
        ["C", "D", "E"],
        {
            ("C", 1): ctx.var("D") * ctx.var("E"),
            ("D", 1): ctx.var("D") ** 2 * ctx.var("E"),
            ("E", 1): ctx.var("D") * ctx.var("E") ** 3,
        },
        [0, 1, 1],
    )
    return C.CdfSeries(sys, sys.ctx.var("C"))


def bell_series():
    # e^y strongly composed with e^x - 1
    ctxE = Context(["E", "t"])
    outer_sys = C.CdfSystem(
        ("x1", "x2"), ["E", "t"], {("E", 2): ctxE.var("E"), ("t", 1): ctxE.one()}, [1, 0]
    )
    outer = C.CdfSeries(outer_sys, outer_sys.ctx.var("E"))
    inner = exp_series()
    return C.compose_strong(outer, [C.CdfSeries(inner.system, inner.expr - 1)])


def catalan_series():
    ctx = Context(["t1", "t2"])
    sys = C.CdfSystem(
        ("x1", "x2"), ["t1", "t2"], {("t1", 1): ctx.one(), ("t2", 2): ctx.one()}, [0, 0]
    )
    body = C.CdfSeries(sys, sys.ctx.var("t1") + sys.ctx.var("t2") ** 2)
    return C.implicit_solve([body])[0]


GOLDEN = {
    "exp": [1, 1, 1, 1, 1, 1, 1, 1, 1],
    "cayley": [0, 1, 2, 9, 64, 625, 7776, 117649, 2097152],
    "sin": [0, 1, 0, -1, 0, 1, 0, -1, 0],
    "bell": [1, 1, 2, 5, 15, 52, 203, 877, 4140],
    "catalan": [0, 1, 2, 12, 120, 1680, 30240, 665280, 17297280],
}


@pytest.mark.parametrize(
    "name,builder",
    [
        ("exp", exp_series),
        ("cayley", cayley_series),
        ("sin", sin_series),
        ("bell", bell_series),
        ("catalan", catalan_series),
    ],
)
def test_golden_series_both_routes(name, builder):
    series = builder()
    table = C.coeff_table(series, 8)
    assert table.univariate_list() == GOLDEN[name]
    for n in range(9):
        assert C.coeff_via_lie(series, (n,)) == GOLDEN[name][n]


def test_lie_derivative_examples():
    sys = sin_cos_system()
    s, c = sys.ctx.var("s"), sys.ctx.var("c")
    assert C.lie_derivative(sys, 1, s**2 + c**2 - 1).is_zero()
    assert C.lie_derivative(sys, 1, sys.ctx.const(9)).is_zero()
    cay = cayley_series().system
    assert C.lie_derivative(cay, 1, cay.ctx.var("C")) == cay.ctx.var("D") * cay.ctx.var("E")


def test_coeff_via_lie_examples():
    assert C.coeff_via_lie(sin_series(), (3,)) == -1
    q = Fraction(5, 7)
    sys = sin_cos_system()
    assert C.coeff_via_lie(C.CdfSeries(sys, sys.ctx.const(q)), (0,)) == q
    assert C.coeff_via_lie(cayley_series(), (4,)) == 64


def test_coeff_via_lie_rejects_negative_exponents():
    ctx = Context(["t1", "t2"])
    sys = C.CdfSystem(
        ("x1", "x2"), ["t1", "t2"], {("t1", 1): ctx.one(), ("t2", 2): ctx.one()}, [1, 1]
    )
    plane = C.CdfSeries(sys, sys.ctx.var("t1") * sys.ctx.var("t2"))
    for series, n in ((exp_series(), (-1,)), (plane, (1, -1)), (plane, (-3, 0))):
        with pytest.raises(ValueError, match="negative exponent"):
            C.coeff_via_lie(series, n)


def test_zeroness_invariant_polynomial():
    sys = sin_cos_system()
    p = sys.ctx.var("s") ** 2 + sys.ctx.var("c") ** 2 - 1
    verdict = C.zeroness(C.CdfSeries(sys, p))
    assert verdict.outcome is Outcome.ZERO
    assert verdict.stats.chain_length <= 2


def test_zeroness_sin_witness():
    verdict = C.zeroness(sin_series())
    assert verdict.outcome is Outcome.NONZERO
    assert verdict.witness == (1,)
    assert verdict.value == 1


def test_equivalent_exp2x_two_ways():
    ctx = Context(["g"])
    sys = C.CdfSystem(("x1",), ["g"], {("g", 1): 2 * ctx.var("g")}, [1])
    direct = C.CdfSeries(sys, sys.ctx.var("g"))
    squared = C.CdfSeries(exp_series().system, exp_series().expr)
    squared = C.CdfSeries(squared.system, squared.expr**2)
    assert C.equivalent(direct, squared).outcome is Outcome.ZERO


def test_equivalent_dimension_mismatch():
    two = Context(["u"])
    sys2 = C.CdfSystem(("x1", "x2"), ["u"], {("u", 1): two.var("u")}, [1])
    with pytest.raises(ArityMismatch):
        C.equivalent(exp_series(), C.CdfSeries(sys2, sys2.ctx.var("u")))


def test_closure_add_scale_cancel():
    s = sin_series()
    assert C.zeroness(C.c_add(s, C.c_scale(s, -1))).outcome is Outcome.ZERO


def test_closure_inverse_is_seq():
    # 1/(1-x) has exponential coefficients n!
    ctx = Context(["t"])
    sys = C.CdfSystem(("x1",), ["t"], {("t", 1): ctx.one()}, [0])
    one_minus_x = C.CdfSeries(sys, 1 - sys.ctx.var("t"))
    inv = C.c_inverse(one_minus_x)
    assert C.coeff_table(inv, 5).univariate_list() == [1, 1, 2, 6, 24, 120]


def test_closure_inverse_rejects_zero_constant():
    with pytest.raises(NotWellPosed):
        C.c_inverse(sin_series())


def test_closure_derive_sin_is_cos():
    cos_table = C.coeff_table(C.c_derive(sin_series(), 1), 6)
    assert cos_table.univariate_list() == [1, 0, -1, 0, 1, 0, -1]


def test_closure_mul_matches_oracle():
    s = sin_series()
    prod = C.c_mul(s, s)
    direct = C.coeff_table(s, 8)
    assert C.coeff_table(prod, 8) == direct * direct


def test_sinh_restriction_vs_closure():
    sinh_r = C.restrict_regular(exp_series(), K.ModEq(1, 1, 2))
    half = Fraction(1, 2)
    sinh_c = C.c_scale(C.c_add(exp_series(), C.c_scale(exp_neg_series(), -1)), half)
    assert C.coeff_table(sinh_r, 8) == C.coeff_table(sinh_c, 8)
    assert C.equivalent(sinh_r, sinh_c).outcome is Outcome.ZERO


def test_restrict_true_is_identity():
    s = sin_series()
    r = C.restrict_regular(s, K.TRUE)
    assert C.coeff_table(r, 6) == C.coeff_table(s, 6)


def _oracle_constraint(rng, dim, atoms):
    if atoms == 1:
        axis = rng.randint(1, dim)
        if rng.random() < 0.5:
            expr = K.Eq(axis, rng.randint(0, 4))
        else:
            expr = K.ModEq(axis, rng.randint(0, 5), rng.randint(1, 4))
    else:
        k = rng.randint(1, atoms - 1)
        connective = K.And if rng.random() < 0.5 else K.Or
        expr = connective(
            _oracle_constraint(rng, dim, k), _oracle_constraint(rng, dim, atoms - k)
        )
    return K.Not(expr) if rng.random() < 0.3 else expr


def _elements_of_box(rec, side):
    """The element of every vector of {0..side-1}^dim, built up from the
    axis images."""
    elements = {}
    for vector in product(range(side), repeat=len(rec.images)):
        axis = next((i for i, z in enumerate(vector) if z), None)
        if axis is None:
            elements[vector] = rec.identity
        else:
            before = vector[:axis] + (vector[axis] - 1,) + vector[axis + 1 :]
            elements[vector] = rec.add(elements[before], rec.images[axis])
    return elements


def test_recognizer_against_an_oracle():
    rng = random.Random(18)
    for trial in range(80):
        dim = rng.randint(1, 3)
        expr = _oracle_constraint(rng, dim, rng.randint(1, 4))
        rec = K.recognizer(expr, dim)
        n, t, e = rec.size, rec.table, rec.identity
        # agreement with the direct semantics; an axis counts exactly up to
        # at most 5 and then cycles with a period of at most 12, so the box
        # reaches every element
        elements = _elements_of_box(rec, 17)
        for vector, element in elements.items():
            assert (element in rec.accepting) == K.contains(expr, vector), (trial, expr)
        assert set(elements.values()) == set(range(n)), (trial, expr)
        # the monoid laws
        assert len(t) == n and all(len(row) == n for row in t)
        assert all(t[e][a] == a == t[a][e] for a in range(n))
        assert all(t[a][b] == t[b][a] for a in range(n) for b in range(n))
        assert all(
            t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
        ), (trial, expr)
        # minimality: every element has its own set of accepting translates
        translates = {tuple(t[a][b] in rec.accepting for b in range(n)) for a in range(n)}
        assert len(translates) == n, (trial, expr)


def test_recognizer_of_a_large_modulus():
    rec = K.recognizer(K.ModEq(1, 0, 400), 1)
    assert (rec.size, rec.images, rec.accepting) == (400, (1,), {0})


def test_recognizer_of_a_large_threshold():
    # z1 >= 64 counts z1 exactly up to 64 and no further: 65 elements
    expr = K.ge(1, 64)
    start = time.perf_counter()
    rec = K.recognizer(expr, 1)
    assert time.perf_counter() - start < 5
    assert rec.size == 65
    element = rec.identity
    for n in range(71):
        assert (element in rec.accepting) == K.contains(expr, (n,))
        element = rec.add(element, rec.images[0])


def test_recognizer_of_ge_512_is_fast():
    start = time.perf_counter()
    rec = K.recognizer(K.ge(1, 512), 1)
    assert time.perf_counter() - start < 1
    assert (rec.size, rec.images, rec.accepting) == (513, (1,), {512})


def test_large_thresholds_are_shallow_trees():
    expr = K.ge(1, 1000)
    assert str(expr).startswith("!(") and str(expr).count("==") == 1000
    K.validate(expr, 1)
    assert [K.contains(expr, (n,)) for n in (0, 999, 1000, 5000)] == [False, False, True, True]
    rec = K.recognizer(expr, 1)
    assert (rec.size, rec.accepting) == (1001, {1000})
    assert str(K.le(1, 2)) == "((z1 == 0 || z1 == 1) || z1 == 2)"


def test_recognizer_size_is_capped():
    # 64 * 16 counter vectors are allowed; one more counter value is not
    rec = K.recognizer(K.And(K.ModEq(1, 0, 64), K.ModEq(2, 0, 16)), 2)
    assert rec.size == 64 * 16
    for expr, dim, size in (
        (K.Eq(1, 1023), 1, 1025),
        (K.Or(K.ModEq(1, 0, 61), K.ModEq(1, 0, 64)), 1, 61 * 64),
        (K.And(K.ge(1, 64), K.And(K.ge(2, 64), K.ge(3, 64))), 3, 65**3),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded) as info:
            K.recognizer(expr, dim)
        assert time.perf_counter() - start < 1
        assert (info.value.cap, info.value.value, info.value.limit) == (
            "recognizer_size", size, K.MAX_RECOGNIZER_SIZE
        )


def test_restrict_exp_to_single_degree():
    r = C.restrict_regular(exp_series(), K.Eq(1, 2))
    assert C.coeff_table(r, 4).univariate_list() == [0, 0, 1, 0, 0]


def _random_solvable_system(rng, dim):
    """Blocks of generators per axis, each block an autonomous ODE in its
    own variable: the joint solution always exists."""
    names = []
    blocks = {}
    for axis in range(1, dim + 1):
        size = rng.randint(1, 2)
        blocks[axis] = [f"g{axis}_{i}" for i in range(size)]
        names.extend(blocks[axis])
    ctx = Context(names)
    kernel = {}
    for axis, block in blocks.items():
        for g in block:
            p = ctx.zero()
            for _ in range(rng.randint(0, 2)):
                term = ctx.const(Fraction(rng.randint(-2, 2)))
                for _ in range(rng.randint(0, 2)):
                    term = term * ctx.var(rng.choice(block))
                p = p + term
            if not p.is_zero():
                kernel[(g, axis)] = p
    init = [Fraction(rng.randint(-2, 2)) for _ in names]
    sys = C.CdfSystem(tuple(f"x{j}" for j in range(1, dim + 1)), names, kernel, init)
    expr = sys.ctx.zero()
    for _ in range(rng.randint(1, 3)):
        term = sys.ctx.const(Fraction(rng.randint(-2, 2)))
        for _ in range(rng.randint(0, 2)):
            term = term * sys.ctx.var(rng.choice(names))
        expr = expr + term
    return C.CdfSeries(sys, expr)


def _random_constraint(rng, dim):
    atoms = []
    for _ in range(rng.randint(1, 2)):
        axis = rng.randint(1, dim)
        if rng.random() < 0.5:
            atoms.append(K.Eq(axis, rng.randint(0, 2)))
        else:
            m = rng.randint(1, 3)
            atoms.append(K.ModEq(axis, rng.randint(0, m - 1), m))
    expr = atoms[0]
    for a in atoms[1:]:
        expr = (K.And if rng.random() < 0.5 else K.Or)(expr, a)
    if rng.random() < 0.4:
        expr = K.Not(expr)
    return expr


def test_restriction_matches_masking_randomized():
    rng = random.Random(2024)
    for trial in range(50):
        dim = rng.choice([1, 2])
        series = _random_solvable_system(rng, dim)
        constraint = _random_constraint(rng, dim)
        restricted = C.restrict_regular(series, constraint)
        base = C.coeff_table(series, 6)
        got = C.coeff_table(restricted, 6)
        want = {
            n: c for n, c in base.coeffs.items() if K.contains(constraint, n)
        }
        assert got.coeffs == want, (trial, constraint)


def test_denominator_bound_randomized():
    # zero-initial systems with kernel denominators dividing q: the n-th
    # coefficient times q^|n| is an integer
    rng = random.Random(77)
    for _ in range(50):
        dim = rng.choice([1, 2])
        q = rng.randint(1, 4)
        names = [f"g{i}" for i in range(rng.randint(1, 2))]
        ctx = Context(names)
        kernel = {}
        for g in names:
            for axis in range(1, dim + 1):
                p = ctx.zero()
                for _ in range(rng.randint(0, 2)):
                    term = ctx.const(Fraction(rng.randint(-3, 3), q))
                    for _ in range(rng.randint(0, 2)):
                        term = term * ctx.var(rng.choice(names))
                    p = p + term
                if not p.is_zero():
                    kernel[(g, axis)] = p
        sys = C.CdfSystem(
            tuple(f"x{j}" for j in range(1, dim + 1)),
            names,
            kernel,
            [0] * len(names),
        )
        tables = C.generator_tables(sys, 6)
        for table in tables:
            for n, c in table.coeffs.items():
                scaled = c * Fraction(q) ** sum(n)
                assert scaled.denominator == 1, (q, n, c)


def test_compose_strong_identity():
    ctx = Context(["t2"])
    sys = C.CdfSystem(("x1", "x2"), ["t2"], {("t2", 2): ctx.one()}, [0])
    ident = C.CdfSeries(sys, sys.ctx.var("t2"))
    g = C.CdfSeries(exp_series().system, exp_series().expr - 1)
    composed = C.compose_strong(ident, [g])
    assert C.coeff_table(composed, 6) == C.coeff_table(g, 6)


def test_compose_strong_square_of_sin():
    ctx = Context(["t2"])
    sys = C.CdfSystem(("x1", "x2"), ["t2"], {("t2", 2): ctx.one()}, [0])
    f = C.CdfSeries(sys, sys.ctx.var("t2") ** 2)
    composed = C.compose_strong(f, [sin_series()])
    st = C.coeff_table(sin_series(), 8)
    assert C.coeff_table(composed, 8) == st * st


def test_compose_strong_rejects_occurring_nonzero_constant():
    ctx = Context(["t2"])
    sys = C.CdfSystem(("x1", "x2"), ["t2"], {("t2", 2): ctx.one()}, [0])
    f = C.CdfSeries(sys, sys.ctx.var("t2"))
    with pytest.raises(NotComposable):
        C.compose_strong(f, [exp_series()])  # e^x has constant term 1


def test_compose_strong_allows_non_occurring():
    # outer does not depend on the substituted axis at all
    ctx = Context(["t1"])
    sys = C.CdfSystem(("x1", "x2"), ["t1"], {("t1", 1): ctx.one()}, [0])
    f = C.CdfSeries(sys, sys.ctx.var("t1") ** 3)
    composed = C.compose_strong(f, [exp_series()])
    assert C.coeff_table(composed, 5).univariate_list() == [0, 0, 0, 6, 0, 0]


def test_implicit_solve_catalan_and_identity():
    assert C.coeff_table(catalan_series(), 6).univariate_list() == GOLDEN["catalan"][:7]
    ctx = Context(["t1", "t2"])
    sys = C.CdfSystem(
        ("x1", "x2"), ["t1", "t2"], {("t1", 1): ctx.one(), ("t2", 2): ctx.one()}, [0, 0]
    )
    ident = C.implicit_solve([C.CdfSeries(sys, sys.ctx.var("t1"))])[0]
    assert C.coeff_table(ident, 5).univariate_list() == [0, 1, 0, 0, 0, 0]


def test_implicit_solve_cayley():
    ctx = Context(["E", "t1"])
    sys = C.CdfSystem(
        ("x1", "x2"), ["E", "t1"], {("E", 2): ctx.var("E"), ("t1", 1): ctx.one()}, [1, 0]
    )
    f = C.CdfSeries(sys, sys.ctx.var("t1") * sys.ctx.var("E"))
    sol = C.implicit_solve([f])[0]
    assert C.coeff_table(sol, 6).univariate_list() == GOLDEN["cayley"][:7]
    assert C.equivalent(sol, cayley_series()).outcome is Outcome.ZERO


def test_implicit_solve_rejections():
    ctx = Context(["t1", "t2"])
    sys = C.CdfSystem(
        ("x1", "x2"), ["t1", "t2"], {("t1", 1): ctx.one(), ("t2", 2): ctx.one()}, [0, 0]
    )
    with pytest.raises(NotWellPosed):
        C.implicit_solve([C.CdfSeries(sys, sys.ctx.one() + sys.ctx.var("t2"))])
    with pytest.raises(NotWellPosed):
        C.implicit_solve([C.CdfSeries(sys, sys.ctx.var("t2"))])


def test_check_well_posed_diagnostics():
    ctx = Context(["t1", "t2"])
    sys = C.CdfSystem(
        ("x1", "x2"), ["t1", "t2"], {("t1", 1): ctx.one(), ("t2", 2): ctx.one()}, [0, 0]
    )
    ok, problems = C.check_well_posed(
        [C.CdfSeries(sys, sys.ctx.one() + sys.ctx.var("t1") * sys.ctx.var("t2"))]
    )
    assert not ok and "origin" in problems[0]
    ok, problems = C.check_well_posed(
        [C.CdfSeries(sys, sys.ctx.var("t1") + sys.ctx.var("t2") ** 2)]
    )
    assert ok and not problems


def test_autonomize_examples():
    mixed = Context(["f", "x1"])
    sys = C.autonomize(("x1",), ["f"], {("f", 1): mixed.var("x1")}, [0])
    assert sys.order == 2
    table = C.coeff_table(C.CdfSeries(sys, sys.ctx.var("f")), 4)
    assert table.univariate_list() == [0, 0, 1, 0, 0]

    ctx = Context(["g"])
    unchanged = C.autonomize(("x1",), ["g"], {("g", 1): ctx.var("g")}, [1])
    assert unchanged.order == 1

    mixed2 = Context(["f", "x1"])
    sq = C.autonomize(
        ("x1",), ["f"], {("f", 1): 2 * mixed2.var("x1") * mixed2.var("f")}, [1]
    )
    assert sq.order == 2
    table = C.coeff_table(C.CdfSeries(sq, sq.ctx.var("f")), 6)
    assert table.univariate_list() == [1, 0, 2, 0, 12, 0, 120]


def sin_over_letter_a():
    ctx = Context(["s", "c"])
    sys = C.CdfSystem(
        ("a",), ["s", "c"], {("s", 1): ctx.var("c"), ("c", 1): -ctx.var("s")}, [0, 1]
    )
    return C.CdfSeries(sys, sys.ctx.var("s"))


def test_to_wbpp_exp():
    ctx = Context(["e"])
    sys = C.CdfSystem(("a",), ["e"], {("e", 1): ctx.var("e")}, [1])
    m = C.to_wbpp(C.CdfSeries(sys, sys.ctx.var("e")))
    for n in range(6):
        assert W.evaluate(m, m.start, "a" * n) == 1


def test_bridge_round_trip():
    sin = sin_over_letter_a()
    again = C.from_wbpp(C.to_wbpp(sin))
    assert again.system.generator_names() == sin.system.generator_names()
    assert again.system.init == sin.system.init
    assert str(again.expr) == str(sin.expr)
    for g in sin.system.generator_names():
        assert str(again.system.entry(g, 1)) == str(sin.system.entry(g, 1))


def test_bridge_word_coefficients_match_parikh():
    sin = sin_over_letter_a()
    m = C.to_wbpp(sin)
    table = C.coeff_table(sin, 5)
    words = W.coeffs_up_to(m, m.start, 5)
    assert len(words) == 6
    for word, value in words.items():
        assert value == table[(len(word),)]


def test_from_wbpp_requires_commutativity():
    ctx = Context(["S", "X"])
    m = W.Wbpp(
        ["a", "b"],
        ["S", "X"],
        "S",
        {("a", "S"): ctx.var("X"), ("a", "X"): ctx.var("X") ** 2, ("b", "X"): ctx.one()},
        {"S": 0, "X": 0},
    )
    with pytest.raises(NotWellPosed):
        C.from_wbpp(m)


def test_parikh_permutation_consistency_examples():
    # two-axis product system: f(x1) * g(x2) style couplings stay solvable
    ctx = Context(["u", "v"])
    sys = C.CdfSystem(
        ("x1", "x2"),
        ["u", "v"],
        {("u", 1): ctx.var("u"), ("v", 2): ctx.var("v") ** 2},
        [1, 1],
    )
    series = C.CdfSeries(sys, ctx.var("u") * ctx.var("v") ** 2 - 1)
    table = C.coeff_table(series, 4)
    for n in product(range(4), repeat=2):
        if sum(n) > 4:
            continue
        word = [1] * n[0] + [2] * n[1]
        values = set()
        for perm in set(permutations(word)):
            p = series.expr
            for j in perm:
                p = sys.lie(j)(p)
            values.add(p.eval(sys.init))
        assert len(values) == 1
        assert values.pop() == table[n]


def test_zeroness_zero_implies_table_zero():
    s = sin_series()
    diff = C.c_add(s, C.c_scale(s, -1))
    verdict = C.zeroness(diff)
    assert verdict.outcome is Outcome.ZERO
    table = C.coeff_table(diff, verdict.stats.chain_length + 2)
    assert all(v == 0 for v in table.coeffs.values())


def test_resource_cap_inconclusive():
    verdict = C.zeroness(cayley_series(), limits=GroebnerLimits(max_degree=3))
    assert verdict.outcome in (Outcome.NONZERO, Outcome.INCONCLUSIVE_RESOURCE_LIMIT)
    pyth = C.CdfSeries(sin_cos_system(), sin_cos_system().ctx.zero())
    # zero expression: trivially ZERO even under tiny caps
    assert C.zeroness(pyth, limits=GroebnerLimits(max_degree=3)).outcome is Outcome.ZERO


def test_every_closure_matches_series_oracle_at_8():
    # expression arithmetic, inverse, derivative, strong composition, and
    # restriction each against the brute-force table combinators
    e = exp_series()
    s = sin_series()
    te = C.coeff_table(e, 8)
    ts = C.coeff_table(s, 8)
    assert C.coeff_table(C.c_add(e, s), 8) == te + ts
    assert C.coeff_table(C.c_mul(e, s), 8) == te * ts
    assert C.coeff_table(C.c_scale(s, Fraction(3, 7)), 8) == ts.scale(Fraction(3, 7))
    assert C.coeff_table(C.c_inverse(e), 8) == te.inverse()
    assert C.coeff_table(C.c_derive(s, 1), 7) == ts.derive(1)
    masked = TruncSeries(1, 8, {n: c for n, c in te.coeffs.items() if n[0] % 2 == 1})
    assert C.coeff_table(C.restrict_regular(e, K.ModEq(1, 1, 2)), 8) == masked
    ctx = Context(["t2"])
    sys = C.CdfSystem(("x1", "x2"), ["t2"], {("t2", 2): ctx.one()}, [0])
    outer = C.CdfSeries(sys, sys.ctx.var("t2") ** 2 + 1)
    outer_table = TruncSeries.coordinate(2, 2, 8)
    want = outer_table * outer_table + TruncSeries.const(1, 2, 8)
    got = C.compose_strong(outer, [s])
    assert C.coeff_table(got, 8) == want.compose([ts])


def test_cross_engine_zeroness_agreement():
    from zeroness import wbpp as W2

    cases = [
        sin_over_letter_a(),
        C.CdfSeries(sin_over_letter_a().system,
                    sin_over_letter_a().system.ctx.zero()),
    ]
    sys = sin_over_letter_a().system
    pyth = C.CdfSeries(sys, sys.ctx.var("s") ** 2 + sys.ctx.var("c") ** 2 - 1)
    cases.append(pyth)
    for series in cases:
        cdf_verdict = C.zeroness(series)
        wbpp_verdict = W2.zeroness(C.to_wbpp(series))
        assert cdf_verdict.outcome is wbpp_verdict.outcome
        if cdf_verdict.is_nonzero:
            assert sum(cdf_verdict.witness) == len(wbpp_verdict.witness)
            assert cdf_verdict.value == wbpp_verdict.value


def test_bridge_sweep_unary_models():
    # every unary process is commutative; crossing the bridge must
    # preserve all coefficients
    import itertools

    ctx = Context(["S", "T"])
    s, t = ctx.var("S"), ctx.var("T")
    choices = [ctx.zero(), ctx.one(), s, t, s * t, s - t]
    for ts, tt, fs in itertools.product(range(6), range(6), (0, 1)):
        m = W.Wbpp(
            ["a"], ["S", "T"], "S",
            {("a", "S"): choices[ts], ("a", "T"): choices[tt]},
            {"S": fs, "T": 1},
        )
        series = C.from_wbpp(m)
        table = C.coeff_table(series, 6)
        for w, v in W.coeffs_up_to(m, m.start, 6).items():
            assert v == table[(len(w),)]

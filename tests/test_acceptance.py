"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance is literal equality), each with its stated runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

from oracles import shuffle_coefficient
from test_cdf import (
    GOLDEN,
    bell_series,
    catalan_series,
    cayley_series,
    exp_neg_series,
    exp_series,
    sin_cos_system,
    sin_over_letter_a,
    sin_series,
    _random_constraint,
    _random_solvable_system,
)
from test_series import SP_GOLDEN, sp_system
from test_species import SERIES_PARALLEL, X
from test_wbpp import RUNNING_GOLDEN, running_example
from zeroness import cdf as C
from zeroness import constraints as K
from zeroness import species as S
from zeroness import wbpp as W
from zeroness._saturation import Outcome
from zeroness.formats import load_model
from zeroness.groebner import GroebnerLimits
from zeroness.poly import Context
from zeroness.series import solve_implicit


MODELS = Path(__file__).resolve().parent.parent / "models"


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"
        return elapsed


def _report(number, text, elapsed):
    print(f"PASS criterion {number}: {text} [{elapsed:.2f}s]")


def test_criterion_1_running_example_evaluation():
    budget = Budget(1.0)
    m = running_example()
    assert W.evaluate(m, m.start, "aabb") == 2
    table = W.coeffs_up_to(m, m.start, 4)
    assert len(table) == 31
    assert {w: v for w, v in table.items() if v != 0} == RUNNING_GOLDEN
    elapsed = budget.check()
    _report(1, "evaluation at aabb is 2 and the length-4 table is golden", elapsed)


def test_criterion_2_wbpp_zeroness():
    budget = Budget(1.0)
    verdict = W.zeroness(running_example())
    assert verdict.outcome is Outcome.NONZERO
    assert verdict.witness == "ab"
    budget.check()

    budget2 = Budget(1.0)
    ctx = Context(["S"])
    zero_model = W.Wbpp(["a", "b"], ["S"], "S", {}, {"S": 0})
    verdict2 = W.zeroness(zero_model)
    assert verdict2.outcome is Outcome.ZERO
    assert verdict2.stats.chain_length == 0
    elapsed = budget2.check()
    _report(2, "NONZERO with shortest witness ab; zero model ZERO at chain 0", elapsed)


def test_criterion_3_exchange_and_homomorphism_suites():
    budget = Budget(30.0)
    rng = random.Random(20240801)
    from test_poly import rand_poly

    instances = 0
    while instances < 200:
        k = rng.randint(1, 3)
        names = [f"N{i}" for i in range(k)]
        ctx = Context(names)
        transitions = {}
        for letter in "ab":
            for nt in names:
                p = rand_poly(ctx, rng, degree=2, terms=2, coeff_bound=2)
                if not p.is_zero():
                    transitions[(letter, nt)] = p
        m = W.Wbpp(
            ["a", "b"], names, names[0], transitions,
            {nt: Fraction(rng.randint(-2, 2)) for nt in names},
        )
        alpha = rand_poly(m.ctx, rng, degree=2, terms=2, coeff_bound=2)
        beta = rand_poly(m.ctx, rng, degree=2, terms=2, coeff_bound=2)

        # Exchange identity at a random split of a random word
        total = rng.randint(0, 5)
        cut = rng.randint(0, total)
        word = "".join(rng.choice("ab") for _ in range(total))
        u, w = word[:cut], word[cut:]
        assert W.evaluate(m, alpha, word) == W.evaluate(m, W.delta_word(m, u, alpha), w)

        # Shuffle-convolution identity on a random word of length <= 5
        f = W.coeffs_up_to(m, alpha, 5)
        g = W.coeffs_up_to(m, beta, 5)
        probe = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        assert W.evaluate(m, alpha * beta, probe) == shuffle_coefficient(f, g, probe)
        instances += 1
    elapsed = budget.check()
    _report(3, "200 randomized exchange and shuffle-convolution instances", elapsed)


def test_criterion_4_cdf_golden_sequences_both_routes():
    budget = Budget(5.0)
    series = {
        "exp": exp_series(),
        "cayley": cayley_series(),
        "sin": sin_series(),
        "bell": bell_series(),
        "catalan": catalan_series(),
    }
    for name, s in series.items():
        table = C.coeff_table(s, 8)
        assert table.univariate_list() == GOLDEN[name], name
        for n in range(9):
            assert C.coeff_via_lie(s, (n,)) == GOLDEN[name][n], (name, n)
    elapsed = budget.check()
    _report(4, "five golden sequences agree via table DP and Lie folding", elapsed)


def test_lie_folding_of_series_parallel_within_budget():
    # the third Lie derivative of the compiled model has ~16k terms, so a
    # derivation whose cost grows as terms in x terms out needs over half a
    # minute here; one pass per result takes a few seconds
    _, (_, expr, sorts), _ = load_model(str(MODELS / "series_parallel.spec"))
    s = S.compile_species(expr, sorts)
    budget = Budget(10.0)
    value = C.coeff_via_lie(s, (3,))
    assert value == C.coeff_table(s, 3)[(3,)] == 19
    elapsed = budget.check()
    _report(4, "series-parallel count 19 via Lie folding at n=3", elapsed)


def test_criterion_5_cdf_zeroness_and_equivalences():
    budget = Budget(5.0)
    sys = sin_cos_system()
    pyth = C.CdfSeries(sys, sys.ctx.var("s") ** 2 + sys.ctx.var("c") ** 2 - 1)
    verdict = C.zeroness(pyth)
    assert verdict.outcome is Outcome.ZERO and verdict.stats.chain_length <= 2
    budget.check()

    budget2 = Budget(5.0)
    ctx = Context(["g"])
    direct = C.CdfSeries(
        C.CdfSystem(("x1",), ["g"], {("g", 1): 2 * ctx.var("g")}, [1]), ctx.var("g")
    )
    e = exp_series()
    squared = C.CdfSeries(e.system, e.expr ** 2)
    assert C.equivalent(direct, squared).outcome is Outcome.ZERO
    budget2.check()

    budget3 = Budget(5.0)
    sinh_r = C.restrict_regular(exp_series(), K.ModEq(1, 1, 2))
    sinh_c = C.c_scale(
        C.c_add(exp_series(), C.c_scale(exp_neg_series(), -1)), Fraction(1, 2)
    )
    assert C.equivalent(sinh_r, sinh_c).outcome is Outcome.ZERO
    elapsed = budget3.check()
    _report(5, "Pythagorean ZERO; e^{2x} two ways; sinh two ways", elapsed)


def test_criterion_6_restriction_correctness_randomized():
    rng = random.Random(606)
    for trial in range(50):
        dim = rng.choice([1, 2])
        series = _random_solvable_system(rng, dim)
        constraint = _random_constraint(rng, dim)
        restricted = C.restrict_regular(series, constraint)
        base = C.coeff_table(series, 6)
        got = C.coeff_table(restricted, 6)
        want = {n: c for n, c in base.coeffs.items() if K.contains(constraint, n)}
        assert got.coeffs == want, (trial, constraint)
    _report(6, "50 randomized restrictions equal masked tables at N=6", 0.0)


def test_criterion_7_denominator_bound_randomized():
    rng = random.Random(707)
    for _ in range(50):
        dim = rng.choice([1, 2])
        q = rng.randint(1, 5)
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
            tuple(f"x{j}" for j in range(1, dim + 1)), names, kernel, [0] * len(names)
        )
        for table in C.generator_tables(sys, 6):
            for n, c in table.coeffs.items():
                assert (c * Fraction(q) ** sum(n)).denominator == 1, (q, n, c)
    _report(7, "50 randomized zero-initial systems satisfy the q^|n| bound", 0.0)


def test_criterion_8_species_pipeline():
    budget = Budget(10.0)
    bad = S.Fix((("Y", S.Sum(S.One(), S.Prod(X, S.Ref("Y")))),), "Y")
    ok, _ = S.well_posed(bad, 1)
    assert not ok
    ok, _ = S.well_posed(SERIES_PARALLEL, 1)
    assert ok

    counts = S.count_table(SERIES_PARALLEL, 1, 6)
    oracle = solve_implicit(sp_system, 1, 3, 6)[0]
    assert counts.table == oracle
    assert counts.univariate_list() == SP_GOLDEN["y1"]

    alt = S.Sum(S.One(), S.Fix((("Z", S.Sum(X, S.Prod(X, S.Ref("Z")))),), "Z"))
    assert S.equipotent(S.Seq(X), alt, 1).outcome is Outcome.ZERO

    verdict = S.equipotent(S.Set(X), S.Seq(X), 1)
    assert verdict.outcome is Outcome.NONZERO
    assert verdict.witness == (2,)
    elapsed = budget.check()
    _report(8, "well-posedness gate, series-parallel counts, equipotence", elapsed)


def test_criterion_9_cross_engine_bridge():
    budget = Budget(10.0)
    sin = sin_over_letter_a()
    m = C.to_wbpp(sin)
    table = C.coeff_table(sin, 5)
    words = W.coeffs_up_to(m, m.start, 5)
    assert len(words) == 6
    for word, value in words.items():
        assert value == table[(len(word),)]

    # Parikh-permutation consistency of Lie folding, words of length <= 4
    examples = [exp_series(), sin_series(), cayley_series(), bell_series(),
                catalan_series()]
    ctx2 = Context(["u", "v"])
    sys2 = C.CdfSystem(
        ("x1", "x2"), ["u", "v"],
        {("u", 1): ctx2.var("u"), ("v", 2): ctx2.var("v") ** 2}, [1, 1],
    )
    examples.append(C.CdfSeries(sys2, ctx2.var("u") * ctx2.var("v") - 1))
    examples.append(C.restrict_regular(examples[-1], K.ModEq(1, 0, 2)))
    for s in examples:
        d = s.dim
        for length in range(5):
            for word in product(range(1, d + 1), repeat=length):
                values = set()
                for perm in set(permutations(word)):
                    p = s.expr
                    for j in perm:
                        p = s.system.lie(j)(p)
                    values.add(p.eval(s.system.init))
                assert len(values) == 1, (word, values)
    elapsed = budget.check()
    _report(9, "bridge coefficients match; Lie folding is order-independent", elapsed)


def test_criterion_10_determinism_and_resource_safety():
    budget = Budget(60.0)
    tiny = GroebnerLimits(max_degree=3)
    sys = sin_cos_system()
    ctx = Context(["g"])
    e2x = C.CdfSeries(
        C.CdfSystem(("x1",), ["g"], {("g", 1): 2 * ctx.var("g")}, [1]), ctx.var("g")
    )
    e = exp_series()
    seq_alt = S.Sum(S.One(), S.Fix((("Z", S.Sum(X, S.Prod(X, S.Ref("Z")))),), "Z"))
    # the verdict-producing queries of criteria 2, 5, and 8
    golden_queries = [
        lambda lim: W.zeroness(running_example(), limits=lim),
        lambda lim: W.equivalent(running_example(), running_example(), limits=lim),
        lambda lim: C.zeroness(
            C.CdfSeries(sys, sys.ctx.var("s") ** 2 + sys.ctx.var("c") ** 2 - 1),
            limits=lim,
        ),
        lambda lim: C.equivalent(e2x, C.CdfSeries(e.system, e.expr ** 2), limits=lim),
        lambda lim: C.equivalent(
            C.restrict_regular(exp_series(), K.ModEq(1, 1, 2)),
            C.c_scale(
                C.c_add(exp_series(), C.c_scale(exp_neg_series(), -1)),
                Fraction(1, 2),
            ),
            limits=lim,
        ),
        lambda lim: C.equivalent(cayley_series(), cayley_series(), limits=lim),
        lambda lim: S.equipotent(S.Seq(X), seq_alt, 1, limits=lim),
        lambda lim: S.equipotent(S.Set(X), S.Seq(X), 1, limits=lim),
    ]
    hit_limit = 0
    for query in golden_queries:
        constrained = query(tiny)
        assert constrained.outcome in (
            Outcome.ZERO,
            Outcome.NONZERO,
            Outcome.INCONCLUSIVE_RESOURCE_LIMIT,
        )
        if constrained.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT:
            hit_limit += 1
        first = query(None)
        second = query(None)
        assert first == second  # determinism, field by field
        assert first.outcome in (Outcome.ZERO, Outcome.NONZERO)
    assert hit_limit >= 1  # the tiny cap does bite somewhere
    elapsed = budget.check()
    _report(10, "saturations terminate or bow out; reruns identical", elapsed)

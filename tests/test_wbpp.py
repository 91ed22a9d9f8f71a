import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import shuffle_coefficient
from zeroness import wbpp as W
from zeroness._saturation import Outcome
from zeroness.errors import ArityMismatch, NotStandardForm, NotWellPosed, ResourceLimitExceeded
from zeroness.groebner import GroebnerLimits
from zeroness.poly import Context


def running_example(fx=0):
    """S -a-> X, X -a-> X^2, X -b-> 1; one 'a' spawns, one 'b' retires."""
    ctx = Context(["S", "X"])
    return W.Wbpp(
        ["a", "b"],
        ["S", "X"],
        "S",
        {
            ("a", "S"): ctx.var("X"),
            ("a", "X"): ctx.var("X") ** 2,
            ("b", "X"): ctx.one(),
        },
        {"S": 0, "X": fx},
    )


# Golden table for the running example, all 31 words of length <= 4,
# hand-executed: configurations along a^k are X, X^2, 2X^3, 6X^4 and each
# b multiplies by the exponent while dropping one factor.
RUNNING_GOLDEN = {"ab": Fraction(1), "aabb": Fraction(2)}


def test_delta_letter_examples():
    m = running_example()
    X = m.config("X")
    assert W.delta_letter(m, "a", X) == X**2
    assert W.delta_letter(m, "a", m.ctx.const(5)).is_zero()
    assert W.delta_letter(m, "b", X**2) == 2 * X


def test_delta_word_examples():
    m = running_example()
    assert W.delta_word(m, "aabb", m.config("S")) == m.ctx.const(2)
    alpha = m.config("S") * m.config("X") + 3
    assert W.delta_word(m, "", alpha) == alpha


def test_delta_word_order_matters():
    ctx = Context(["X", "Y"])
    m = W.Wbpp(
        ["a", "b"],
        ["X", "Y"],
        "X",
        {("b", "X"): ctx.var("Y"), ("a", "Y"): ctx.one(), ("b", "Y"): ctx.one()},
        {"X": 0, "Y": 0},
    )
    assert W.delta_word(m, "ab", m.config("X")).is_zero()
    assert W.delta_word(m, "ba", m.config("X")) == m.ctx.one()


def test_delta_word_degree_bound():
    m = running_example()
    rng = random.Random(17)
    from test_poly import rand_poly

    maxdeg = max(
        m.transition(a, nt).degree for a in m.alphabet for nt in m.nonterminals
    )
    for _ in range(20):
        alpha = rand_poly(m.ctx, rng)
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        out = W.delta_word(m, word, alpha)
        assert out.degree <= max(alpha.degree + len(word) * (maxdeg - 1), 0)


def test_evaluate_examples():
    m = running_example()
    assert W.evaluate(m, m.start, "aabb") == 2
    assert W.evaluate(m, m.start, "a") == 0
    assert W.evaluate(m, m.start, "ab") == 1


def test_evaluate_unknown_letter():
    m = running_example()
    with pytest.raises(ArityMismatch):
        W.evaluate(m, m.start, "ac")


def test_coeffs_up_to_golden():
    m = running_example()
    table = W.coeffs_up_to(m, m.start, 4)
    assert len(table) == 31
    nonzero = {w: v for w, v in table.items() if v != 0}
    assert nonzero == RUNNING_GOLDEN


def test_coeffs_up_to_caps_the_word_count():
    # 31 words up to length 4 on two letters; 1 + n on one letter
    m = running_example()
    assert len(W.coeffs_up_to(m, m.start, 4, GroebnerLimits(max_iterations=31))) == 31
    with pytest.raises(ResourceLimitExceeded) as refused:
        W.coeffs_up_to(m, m.start, 4, GroebnerLimits(max_iterations=30))
    assert (refused.value.cap, refused.value.value, refused.value.limit) == (
        "max_iterations", 31, 30
    )
    with pytest.raises(ResourceLimitExceeded):
        W.coeffs_up_to(m, m.start, 0, GroebnerLimits(max_iterations=0))
    ctx = Context(["S"])
    one_letter = W.Wbpp(["a"], ["S"], "S", {("a", "S"): ctx.var("S")}, {"S": 1})
    ten = GroebnerLimits(max_iterations=10)
    assert len(W.coeffs_up_to(one_letter, one_letter.start, 9, ten)) == 10
    with pytest.raises(ResourceLimitExceeded) as refused:
        W.coeffs_up_to(one_letter, one_letter.start, 10**12)
    assert refused.value.value == refused.value.limit + 1 == 200_001


def test_coeffs_zero_model():
    ctx = Context(["S"])
    m = W.Wbpp(["a", "b"], ["S"], "S", {}, {"S": 0})
    assert all(v == 0 for v in W.coeffs_up_to(m, m.start, 3).values())


def test_coeffs_length_zero():
    m = running_example(fx=3)
    alpha = m.config("X") ** 2
    assert W.coeffs_up_to(m, alpha, 0) == {"": Fraction(9)}


def test_exchange_lemma_random():
    # coefficient shift: [[alpha]]_{u w} = [[Delta_u alpha]]_w
    rng = random.Random(99)
    from test_poly import rand_poly

    m = running_example()
    for _ in range(60):
        alpha = rand_poly(m.ctx, rng, degree=2, terms=3)
        total = rng.randint(0, 6)
        cut = rng.randint(0, total)
        word = "".join(rng.choice("ab") for _ in range(total))
        u, w = word[:cut], word[cut:]
        assert W.evaluate(m, alpha, u + w) == W.evaluate(
            m, W.delta_word(m, u, alpha), w
        )


def test_homomorphism_lemma_shuffle_convolution():
    # [[alpha beta]] equals the shuffle product of the two series,
    # cross-checked by explicit interleaving enumeration.
    rng = random.Random(7)
    from test_poly import rand_poly

    m = running_example(fx=1)
    for _ in range(10):
        alpha = rand_poly(m.ctx, rng, degree=2, terms=2)
        beta = rand_poly(m.ctx, rng, degree=2, terms=2)
        f = W.coeffs_up_to(m, alpha, 5)
        g = W.coeffs_up_to(m, beta, 5)
        fg = W.coeffs_up_to(m, alpha * beta, 5)
        for word in fg:
            assert fg[word] == shuffle_coefficient(f, g, word)


def test_zeroness_running_example():
    verdict = W.zeroness(running_example())
    assert verdict.outcome is Outcome.NONZERO
    assert verdict.witness == "ab"
    assert verdict.value == 1


def test_zeroness_zero_config():
    m = running_example()
    verdict = W.zeroness(m, m.ctx.zero())
    assert verdict.outcome is Outcome.ZERO
    assert verdict.stats.chain_length == 0


def test_zeroness_commutator_config():
    m = running_example()
    alpha = m.config("S") * m.config("X") - m.config("X") * m.config("S")
    assert W.zeroness(m, alpha).outcome is Outcome.ZERO


def test_zeroness_all_zero_model():
    ctx = Context(["S"])
    m = W.Wbpp(["a", "b"], ["S"], "S", {}, {"S": 0})
    verdict = W.zeroness(m)
    assert verdict.outcome is Outcome.ZERO
    assert verdict.stats.chain_length == 0


def test_zeroness_agrees_with_coeffs():
    m = running_example()
    m1 = running_example(fx=1)
    models = [
        (m, m.start),
        (m, m.config("X") - m.config("X")),
        (m1, m1.start),
    ]
    for model, alpha in models:
        verdict = W.zeroness(model, alpha)
        table = W.coeffs_up_to(model, alpha, verdict.stats.chain_length + 2)
        if verdict.outcome is Outcome.ZERO:
            assert all(v == 0 for v in table.values())
        else:
            assert table[verdict.witness] == verdict.value


def test_witness_is_shortest_and_lex_least():
    rng = random.Random(12)
    from test_poly import rand_poly

    ctx = Context(["S", "X"])
    for _ in range(40):
        m = W.Wbpp(
            ["a", "b"],
            ["S", "X"],
            "S",
            {
                (letter, nt): rand_poly(ctx, rng, degree=2, terms=2, coeff_bound=2)
                for letter in "ab"
                for nt in ("S", "X")
            },
            {"S": rng.randint(-1, 1), "X": rng.randint(-1, 1)},
        )
        verdict = W.zeroness(m)
        if verdict.outcome is not Outcome.NONZERO:
            continue
        table = W.coeffs_up_to(m, m.start, len(verdict.witness))
        nonzero = [w for w, v in table.items() if v != 0]
        best = min(nonzero, key=lambda w: (len(w), w))
        assert verdict.witness == best
        assert table[verdict.witness] == verdict.value


def test_equivalent_self():
    m = running_example()
    assert W.equivalent(m, m).outcome is Outcome.ZERO


def test_equivalent_differs_on_output():
    verdict = W.equivalent(running_example(), running_example(fx=1))
    assert verdict.outcome is Outcome.NONZERO
    assert verdict.witness == "a"


def test_equivalent_pads_alphabets():
    ctx1, ctx2 = Context(["S"]), Context(["T"])
    m1 = W.Wbpp(["a"], ["S"], "S", {("a", "S"): ctx1.one()}, {"S": 0})
    m2 = W.Wbpp(["b"], ["T"], "T", {("b", "T"): ctx2.one()}, {"T": 0})
    verdict = W.equivalent(m1, m2)
    assert verdict.outcome is Outcome.NONZERO
    assert verdict.witness == "a"
    assert verdict.value == 1


def exp_model(weight=1):
    ctx = Context(["E"])
    return W.Wbpp(
        ["a"], ["E"], "E", {("a", "E"): weight * ctx.var("E")}, {"E": 1}
    )


def test_closure_sum_with_negation_is_zero():
    m = running_example()
    assert W.zeroness(W.sum_(m, W.scale(m, -1))).outcome is Outcome.ZERO


def test_closure_scale_coefficients():
    m = running_example()
    s = W.scale(m, Fraction(3, 2))
    table = W.coeffs_up_to(s, s.start, 4)
    base = W.coeffs_up_to(m, m.start, 4)
    assert all(table[w] == Fraction(3, 2) * base[w] for w in base)


def test_closure_shuffle_multiplicities():
    # [[ab-recognizer]] shuffle [[a-recognizer]] at aab is 2
    ctx = Context(["P", "Q", "R"])
    rec_ab = W.Wbpp(
        ["a", "b"],
        ["P", "Q", "R"],
        "P",
        {("a", "P"): ctx.var("Q"), ("b", "Q"): ctx.var("R")},
        {"P": 0, "Q": 0, "R": 1},
    )
    ctx2 = Context(["P"])
    rec_a = W.Wbpp(["a", "b"], ["P"], "P", {("a", "P"): ctx2.one()}, {"P": 0})
    sh = W.shuffle(rec_ab, rec_a)
    assert W.evaluate(sh, sh.start, "aab") == 2
    assert W.evaluate(sh, sh.start, "aba") == 1
    assert W.evaluate(sh, sh.start, "ab") == 0


def test_closure_shuffle_is_series_shuffle():
    m1, m2 = running_example(), exp_model()
    m2b = W.Wbpp(["a", "b"], ["E"], "E",
                 {("a", "E"): m2.ctx.var("E").rename(Context(["E"]))}, {"E": 1})
    sh = W.shuffle(m1, m2b)
    f = W.coeffs_up_to(m1, m1.start, 4)
    g = W.coeffs_up_to(m2b, m2b.start, 4)
    table = W.coeffs_up_to(sh, sh.start, 4)
    for word in table:
        assert table[word] == shuffle_coefficient(f, g, word)


def test_closure_derive_shifts():
    m = running_example()
    d = W.derive(m, "a")
    for word in ("", "a", "b", "ab", "abb", "abab"):
        assert W.evaluate(d, d.start, word) == W.evaluate(m, m.start, "a" + word)


def test_closure_inverse():
    m = exp_model()
    inv = W.shuffle_inverse(m)
    prod = W.shuffle(m, inv)
    table = W.coeffs_up_to(prod, prod.start, 5)
    assert table[""] == 1
    assert all(v == 0 for w, v in table.items() if w)


def test_closure_inverse_needs_constant():
    with pytest.raises(NotWellPosed):
        W.shuffle_inverse(running_example())


def test_two_presentations_same_rational_series():
    # f + g built two ways: sum(m1, m2) vs sum(m2, m1)
    m1, m2 = exp_model(1), exp_model(2)
    a = W.sum_(m1, m2)
    b = W.sum_(m2, m1)
    assert W.coeffs_up_to(a, a.start, 4) == W.coeffs_up_to(b, b.start, 4)
    assert W.equivalent(a, b).outcome is Outcome.ZERO


def test_bpp_running_example():
    spec = W.BppSpec(
        {"S": (("a", ("X",)),), "X": (("a", ("X", "X")), ("b", ()))}, "S"
    )
    m = W.bpp_to_wbpp(spec)
    assert W.evaluate(m, m.start, "aabb") == 2
    assert W.evaluate(m, m.start, "ab") == 1
    reference = running_example()
    assert W.equivalent(m, reference).outcome is Outcome.ZERO


def test_bpp_single_rule():
    spec = W.BppSpec({"X": (("a", ()),)}, "X")
    m = W.bpp_to_wbpp(spec)
    assert m.transition("a", "X") == m.ctx.one()
    assert m.output("X") == 0
    table = W.coeffs_up_to(m, m.start, 3)
    assert {w: v for w, v in table.items() if v != 0} == {"a": 1}


def test_bpp_equivalent_presentations():
    # a.end + a.end doubles the weight; so does a.end + a.(end|end)
    s1 = W.BppSpec({"X": (("a", ()), ("a", ()))}, "X")
    s2 = W.BppSpec({"Y": (("a", ()), ("a", ()))}, "Y")
    m1, m2 = W.bpp_to_wbpp(s1), W.bpp_to_wbpp(s2)
    assert W.coeffs_up_to(m1, m1.start, 3) == W.coeffs_up_to(m2, m2.start, 3)
    assert W.equivalent(m1, m2).outcome is Outcome.ZERO


def test_bpp_rejects_unproductive():
    with pytest.raises(NotStandardForm):
        W.bpp_to_wbpp(W.BppSpec({"X": (("a", ("Y",)),), "Y": ()}, "X"))


def test_bpp_rejects_undefined():
    with pytest.raises(NotStandardForm):
        W.bpp_to_wbpp(W.BppSpec({"X": (("a", ("Z",)),)}, "X"))


def test_commutative_check_finds_counterexample():
    m = running_example()
    pair = W.check_commutative_bounded(m, 4)
    assert pair is not None
    u, v = pair
    assert sorted(u) == sorted(v)
    assert W.evaluate(m, m.start, u) != W.evaluate(m, m.start, v)


def test_commutative_check_unary_alphabet():
    assert W.check_commutative_bounded(exp_model(), 5) is None


def test_commutative_check_cdf_derived():
    from zeroness import cdf

    ctx = Context(["s", "c"])
    sc = cdf.CdfSystem(
        ("a", "b"),
        ["s", "c"],
        {("s", 1): ctx.var("c"), ("c", 1): -ctx.var("s"),
         ("s", 2): ctx.var("s"), ("c", 2): ctx.var("c")},
        [0, 1],
    )
    m = cdf.to_wbpp(cdf.CdfSeries(sc, sc.ctx.var("s")))
    assert W.check_commutative_bounded(m, 4) is None


def test_resource_limits_inconclusive():
    m = running_example()
    diff = W.sum_(m, W.scale(m, -1))
    # Degree 2 lets the pruned saturation finish; degree 1 cannot even
    # form the squared configurations, so it must fail loudly.
    assert W.zeroness(diff, limits=GroebnerLimits(max_degree=2)).outcome is Outcome.ZERO
    verdict = W.zeroness(diff, limits=GroebnerLimits(max_degree=1))
    assert verdict.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT
    assert "max_degree" in verdict.detail
    # stats say how far the saturation got when the cap fired
    assert (verdict.stats.chain_length, verdict.stats.basis_size) == (1, 2)
    # a cap hit inside the initial basis computation reports an empty chain
    verdict = W.zeroness(diff, limits=GroebnerLimits(max_iterations=0))
    assert verdict.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT
    assert (verdict.stats.chain_length, verdict.stats.basis_size) == (0, 0)


def with_unreachable_nonterminals(fx=0):
    """The running example plus Z and W, which the start never reaches;
    Z sits between S and X, so pruning it renumbers X."""
    ctx = Context(["S", "Z", "X", "W"])
    S, Z, X, W_ = (ctx.var(n) for n in ("S", "Z", "X", "W"))
    return W.Wbpp(
        ["a", "b"],
        ["S", "Z", "X", "W"],
        "S",
        {
            ("a", "S"): X,
            ("a", "X"): X**2,
            ("b", "X"): ctx.one(),
            ("a", "Z"): Z * X + W_,
            ("b", "Z"): S,
            ("a", "W"): W_**2,
        },
        {"S": 0, "Z": 1, "X": fx, "W": 2},
    )


@pytest.mark.parametrize(
    "limits", [None, GroebnerLimits(max_degree=1), GroebnerLimits(max_iterations=3)]
)
def test_pruning_unreachable_nonterminals_keeps_verdicts(limits):
    # deleting the unreachable nonterminals by hand must change nothing:
    # outcome, witness, value, detail and stats
    for fx in (0, 1):
        full, trimmed = with_unreachable_nonterminals(fx), running_example(fx)
        assert W.zeroness(full, limits=limits) == W.zeroness(trimmed, limits=limits)
        for other in (running_example(), running_example(1)):
            assert W.equivalent(full, other, limits) == W.equivalent(
                trimmed, other, limits
            )
            assert W.equivalent(other, full, limits) == W.equivalent(
                other, trimmed, limits
            )
    diff = W.sum_(full, W.scale(full, -1))
    assert W.zeroness(diff, limits=limits) == W.zeroness(
        W.sum_(trimmed, W.scale(trimmed, -1)), limits=limits
    )


def test_exhaustive_one_nonterminal_sweep():
    # every model with one nonterminal, two letters, and transitions drawn
    # from a small catalogue: the verdict must agree with the coefficient
    # table, and witnesses must be length-lex minimal
    import itertools

    ctx = Context(["X"])
    x = ctx.var("X")
    choices = [ctx.zero(), ctx.one(), x, x * x, -x, x + 1]
    for ta, tb, out in itertools.product(range(6), range(6), (0, 1)):
        m = W.Wbpp(
            ["a", "b"], ["X"], "X",
            {("a", "X"): choices[ta], ("b", "X"): choices[tb]},
            {"X": out},
        )
        verdict = W.zeroness(m)
        table = W.coeffs_up_to(m, m.start, 7)
        nonzero = {w: v for w, v in table.items() if v != 0}
        if verdict.outcome is Outcome.ZERO:
            assert not nonzero
        else:
            best = min(nonzero, key=lambda w: (len(w), w))
            assert verdict.witness == best
            assert verdict.value == nonzero[best]


def test_exhaustive_unary_two_nonterminal_sweep():
    import itertools

    ctx = Context(["S", "T"])
    s, t = ctx.var("S"), ctx.var("T")
    choices = [ctx.zero(), ctx.one(), s, t, s * t, t * t, s - t]
    for ts, tt, fs, ft in itertools.product(range(7), range(7), (0, 1), (0, 1)):
        m = W.Wbpp(
            ["a"], ["S", "T"], "S",
            {("a", "S"): choices[ts], ("a", "T"): choices[tt]},
            {"S": fs, "T": ft},
        )
        verdict = W.zeroness(m)
        table = W.coeffs_up_to(m, m.start, 9)
        nonzero = {w: v for w, v in table.items() if v != 0}
        if verdict.outcome is Outcome.ZERO:
            assert not nonzero
        elif nonzero:
            best = min(nonzero, key=lambda w: (len(w), w))
            assert (verdict.witness, verdict.value) == (best, nonzero[best])
        else:
            assert W.evaluate(m, m.start, verdict.witness) == verdict.value

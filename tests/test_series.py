import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroness.errors import ArityMismatch, NotWellPosed
from zeroness.series import (
    TruncSeries,
    binom_vec,
    factorial_vec,
    mask,
    solve_implicit,
)


def x(dim=1, trunc=6, axis=1):
    return TruncSeries.coordinate(axis, dim, trunc)


def rand_table(rng, dim=1, trunc=5, bound=4):
    coeffs = {}
    for n in product(range(trunc + 1), repeat=dim):
        if sum(n) <= trunc and rng.random() < 0.7:
            coeffs[n] = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
    return TruncSeries(dim, trunc, coeffs)


def test_add_identity_and_cancel():
    rng = random.Random(1)
    f = rand_table(rng)
    assert f + TruncSeries.zero(1, 5) == f
    assert f + f.scale(-1) == TruncSeries.zero(1, 5)


def test_scale():
    e = x(trunc=3).exp()
    assert e.scale(2).univariate_list() == [2, 2, 2, 2]


def test_mul_exp_squared():
    e = x(1, 4).exp()
    assert (e * e).univariate_list() == [1, 2, 4, 8, 16]


def test_mul_identity():
    rng = random.Random(2)
    f = rand_table(rng)
    assert f * TruncSeries.const(1, 1, 5) == f


def test_mul_x_times_x():
    t = x(1, 4)
    assert (t * t)[(2,)] == 2


def test_mul_commutative_associative_distributive():
    rng = random.Random(3)
    for _ in range(15):
        f, g, h = (rand_table(rng, dim=2, trunc=4) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_exponential_vs_ordinary_convolution():
    # dividing by n! turns binomial convolution into the Cauchy product
    rng = random.Random(4)
    for _ in range(10):
        f, g = rand_table(rng, dim=2, trunc=4), rand_table(rng, dim=2, trunc=4)
        fg = f * g
        for n in fg.coeffs:
            direct = Fraction(0)
            for a in product(range(n[0] + 1), range(n[1] + 1)):
                b = (n[0] - a[0], n[1] - a[1])
                direct += f.ordinary(a) * g.ordinary(b)
            assert fg.ordinary(n) == direct


def test_derive_examples():
    e = x(1, 5).exp()
    assert e.derive(1).univariate_list() == [1, 1, 1, 1, 1]
    assert TruncSeries.const(3, 1, 4).derive(1) == TruncSeries.zero(1, 3)
    sin = TruncSeries(1, 5, {(1,): 1, (3,): -1, (5,): 1})
    assert sin.derive(1).univariate_list() == [1, 0, -1, 0, 1]


def test_derive_leibniz():
    rng = random.Random(5)
    for _ in range(10):
        f, g = rand_table(rng, dim=2, trunc=4), rand_table(rng, dim=2, trunc=4)
        for j in (1, 2):
            assert (f * g).derive(j) == f.derive(j) * g + f * g.derive(j)


def test_exp_table():
    assert x(1, 5).exp().univariate_list() == [1, 1, 1, 1, 1, 1]


def test_exp_bell():
    e = x(1, 5).exp()
    assert (e - 1).exp().univariate_list() == [1, 1, 2, 5, 15, 52]


def test_bell_recurrence_oracle():
    # B_{n+1} = sum_k C(n, k) B_k, computed independently
    bell = [1]
    import math

    for n in range(5):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    assert (x(1, 5).exp() - 1).exp().univariate_list() == bell


def test_exp_times_exp_of_negation_is_one():
    rng = random.Random(6)
    for _ in range(8):
        f = rand_table(rng, dim=2, trunc=4)
        f = f - TruncSeries.const(f.constant(), 2, 4)  # zero constant term
        assert f.exp() * f.scale(-1).exp() == TruncSeries.const(1, 2, 4)


def test_exp_requires_zero_constant():
    with pytest.raises(NotWellPosed):
        TruncSeries.const(1, 1, 3).exp()


def test_inverse_geometric():
    one = TruncSeries.const(1, 1, 4)
    assert (one - x(1, 4)).inverse().univariate_list() == [1, 1, 2, 6, 24]


def test_inverse_requires_nonzero_constant():
    with pytest.raises(NotWellPosed):
        x(1, 3).inverse()


def test_inverse_is_right_inverse():
    rng = random.Random(7)
    for _ in range(8):
        f = rand_table(rng, dim=1, trunc=5)
        if f.constant() == 0:
            f = f + 2
        assert f * f.inverse() == TruncSeries.const(1, 1, 5)


def test_neg_log_one_minus_is_cyc_series():
    # ordinary coefficients x^n/n mean exponential coefficients (n-1)!
    c = x(1, 5).neg_log_one_minus()
    assert c.univariate_list() == [0, 1, 1, 2, 6, 24]


def test_compose_identity_and_square():
    g = rand_table(random.Random(8), dim=1, trunc=5)
    g = g - TruncSeries.const(g.constant(), 1, 5)
    y = TruncSeries.coordinate(2, 2, 5)
    assert y.compose([g]) == g
    assert (y * y).compose([g]) == g * g


def test_compose_bell():
    f = TruncSeries.coordinate(2, 2, 5).exp()
    e = x(1, 5).exp()
    assert f.compose([e - 1]).univariate_list() == [1, 1, 2, 5, 15, 52]


def test_compose_rejects_nonzero_constant_when_occurring():
    f = TruncSeries.coordinate(2, 2, 4)
    with pytest.raises(NotWellPosed):
        f.compose([TruncSeries.const(1, 1, 4)])


def test_compose_ignores_non_occurring():
    f = TruncSeries.coordinate(1, 2, 4)  # no y dependence
    assert f.compose([TruncSeries.const(7, 1, 4)]) == x(1, 4)


def test_solve_implicit_catalan():
    sol = solve_implicit(lambda xs, ys: (xs[0] + ys[0] * ys[0],), 1, 1, 4)
    assert sol[0].univariate_list() == [0, 1, 2, 12, 120]


def test_solve_implicit_identity():
    sol = solve_implicit(lambda xs, ys: (xs[0],), 1, 1, 3)
    assert sol[0].univariate_list() == [0, 1, 0, 0]


SP_GOLDEN = {
    "y1": [0, 1, 3, 19, 195, 2791, 51303],
    "y2": [0, 0, 2, 12, 122, 1740, 31922],
    "y3": [0, 0, 1, 7, 73, 1051, 19381],
}


def sp_system(xs, ys):
    xx = xs[0]
    y1, y2, y3 = ys
    one = TruncSeries.const(1, xx.dim, xx.trunc)
    a = xx + y3
    b = xx + y2
    return (xx + y2 + y3, (one - a).inverse() - one - a, b.exp() - one - b)


def test_solve_implicit_series_parallel_golden():
    sol = solve_implicit(sp_system, 1, 3, 6)
    assert sol[0].univariate_list() == SP_GOLDEN["y1"]
    assert sol[1].univariate_list() == SP_GOLDEN["y2"]
    assert sol[2].univariate_list() == SP_GOLDEN["y3"]


def test_solve_implicit_self_consistent_two_truncations():
    lo = solve_implicit(sp_system, 1, 3, 6)
    hi = solve_implicit(sp_system, 1, 3, 8)
    for a, b in zip(lo, hi):
        assert all(a[(n,)] == b[(n,)] for n in range(7))


def test_solve_implicit_rejects_bad_origin():
    one = lambda xs, ys: (TruncSeries.const(1, xs[0].dim, xs[0].trunc) + xs[0],)
    with pytest.raises(NotWellPosed):
        solve_implicit(one, 1, 1, 3)


def test_solve_implicit_rejects_non_nilpotent():
    with pytest.raises(NotWellPosed):
        solve_implicit(lambda xs, ys: (ys[0],), 1, 1, 3)


def test_mask():
    e = x(1, 5).exp()
    assert mask(e, lambda n: n[0] % 2 == 1).univariate_list() == [0, 1, 0, 1, 0, 1]


def test_dimension_mismatch():
    with pytest.raises(ArityMismatch):
        x(1, 3) + x(2, 3)


def test_truncation_is_min():
    assert (x(1, 5) + x(1, 3)).trunc == 3
    assert (x(1, 5) * x(1, 4)).trunc == 4


def test_binom_and_factorial_vec():
    assert binom_vec((3, 2), (1, 1)) == 6
    assert factorial_vec((3, 2)) == 12


# TruncSeries.__mul__ accumulates integer numerators over one common
# denominator; it must equal the plain-Fraction convolution below, entry for
# entry and in the same order, and store only Fraction values.

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def series_pairs(draw):
    dim = draw(st.integers(1, 2))
    exponents = st.lists(st.integers(0, 4), min_size=dim, max_size=dim).map(tuple)

    def table():
        trunc = draw(st.integers(0, 5))
        coeffs = draw(st.dictionaries(exponents, fractions, max_size=8))
        return TruncSeries(dim, trunc, coeffs)

    return table(), table()


def reference_mul(f, g):
    N = min(f.trunc, g.trunc)
    table = {}
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            n = tuple(x + y for x, y in zip(a, b))
            if sum(n) > N:
                continue
            table[n] = table.get(n, Fraction(0)) + binom_vec(n, a) * ca * cb
    return [(n, c) for n, c in table.items() if c != 0]


@given(series_pairs())
# (1 + x/2)(1 - x/2): the x coefficient cancels
@example((
    TruncSeries(1, 4, {(0,): 1, (1,): Fraction(1, 2)}),
    TruncSeries(1, 4, {(0,): 1, (1,): Fraction(-1, 2)}),
))
# every product lies beyond the truncation: the zero table
@example((TruncSeries(2, 5, {(3, 0): Fraction(2, 3)}), TruncSeries(2, 3, {(0, 2): 7})))
@settings(max_examples=150, deadline=None)
def test_mul_kernel_matches_fraction_reference(pair):
    f, g = pair
    h = f * g
    assert h.trunc == min(f.trunc, g.trunc)
    assert list(h.coeffs.items()) == reference_mul(f, g)
    for c in h.coeffs.values():
        assert type(c) is Fraction and c != 0

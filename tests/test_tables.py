"""The coefficient tables of ``cdf`` against the layered algorithm written
here on the referee's products.

``generator_tables`` and ``coeff_table`` compute on integer numerators
with their own binomial convolution.  The reference below recomputes the
same kernel recurrence on ``TruncSeries`` products, one image at a time:
at each layer, the coefficient of generator i at n is the coefficient at
n - e_j of its entry along j, the smallest axis of n, evaluated on the
tables so far."""

import os
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroness import cdf as C
from zeroness import formats, species
from zeroness.poly import Context
from zeroness.series import TruncSeries

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")

# nonzero rationals whose denominators are greater than 1
rationals = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 6)).filter(
    lambda c: c.denominator > 1
)


@st.composite
def systems(draw):
    """(d, kernel terms, init, expression terms, N); a polynomial is a list
    of (exponent vector over the generators, coefficient) of degree <= 3."""
    d = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * k).filter(lambda e: sum(e) <= 3)
    polys = st.lists(st.tuples(exponents, rationals), max_size=3)
    kernel = {(i, j): draw(polys) for i in range(k) for j in range(1, d + 1)}
    init = draw(st.lists(rationals, min_size=k, max_size=k))
    return d, kernel, init, draw(polys), draw(st.integers(0, 6))


def to_poly(ctx, terms):
    p = ctx.zero()
    for e, c in terms:
        m = ctx.const(c)
        for name, power in zip(ctx.names, e):
            m = m * ctx.var(name) ** power
        p = p + m
    return p


def ref_eval(terms, tables, d, N):
    """A polynomial evaluated on tables truncated at N, by TruncSeries products."""
    out = TruncSeries.zero(d, N)
    for e, c in terms:
        term = TruncSeries.const(c, d, N)
        for v, power in enumerate(e):
            for _ in range(power):
                term = term * tables[v]
        out = out + term
    return out


def ref_tables(d, kernel, init, N):
    zero = (0,) * d
    tables = [TruncSeries(d, N, {zero: c}) for c in init]
    for layer in range(N):
        snapshot = [TruncSeries(d, layer, t.coeffs) for t in tables]
        images = {}
        for n in product(range(layer + 2), repeat=d):
            if sum(n) != layer + 1:
                continue
            j = next(a for a, v in enumerate(n) if v)  # smallest axis
            m = tuple(v - (a == j) for a, v in enumerate(n))
            for i, t in enumerate(tables):
                if (i, j) not in images:
                    images[(i, j)] = ref_eval(kernel[(i, j + 1)], snapshot, d, layer)
                val = images[(i, j)][m]
                if val != 0:
                    t.coeffs[n] = val
    return tables


def only_fractions(table):
    return all(type(c) is Fraction and c != 0 for c in table.coeffs.values())


@settings(max_examples=120, deadline=None)
@given(systems())
# a zero initial value and a constant entry: y' = 1/2 along x1, y'' = -y/3 along x2
@example((2, {(0, 1): [((0,), Fraction(1, 2))], (0, 2): [((1,), Fraction(-1, 3))]},
          [Fraction(0)], [((1,), Fraction(5, 2)), ((0,), Fraction(1, 3))], 6))
# mixed degrees in one entry, so its terms sit over different powers of D
@example((1, {(0, 1): [((2,), Fraction(1, 2)), ((0,), Fraction(2, 3))]},
          [Fraction(3, 4)], [((3,), Fraction(1, 5)), ((1,), Fraction(-1, 2))], 6))
def test_tables_match_the_layered_reference(case):
    d, kernel, init, expr_terms, N = case
    k = len(init)
    ctx = Context([f"y{i}" for i in range(k)])
    names = tuple(f"x{j}" for j in range(1, d + 1))
    sys = C.CdfSystem(
        names,
        ctx.names,
        {(ctx.name_of(i), j): to_poly(ctx, terms) for (i, j), terms in kernel.items()},
        init,
    )
    want = ref_tables(d, kernel, init, N)
    got = C.generator_tables(sys, N)
    assert got == want
    assert all(only_fractions(t) for t in got)
    table = C.coeff_table(C.CdfSeries(sys, to_poly(sys.ctx, expr_terms)), N)
    assert table == ref_eval(expr_terms, want, d, N)
    assert only_fractions(table)


def test_tables_do_not_use_the_referee_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("the table engine called TruncSeries.__mul__")

    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
    monkeypatch.setattr(TruncSeries, "__rmul__", refuse)
    _, (_, expr, sorts), _ = formats.load_model(os.path.join(MODELS, "series_parallel.spec"))
    table = C.coeff_table(species.compile_species(expr, sorts), 8)
    assert table.univariate_list() == [0, 1, 3, 19, 195, 2791, 51303, 1152019, 30564075]

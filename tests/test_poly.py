import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroness.errors import ArityMismatch, ContextMismatch
from zeroness.poly import Context, Derivation, Monomial, Poly


@pytest.fixture
def ctx():
    return Context(["x", "y"])


def rand_poly(ctx, rng, degree=3, terms=4, coeff_bound=5):
    p = ctx.zero()
    for _ in range(rng.randint(0, terms)):
        mono = ctx.one()
        for _ in range(rng.randint(0, degree)):
            mono = mono * ctx.var(rng.choice(ctx.names))
        c = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 4))
        p = p + mono * c
    return p


def test_add_cancellation(ctx):
    x = ctx.var("x")
    assert (x + 1) + (-x) == ctx.one()


def test_add_identity(ctx):
    p = ctx.var("x") ** 2 - ctx.var("y")
    assert p + ctx.zero() == p
    assert p + ctx.var("y") == ctx.var("x") ** 2


def test_mul_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert (x + y) * (x - y) == x**2 - y**2
    p = x**2 + 3 * y
    assert p * ctx.one() == p
    assert Fraction(1, 2) * x * (Fraction(2, 3) * x) == Fraction(1, 3) * x**2


def test_mul_degree_additive(ctx):
    rng = random.Random(7)
    for _ in range(50):
        p, q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree == p.degree + q.degree


def test_eval_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert (x**2 + y).eval([2, 3]) == 7
    assert ctx.zero().eval([5, 11]) == 0
    a = Fraction(9, 7)
    assert (x - y).eval([a, a]) == 0


def test_eval_arity(ctx):
    with pytest.raises(ArityMismatch):
        ctx.var("x").eval([1])


def test_eval_is_homomorphism(ctx):
    rng = random.Random(11)
    for _ in range(30):
        p, q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)
        # a zero coordinate kills the terms that contain it and no others
        point[rng.randrange(2)] = Fraction(0)
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)
    x, y = ctx.var("x"), ctx.var("y")
    assert (x * y + 2 * x + 3 * y**2 - 5).eval([0, Fraction(1, 2)]) == Fraction(-17, 4)


def test_substitute_triple_product():
    outer = Context(["y1", "y2", "y3"])
    inner = Context(["a", "b"])
    f = inner.var("a") + 1
    g = inner.var("b") ** 2
    h = inner.var("a") * inner.var("b")
    p = outer.var("y1") * outer.var("y2") - outer.var("y3")
    image = p.substitute({0: f, 1: g, 2: h})
    assert image == f * g - h


def test_substitute_identity_and_zero(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    p = x**2 * y + 3 * y
    assert p.substitute({0: x, 1: y}) == p
    q = x * (y + 1)
    assert q.substitute({0: ctx.zero(), 1: y}) == ctx.zero()
    z = Context(["z"]).var("z")
    assert (x + y).substitute({0: z, 1: -z}).terms == {}


def test_substitute_missing_image(ctx):
    with pytest.raises(ArityMismatch):
        (ctx.var("x") * ctx.var("y")).substitute({0: ctx.one()})


def test_context_mismatch(ctx):
    other = Context(["x", "y"])
    with pytest.raises(ContextMismatch):
        ctx.var("x") + other.var("x")


def test_derivation_power_rule():
    ctx = Context(["X"])
    X = ctx.var("X")
    d = Derivation(ctx, {0: X**2})
    assert d(X**3) == 3 * X**4


def test_derivation_constant(ctx):
    d = Derivation(ctx, {0: ctx.var("x") ** 2, 1: ctx.one()})
    assert d(ctx.const(Fraction(22, 7))) == ctx.zero()
    x, y = ctx.var("x"), ctx.var("y")
    rotation = Derivation(ctx, {0: -y, 1: x})  # x d/dy - y d/dx
    assert rotation(x**2 + y**2).terms == {}


def test_derivation_leibniz_by_hand(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    d = Derivation(ctx, {0: x**2, 1: ctx.one()})
    assert d(x * y) == x**2 * y + x


def test_derivation_leibniz_random(ctx):
    rng = random.Random(23)
    for _ in range(40):
        d = Derivation(ctx, {0: rand_poly(ctx, rng), 1: rand_poly(ctx, rng)})
        p, q = rand_poly(ctx, rng), rand_poly(ctx, rng)
        assert d(p * q) == d(p) * q + p * d(q)


def test_derivation_degree_growth_bound(ctx):
    # deg(L^n a) <= max(deg a + n (deg L - 1), 0) for n <= 6
    rng = random.Random(31)
    for _ in range(20):
        d = Derivation(ctx, {0: rand_poly(ctx, rng), 1: rand_poly(ctx, rng)})
        a = rand_poly(ctx, rng)
        dd = d.degree
        p = a
        for n in range(1, 7):
            p = d(p)
            assert p.degree <= max(a.degree + n * (dd - 1), 0)


@st.composite
def small_polys(draw):
    ctx = Context(["x", "y"])
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(-4, 4),
            ),
            max_size=5,
        )
    )
    p = ctx.zero()
    for ex, ey, c in terms:
        p = p + Poly(ctx, {Monomial(((0, ex), (1, ey))): Fraction(c)})
    return ctx, p


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    ctx, p = a
    q = b[1].rename(ctx)
    r = c[1].rename(ctx)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Monomial(((0, -1),))
    with pytest.raises(ValueError):
        Monomial(((1, 2), (0, -3)))


def test_degree_and_height_conventions(ctx):
    assert ctx.zero().degree == 0
    assert ctx.zero().height == 0
    p = 3 * ctx.var("x") - ctx.const(Fraction(7, 2))
    assert p.height == Fraction(7, 2)
    assert p.degree == 1


def test_canonical_printing(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    p = x**2 - y + Fraction(1, 2) * x * y - 3
    assert str(p) == "x^2 + 1/2*x*y - y - 3"
    assert str(ctx.zero()) == "0"
    assert str(-x) == "-x"

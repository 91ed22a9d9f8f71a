import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense, grlex_key, mono_mul, packed
from zeroness.errors import ArityMismatch, ContextMismatch, ResourceLimitExceeded
from zeroness.poly import _MAX_EXPONENT, Context, Derivation, Poly


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
        p = p + Poly(ctx, {packed((ex, ey)): Fraction(c)})
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


def test_degree_and_height_conventions(ctx):
    assert ctx.zero().degree == 0
    p = 3 * ctx.var("x") - ctx.const(Fraction(7, 2))
    assert p.degree == 1


def test_canonical_printing(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    p = x**2 - y + Fraction(1, 2) * x * y - 3
    assert str(p) == "x^2 + 1/2*x*y - y - 3"
    assert str(ctx.zero()) == "0"
    assert str(-x) == "-x"
    assert str(y**2 + x * y + x**2) == "x^2 + x*y + y^2"
    # printing sorts the packed keys, so the largest exponent a field holds
    # prints, and a larger one cannot be built
    assert str(y**_MAX_EXPONENT) == "y^2147483647"
    assert str(x**_MAX_EXPONENT + y**3) == "x^2147483647 + y^3"
    assert str(x * y**_MAX_EXPONENT + x**2) == "x*y^2147483647 + x^2"
    with pytest.raises(ResourceLimitExceeded) as refused:
        y ** (2**40)
    assert refused.value.cap == "exponent"


def test_overflowing_exponents_are_a_resource_cap(ctx):
    # products, powers, substitution and renaming run on packed monomials:
    # a result with an exponent of 2**31 or more is refused, never wrapped
    x, y = ctx.var("x"), ctx.var("y")
    edge = x**_MAX_EXPONENT
    merged = Context(["z"])
    three = Context(["a", "b", "c"])
    edge3 = Poly(three, {packed((_MAX_EXPONENT,) * 3): 1})
    cases = [
        (lambda: y ** (2**40), 2**31),  # y ** 2**40 by squaring
        (lambda: edge * x, _MAX_EXPONENT + 1),
        (lambda: (edge + y) * (x + 1), _MAX_EXPONENT + 1),
        (lambda: x ** (2**31), 2**31),
        (lambda: (x ** (2**16) * y) ** (2**15), 2**31),
        (lambda: (x ** (2**30) + y) ** 2, 2**31),
        (lambda: edge.substitute({0: x * y}) * x, _MAX_EXPONENT + 1),
        (lambda: (edge * y).substitute({0: x, 1: x}), _MAX_EXPONENT + 1),
        (lambda: (x ** (2**20)).substitute({0: y ** (2**11)}), 2**31),
        (lambda: (edge * y).rename(merged, {"x": "z", "y": "z"}), _MAX_EXPONENT + 1),
        # three fields of 2**31 - 1 meeting in one would carry out of it
        (lambda: edge3.rename(merged, dict.fromkeys("abc", "z")), 2 * _MAX_EXPONENT),
    ]
    for run, value in cases:
        with pytest.raises(ResourceLimitExceeded) as refused:
            run()
        assert (refused.value.cap, refused.value.value) == ("exponent", value)
    # at the field's edge nothing is refused
    assert (edge * y).rename(ctx) == edge * y
    assert edge.substitute({0: y}).degree == _MAX_EXPONENT
    assert ((x + y) * (x - y)).rename(merged, {"x": "z", "y": "z"}) == merged.zero()


def test_rename_renumbers_by_name():
    src = Context(["a", "b", "c"])
    a, b, c = (src.var(n) for n in "abc")
    target = Context(["c", "u", "a", "b"])
    p = Fraction(1, 3) * a**2 * c - b + 5
    q = p.rename(target)
    assert list(q.terms.values()) == list(p.terms.values())
    assert str(q) == "1/3*c*a^2 - b + 5"
    # names that meet add their exponents and their coefficients
    merged = (a * b + b * a - c**2).rename(target, {"a": "u", "b": "u", "c": "u"})
    assert str(merged) == "u^2"
    with pytest.raises(KeyError, match="unknown variable 'c'"):
        c.rename(Context(["a", "b"]))


# The product-and-sum kernels accumulate integer numerators over one common
# denominator.  Each must equal the plain-Fraction formula below, term for
# term and in the same order, and store and return only Fraction values.

KERNEL_CTX = Context(["x", "y", "z"])

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
monomials = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(packed)


@st.composite
def kernel_polys(draw, max_size=6):
    terms = {}
    for m, c in draw(st.lists(st.tuples(monomials, fractions), max_size=max_size)):
        terms[m] = terms.get(m, Fraction(0)) + c
    return Poly(KERNEL_CTX, terms)


def kernel_poly(*terms):
    return Poly(KERNEL_CTX, {packed(e): Fraction(c) for e, c in terms})


def assert_all_fractions(values):
    for c in values:
        assert type(c) is Fraction and c != 0


def reference_mul(p, q):
    """Products of term dicts over KERNEL_CTX, as a list of (monomial,
    coefficient)."""
    terms = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2, 3)
            terms[m] = terms.get(m, Fraction(0)) + c1 * c2
    return [(m, c) for m, c in terms.items() if c != 0]


def reference_substitute(p, images):
    out = {}
    for m, c in p.terms.items():
        term = {packed((0, 0, 0)): c}
        for v, e in enumerate(dense(m, 3)):
            for _ in range(e):
                term = dict(reference_mul(term, images[v].terms))
        for k, x in term.items():
            out[k] = out.get(k, Fraction(0)) + x
    return {k: x for k, x in out.items() if x != 0}


def reference_eval(p, point):
    total = Fraction(0)
    for m, c in p.terms.items():
        for v, e in enumerate(dense(m, 3)):
            c *= Fraction(point[v]) ** e
        total += c
    return total


def reference_derive(d, p):
    out = {}
    for m, c in p.terms.items():
        exps = dense(m, 3)
        for v, e in enumerate(exps):
            if not e or v not in d.images:
                continue
            rest = packed(tuple(f - (u == v) for u, f in enumerate(exps)))
            for im, ic in d.images[v].terms.items():
                key = mono_mul(im, rest, 3)
                out[key] = out.get(key, Fraction(0)) + c * e * ic
    return [(m, c) for m, c in out.items() if c != 0]


@given(st.lists(monomials, max_size=8, unique=True))
@settings(max_examples=100, deadline=None)
def test_print_order_is_grlex(ms):
    want = sorted(ms, key=lambda m: grlex_key(m, 3), reverse=True)
    p = Poly(KERNEL_CTX, dict.fromkeys(ms, Fraction(1)))
    names = KERNEL_CTX.names
    printed = [
        "*".join(f"{names[v]}^{e}" if e > 1 else names[v] for v, e in enumerate(dense(m, 3)) if e)
        or "1"
        for m in want
    ]
    assert str(p) == (" + ".join(printed) if ms else "0")


@given(kernel_polys(), kernel_polys())
@example(kernel_poly(((1, 0, 0), Fraction(1, 2))), kernel_poly())
@example(
    kernel_poly(((1, 0, 0), 1), ((0, 1, 0), Fraction(2, 3))),
    kernel_poly(((1, 0, 0), 1), ((0, 1, 0), Fraction(-2, 3))),
)
@settings(max_examples=150, deadline=None)
def test_mul_kernel_matches_fraction_reference(p, q):
    r = p * q
    assert list(r.terms.items()) == reference_mul(p.terms, q.terms)
    assert_all_fractions(r.terms.values())
    cube = p**3
    assert cube.terms == dict(reference_mul(p.terms, dict(reference_mul(p.terms, p.terms))))
    assert_all_fractions(cube.terms.values())


@given(kernel_polys(max_size=4), st.lists(kernel_polys(max_size=3), min_size=3, max_size=3))
@example(
    kernel_poly(((1, 0, 0), Fraction(1, 2)), ((0, 1, 0), Fraction(1, 2))),
    [kernel_poly(((0, 0, 1), 1)), kernel_poly(((0, 0, 1), -1)), kernel_poly()],
)
@settings(max_examples=100, deadline=None)
def test_substitute_kernel_matches_fraction_reference(p, images):
    r = p.substitute(dict(enumerate(images)))
    assert r.terms == reference_substitute(p, images)
    assert_all_fractions(r.terms.values())


points = st.lists(
    st.one_of(st.just(0), st.integers(-3, 3), fractions), min_size=3, max_size=3
)


@given(kernel_polys(max_size=8), points)
@example(kernel_poly(((2, 0, 0), 1), ((0, 1, 1), Fraction(-3, 4))), [0, 0, 0])
@example(
    kernel_poly(((1, 0, 0), Fraction(1, 3)), ((0, 1, 0), -1)),
    [Fraction(3, 2), Fraction(1, 6), 5],
)
@settings(max_examples=150, deadline=None)
def test_eval_kernel_matches_fraction_reference(p, point):
    value = p.eval(point)
    assert value == reference_eval(p, point)
    assert type(value) is Fraction


# the rotation x -> -y, y -> x kills x^2 + y^2
ROTATION = {0: kernel_poly(((0, 1, 0), -1)), 1: kernel_poly(((1, 0, 0), 1))}


@given(
    st.dictionaries(st.integers(0, 2), kernel_polys(max_size=4), max_size=3),
    kernel_polys(),
)
@example(ROTATION, kernel_poly(((2, 0, 0), Fraction(5, 7)), ((0, 2, 0), Fraction(5, 7))))
@example(ROTATION, kernel_poly(((2, 0, 1), Fraction(-1, 2)), ((0, 2, 1), Fraction(-1, 2))))
@example(
    {0: kernel_poly(), 2: kernel_poly(((0, 0, 0), Fraction(1, 3)))},
    kernel_poly(((1, 1, 0), 3)),
)
@settings(max_examples=150, deadline=None)
def test_derivation_kernel_matches_fraction_reference(images, p):
    d = Derivation(KERNEL_CTX, images)
    r = d(p)
    assert list(r.terms.items()) == reference_derive(d, p)
    assert_all_fractions(r.terms.values())

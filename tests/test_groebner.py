import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import macaulay_member
from zeroness.errors import ResourceLimitExceeded
from zeroness.groebner import (
    GroebnerLimits,
    MonomialOrder,
    _neg_key,
    buchberger,
    extend,
    ideal_contains,
    ideal_equal,
    reduce,
)
from zeroness.poly import Context, Monomial


@pytest.fixture
def ctx():
    return Context(["x", "y"])


def test_single_generator(ctx):
    gb = buchberger([ctx.var("x")])
    assert [str(g) for g in gb] == ["x"]


def test_zero_ideal(ctx):
    gb = buchberger([], ctx=ctx)
    assert len(gb) == 0
    c = ctx.const(Fraction(5, 3))
    assert reduce(c, gb) == c


def test_hand_computed_basis(ctx):
    # Hand run: S(x^2+y, xy) = y*(x^2+y) - x*(xy) = y^2; the remaining
    # S-pairs reduce to zero and no head divides another, so the reduced
    # basis keeps all three.
    x, y = ctx.var("x"), ctx.var("y")
    gb = buchberger([x**2 + y, x * y])
    assert sorted(str(g) for g in gb) == ["x*y", "x^2 + y", "y^2"]


def test_reduce_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    gb = buchberger([x**2 - y, y**2])
    assert reduce(x**2 - y, gb).is_zero()
    # x^2 y = y(x^2 - y) + y^2, checked by hand division
    assert reduce(x**2 * y, gb).is_zero()
    assert not reduce(x, gb).is_zero()


def test_ideal_contains_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert ideal_contains(buchberger([x]), x**3 * y)
    assert not ideal_contains(buchberger([x**2]), x)
    # x^2 - y^2 = (x + y)(x - y)
    assert ideal_contains(buchberger([x - y]), x**2 - y**2)


def test_ideal_equal_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert ideal_equal(buchberger([x]), buchberger([2 * x]))
    assert not ideal_equal(buchberger([x]), buchberger([x, y]))
    # second generator x^3 - xy = x (x^2 - y)
    assert ideal_equal(
        buchberger([x**2 - y]), buchberger([y - x**2, x**3 - x * y])
    )


def test_ideal_equal_order_mismatch(ctx):
    a = buchberger([ctx.var("x")], MonomialOrder("grlex"))
    b = buchberger([ctx.var("x")], MonomialOrder("lex"))
    with pytest.raises(ValueError):
        ideal_equal(a, b)


def test_reduction_idempotent(ctx):
    rng = random.Random(5)
    from test_poly import rand_poly

    for _ in range(25):
        gens = [rand_poly(ctx, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        p = rand_poly(ctx, rng)
        r = reduce(p, gb)
        assert reduce(r, gb) == r


def test_generators_reduce_to_zero(ctx):
    rng = random.Random(6)
    from test_poly import rand_poly

    for _ in range(25):
        gens = [rand_poly(ctx, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        for g in gens:
            assert reduce(g, gb).is_zero()


def test_membership_agrees_with_macaulay_oracle():
    # reduce == 0 must be confirmable by bounded linear algebra over the
    # basis (graded orders give degree-bounded representations), and
    # reduce != 0 must never be representable.
    ctx = Context(["x", "y", "z"])
    rng = random.Random(42)
    from test_poly import rand_poly

    checked_members = checked_nonmembers = 0
    for _ in range(30):
        gens = [rand_poly(ctx, rng, degree=2, terms=3, coeff_bound=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        basis = list(gb.generators)
        if not basis:
            continue
        # a guaranteed member
        member = gens[0] * rand_poly(ctx, rng, degree=1, terms=2)
        assert reduce(member, gb).is_zero()
        if member.degree <= 5:
            assert macaulay_member(member, basis, member.degree)
            checked_members += 1
        probe = rand_poly(ctx, rng, degree=2, terms=3)
        if probe.is_zero():
            continue
        if reduce(probe, gb).is_zero():
            assert macaulay_member(probe, basis, probe.degree)
        else:
            assert not macaulay_member(probe, basis, probe.degree + 2)
            checked_nonmembers += 1
    assert checked_members and checked_nonmembers


def test_incremental_extension_matches_batch(ctx):
    rng = random.Random(9)
    from test_poly import rand_poly

    for _ in range(20):
        gens = [rand_poly(ctx, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        batch = buchberger(gens)
        incremental = buchberger(gens[:1])
        for g in gens[1:]:
            incremental = extend(incremental, g)
        assert ideal_equal(batch, incremental)


def test_extend_member_returns_same_object(ctx):
    x = ctx.var("x")
    gb = buchberger([x])
    assert extend(gb, x**3) is gb


def test_degree_cap_raises(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    limits = GroebnerLimits(max_degree=1)
    with pytest.raises(ResourceLimitExceeded):
        buchberger([x**2 - y], limits=limits)


def test_basis_cap_raises():
    ctx = Context(["x", "y", "z"])
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    limits = GroebnerLimits(max_basis=1)
    with pytest.raises(ResourceLimitExceeded):
        buchberger([x * y - z, y * z - x, x * z - y], limits=limits)


def test_lex_order_elimination():
    # lex with x > y eliminates x: the ideal <x - y^2, x> contains y^2.
    ctx = Context(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    gb = buchberger([x - y**2, x], MonomialOrder("lex"))
    assert ideal_contains(gb, y**2)
    # a constant over no variables has the empty lex key
    empty = Context([])
    assert [str(g) for g in buchberger([empty.const(2)], MonomialOrder("lex"))] == ["1"]


def test_basis_canonical_under_generator_permutation():
    ctx = Context(["x", "y", "z"])
    rng = random.Random(314)
    from test_poly import rand_poly

    for _ in range(15):
        gens = [rand_poly(ctx, rng, degree=2, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        forward = buchberger(gens)
        backward = buchberger(list(reversed(gens)))
        assert list(forward.generators) == list(backward.generators)


def test_cyclic4_step_count_is_pinned():
    # The step budget counts reduction steps and pair selections, so it
    # decides which inputs end INCONCLUSIVE.  Cyclic-4 needs exactly 98
    # steps; a change to pair order or interreduction shows up here.
    ctx = Context(["a", "b", "c", "d"])
    a, b, c, d = (ctx.var(n) for n in "abcd")
    cyclic4 = [
        a + b + c + d,
        a * b + b * c + c * d + d * a,
        a * b * c + b * c * d + c * d * a + d * a * b,
        a * b * c * d - 1,
    ]
    gb = buchberger(cyclic4, limits=GroebnerLimits(max_iterations=98))
    assert len(gb) == 7
    with pytest.raises(ResourceLimitExceeded):
        buchberger(cyclic4, limits=GroebnerLimits(max_iterations=97))


@st.composite
def built_monomials(draw):
    """Monomials over ``nvars`` variables, built every way the library
    builds them, each with its dense exponent vector worked out here."""
    nvars = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    how = st.sampled_from(["init", "from_sorted", "mul", "div", "lcm"])
    items = []
    for a, b, way in draw(st.lists(st.tuples(vec, vec, how), min_size=1, max_size=8)):
        ma = Monomial(reversed(list(enumerate(a))))  # unsorted, with zero exponents
        mb = Monomial._from_sorted(tuple((v, e) for v, e in enumerate(b) if e))
        if way == "init":
            items.append((ma, a))
        elif way == "from_sorted":
            items.append((mb, b))
        elif way == "mul":
            items.append((ma * mb, tuple(x + y for x, y in zip(a, b))))
        elif way == "div":
            items.append(((ma * mb) / mb, a))
        else:
            items.append((ma.lcm(mb), tuple(max(x, y) for x, y in zip(a, b))))
    return nvars, items


@given(built_monomials())
@settings(max_examples=100, deadline=None)
def test_order_key_matches_dense_reference(case):
    nvars, items = case
    references = {"grlex": lambda e: (sum(e), e), "lex": lambda e: e}
    for kind, ref in references.items():
        order = MonomialOrder(kind)
        # the same monomials keyed in a larger context, then in theirs again
        for n in (nvars, nvars + 2, nvars):
            pad = (0,) * (n - nvars)
            want = [e for _, e in sorted(items, key=lambda it: ref(it[1] + pad))]
            got = [e for _, e in sorted(items, key=lambda it: order.key(it[0], n))]
            assert got == want
            heap_order = sorted(items, key=lambda it: _neg_key(order.key(it[0], n)))
            assert [e for _, e in heap_order] == want[::-1]
            for m, e in items:
                assert order.key(m, n) == ref(e + pad)

"""The derivation system both engines view: renaming in ``union``, and
every move of a polynomial between contexts."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zeroness import _system
from zeroness.poly import _MAX_EXPONENT, Context, Derivation


def system(names, images, point):
    """A one-op system; ``images`` maps a generator to a function of the
    context giving its image."""
    ctx = Context(names)
    op = Derivation(ctx, {ctx.id_of(n): image(ctx) for n, image in images.items()})
    return _system.System(ctx, [op], point)


def test_union_without_suffixes_renames_shared_names():
    first = system(["a", "b"], {"a": lambda c: c.var("b")}, [1, 2])
    second = system(
        ["a", "a_"],
        {"a": lambda c: c.var("a") * c.var("a_"), "a_": lambda c: c.const(3)},
        [5, 7],
    )
    union, lift1, lift2 = _system.union(first, second, ("", ""))
    ctx = union.ctx
    assert ctx.names == ("a", "b", "a_", "a__")
    assert union.point == tuple(map(Fraction, (1, 2, 5, 7)))
    (op,) = union.ops
    assert op.images == {
        0: ctx.var("b"),
        2: ctx.var("a_") * ctx.var("a__"),
        3: ctx.const(3),
    }
    assert lift1(first.ctx.var("a")) == ctx.var("a")
    assert lift2(second.ctx.var("a")) == ctx.var("a_")
    assert lift2(second.ctx.var("a_")) == ctx.var("a__")


# Every move of a polynomial into another context renumbers its packed
# monomials; each must equal the polynomial rebuilt in the target by
# variable name, from Context.var arithmetic.

NAMES = ("a", "b", "c", "d")
coefficients = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
exponents = st.one_of(st.integers(0, 3), st.just(_MAX_EXPONENT))


def term_lists(nvars):
    """Distinct terms (an exponent per generator, nonzero coefficient) of
    a polynomial over ``nvars`` generators, so a polynomial has the
    variables its terms name; an empty list is the zero polynomial."""
    exps = st.lists(exponents, min_size=nvars, max_size=nvars).map(tuple)
    return st.lists(st.tuples(exps, coefficients), max_size=3, unique_by=lambda t: t[0])


def build(ctx, terms, names):
    """The polynomial of ``terms`` in ``ctx``, a term's exponent ``i``
    on the variable named ``names[i]``, by ring arithmetic."""
    p = ctx.zero()
    for exps, c in terms:
        term = ctx.const(c)
        for name, e in zip(names, exps):
            if e:
                term = term * ctx.var(name) ** e
        p = p + term
    return p


@st.composite
def systems(draw):
    """``(names, ops, point, exprs)`` over 0-4 generators: per op of two,
    the terms of the images of some generators, and expressions."""
    nvars = draw(st.integers(0, 4))
    names = NAMES[:nvars]
    images = st.dictionaries(st.sampled_from(names), term_lists(nvars)) if names else st.just({})
    ops = [draw(images) for _ in range(2)]
    point = draw(st.lists(coefficients, min_size=nvars, max_size=nvars))
    exprs = draw(st.lists(term_lists(nvars), min_size=1, max_size=3))
    return names, ops, point, exprs


def make(names, ops, point):
    ctx = Context(names)
    ops = [
        Derivation(ctx, {ctx.id_of(n): build(ctx, t, names) for n, t in op.items()})
        for op in ops
    ]
    return _system.System(ctx, ops, point)


@given(systems(), systems())
@settings(max_examples=60, deadline=None)
def test_every_move_between_contexts_is_by_name(one, two):
    first, second = make(*one[:3]), make(*two[:3])

    # union: both parts, their expressions and the images of their generators
    union, lift1, lift2 = _system.union(first, second)
    parts = ((one, first, lift1, "_1"), (two, second, lift2, "_2"))
    for (names, ops, _, exprs), part, lift, suffix in parts:
        moved = [n + suffix for n in names]
        for terms in exprs:
            assert lift(build(part.ctx, terms, names)) == build(union.ctx, terms, moved)
        for op, images in zip(union.ops, ops):
            for n, terms in images.items():
                assert op.image(union.ctx.id_of(n + suffix)) == build(union.ctx, terms, moved)

    names, ops, _, exprs = one
    polys = [build(first.ctx, terms, names) for terms in exprs]

    # adjoin: the lift it hands to the images of the new generator
    lifts = []

    def images(lift, u):
        lifts.append(lift)
        return [u] * len(first.ops)

    extended, _ = _system.adjoin(first, "u", 1, images)
    for terms, p in zip(exprs, polys):
        assert lifts[0](p) == build(extended.ctx, terms, names)

    # prune: the expressions it moves and the images of the kept generators
    pruned, moved = _system.prune(first, polys)
    assert set(pruned.ctx.names) <= set(names)
    for terms, p in zip(exprs, moved):
        assert p == build(pruned.ctx, terms, names)
    for op, images in zip(pruned.ops, ops):
        for n, terms in images.items():
            if n in pruned.ctx:
                assert op.image(pruned.ctx.id_of(n)) == build(pruned.ctx, terms, names)

    # rename, by the names themselves and through a name map
    upper = [n.upper() for n in names]
    target = Context(["z", *reversed(names)])
    mapped = Context([*reversed(upper), "z"])
    for terms, p in zip(exprs, polys):
        assert p.rename(target) == build(target, terms, names)
        assert p.rename(mapped, dict(zip(names, upper))) == build(mapped, terms, upper)

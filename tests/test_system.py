"""The derivation system both engines view: renaming in ``union``."""

from fractions import Fraction

from zeroness import _system
from zeroness.poly import Context, Derivation


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

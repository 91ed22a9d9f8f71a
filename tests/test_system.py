"""The derivation system both engines view: renaming in ``union``, every
move of a polynomial between contexts, and the lazy union and pruning
against an eager reference."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zeroness import _system, poly
from zeroness import cdf as C
from zeroness import formats as F
from zeroness import wbpp as W
from zeroness._saturation import saturate
from zeroness.groebner import GroebnerLimits
from zeroness.poly import _MAX_EXPONENT, Context, Derivation, transport


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


def test_merge_keeps_a_shared_system_and_folds_distinct_ones():
    first = system(["a"], {"a": lambda c: c.var("a")}, [1])
    second = system(["a"], {"a": lambda c: c.const(2)}, [3])
    x, y = first.ctx.var("a"), second.ctx.var("a")
    assert _system.merge([(first, x), (first, x * 2)]) == (first, [x, x * 2])
    merged, (e1, e2, e3) = _system.merge([(first, x), (second, y), (first, x + 1)])
    # folded from the left: (first union second) union first
    assert merged.ctx.names == ("a_1_1", "a_2_1", "a_2")
    assert merged.point == tuple(map(Fraction, (1, 3, 1)))
    ctx = merged.ctx
    assert (e1, e2, e3) == (ctx.var("a_1_1"), ctx.var("a_2_1"), ctx.var("a_2") + 1)


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


# The eager reference: every union moves every image of both parts into a
# new system at once, and pruning reads the images of that system.


def ref_union(first, second):
    names = [n + "_1" for n in first.ctx.names]
    for n in second.ctx.names:
        names.append(_system.fresh(n + "_2", names))
    ctx = Context(names)
    shift = range(len(first.ctx), len(ctx))
    ops = []
    for a, b in zip(first.ops, second.ops):
        images = {v: transport(p, ctx) for v, p in a.images.items()}
        images.update({shift[v]: transport(p, ctx, shift) for v, p in b.images.items()})
        ops.append(Derivation(ctx, images))
    union = _system.System(ctx, ops, first.point + second.point)
    return union, lambda p: transport(p, ctx), lambda p: transport(p, ctx, shift)


def ref_merge(parts):
    (system, e1), (other, e2) = parts
    union, lift1, lift2 = ref_union(system, other)
    return union, [lift1(e1), lift2(e2)]


def ref_prune(system, expr):
    needed = set(expr.variables())
    frontier = list(needed)
    while frontier:
        v = frontier.pop()
        for op in system.ops:
            for w in op.image(v).variables() - needed:
                needed.add(w)
                frontier.append(w)
    keep = sorted(needed)
    ids = [None] * len(system.ctx)
    for i, v in enumerate(keep):
        ids[v] = i
    ids = tuple(ids)
    ctx = Context([system.ctx.name_of(v) for v in keep])
    ops = [
        Derivation(ctx, {ids[v]: transport(p, ctx, ids) for v, p in op.images.items() if v in needed})
        for op in system.ops
    ]
    return _system.System(ctx, ops, [system.point[v] for v in keep]), transport(expr, ctx, ids)


def layout(system):
    """Names, point and every image of every op, term by term in stored
    order, so that two systems compare across contexts."""
    ops = [[(v, list(p.terms.items())) for v, p in op.images.items()] for op in system.ops]
    return system.ctx.names, system.point, ops


LIMITS = GroebnerLimits(max_degree=8, max_basis=24, max_iterations=400)
LETTERS, AXES = ("p", "q"), ("x1", "x2")


@st.composite
def operands(draw):
    """A system over 1-3 generators with two ops whose images and
    expression are sums of at most two terms of degree at most 2."""
    nvars = draw(st.integers(1, 3))
    names = NAMES[:nvars]
    terms = st.lists(
        st.tuples(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple), coefficients),
        max_size=2,
        unique_by=lambda t: t[0],
    )
    ops = [draw(st.dictionaries(st.sampled_from(names), terms)) for _ in range(2)]
    point = draw(st.lists(coefficients, min_size=nvars, max_size=nvars))
    system = make(names, ops, point)
    return system, build(system.ctx, draw(terms), names)


@given(operands(), operands(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_closures_and_their_decisions_match_an_eager_reference(one, two, product):
    (f, ef), (g, eg) = one, two

    def combine(a, b):
        return a * b if product else a + b

    # the closures: printed models of both engines
    core, (a, b) = ref_merge([(f, ef), (g, eg)])
    wf, wg = W.Wbpp.of(LETTERS, f, ef), W.Wbpp.of(LETTERS, g, eg)
    wclosure = W.shuffle if product else W.sum_
    assert F.format_wbpp(wclosure(wf, wg)) == F.format_wbpp(W.Wbpp.of(LETTERS, core, combine(a, b)))
    cf = C.CdfSeries(C.CdfSystem.of(AXES, f), ef)
    cg = C.CdfSeries(C.CdfSystem.of(AXES, g), eg)
    cclosure = C.c_mul if product else C.c_add
    want = C.CdfSeries(C.CdfSystem.of(AXES, core), combine(a, b))
    assert F.format_cdf(cclosure(cf, cg)) == F.format_cdf(want)

    # the identity op(f, g) = op(g, f): merged, pruned and saturated
    swapped, (c, d) = ref_merge([(g, eg), (f, ef)])
    union, (left, right) = ref_merge([(core, combine(a, b)), (swapped, combine(c, d))])
    pruned, expr = ref_prune(union, left - right)
    verdict = saturate(expr, pruned.ops, pruned.point, LIMITS)

    lazy, (l, r) = _system.merge(
        [(s.system.core, s.expr) for s in (cclosure(cf, cg), cclosure(cg, cf))]
    )
    assert layout(lazy) == layout(union)
    got, (moved,) = _system.prune(lazy, [l - r])
    assert layout(got) == layout(pruned) and list(moved.terms.items()) == list(expr.terms.items())
    for op in got.ops:  # packed as their first application would pack them
        assert op._images() == Derivation(op.ctx, op.images)._images()

    v = W.equivalent(wclosure(wf, wg), wclosure(wg, wf), LIMITS)
    word = None if verdict.witness is None else "".join(LETTERS[i] for i in verdict.witness)
    assert (v.outcome, v.witness, v.value, v.stats, v.detail) == (
        verdict.outcome, word, verdict.value, verdict.stats, verdict.detail
    )
    v = C.equivalent(cclosure(cf, cg), cclosure(cg, cf), LIMITS)
    exponent = None
    if verdict.witness is not None:
        exponent = tuple(verdict.witness.count(i) for i in range(2))
    assert (v.outcome, v.witness, v.value, v.stats, v.detail) == (
        verdict.outcome, exponent, verdict.value, verdict.stats, verdict.detail
    )


def test_deciding_a_sum_against_its_swap_moves_each_operand_image_twice(monkeypatch):
    """The four parts of sum_(f, g) against sum_(g, f) hold two copies of
    each operand, and each image moves once per copy, straight from its
    operand into the system that is saturated."""
    ctx = Context(["S", "X"])
    f = W.Wbpp(["a", "b"], ["S", "X"], "S", {("a", "S"): ctx.var("X"), ("a", "X"): ctx.var("X") ** 2,
               ("b", "X"): ctx.one()}, {"S": 0, "X": 1})
    g = W.Wbpp(["a", "b"], ["S", "X"], "S", {("a", "S"): ctx.var("S") * ctx.var("X"),
               ("b", "S"): 2 * ctx.var("X"), ("b", "X"): ctx.var("X")}, {"S": 1, "X": 2})
    images = {id(p): p for m in (f, g) for op in m.core.ops for p in op.images.values()}
    moves = Counter()

    def counting_transport(p, target, ids=None):
        if id(p) in images:
            moves[id(p)] += 1
        return transport(p, target, ids)

    def counting_gather(ctx, nops, sources):
        for _, ops, ids in sources:
            for op in ops:
                moves.update(id(p) for v, p in op.images.items() if ids[v] is not None)
        return poly.gather(ctx, nops, sources)

    monkeypatch.setattr(poly, "transport", counting_transport)
    monkeypatch.setattr(_system, "transport", counting_transport)
    monkeypatch.setattr(_system, "gather", counting_gather)
    verdict = W.equivalent(W.sum_(f, g), W.sum_(g, f))
    assert verdict.is_zero
    assert {i: moves[i] for i in images} == dict.fromkeys(images, 2)


def test_a_constant_is_decided_without_pruning_or_the_ops(monkeypatch):
    """f against f + 1 and a derivative of a scaled series against the
    scaled derivative differ by a constant; their verdicts are those of
    pruning and saturating, though nothing is pruned or gathered."""
    ctx = Context(["u", "v"])
    u, v = ctx.var("u"), ctx.var("v")
    ops = [Derivation(ctx, {0: u * v}), Derivation(ctx, {1: v + 1})]
    f = C.CdfSeries(C.CdfSystem.of(AXES, _system.System(ctx, ops, [1, 2])), u + v)
    g = C.CdfSeries(C.CdfSystem.of(AXES, _system.System(ctx, ops[::-1], [3, 1])), u * u)
    s, t = C.c_add(f, g), C.c_add(f, g)  # unions, whose ops are built when read
    pairs = [
        (s, C.CdfSeries(s.system, s.expr + 1)),
        (C.c_derive(C.c_scale(t, 3), 1), C.c_scale(C.c_derive(t, 1), 3)),
    ]
    queries = []
    for a, b in pairs:
        merged, (ea, eb) = C._shared([a, b])
        queries.append((merged.core, ea - eb))
    want = []
    for core, expr in queries:
        assert expr.is_constant()
        pruned, (moved,) = _system.prune(core, [expr])
        want.append(saturate(moved, pruned.ops, pruned.point, LIMITS))

    def refuse(*args):
        raise AssertionError("a constant was pruned or its system's ops were built")

    monkeypatch.setattr(_system, "prune", refuse)
    monkeypatch.setattr(_system, "_gather", refuse)
    got = [_system.decide(*q, LIMITS) for q in queries]
    assert queries[0][0]._ops is None
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert [v.value for v in got] == [-1, None]
    assert C.equivalent(*pairs[0], LIMITS).witness == (0, 0)

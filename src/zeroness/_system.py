"""The derivation system under both engines.

A process model (letters, nonterminals, output weights) and a CDF system
(axes, generators, initial vector) are the same data: generators, one
derivation of their ring per letter or axis (the ops), and a point.
``Wbpp`` and ``CdfSystem`` are views on a :class:`System`; union, merge,
adjoin, inverse, prune, fresh names, the packed fold of a word of ops and
the decision are written here once.  The species compiler grows its
system with the same :func:`adjoin` and :func:`union`.

Polynomials move between contexts by variable id, never by name: each
generator is kept, shifted or renumbered increasingly by
:func:`~zeroness.poly.transport`, the packed renumbering that
:meth:`~zeroness.poly.Poly.rename` also runs.  That keeps the
generators' relative order, so the monomial order and every Groebner
step stay the same.
"""

from __future__ import annotations

from fractions import Fraction

from ._saturation import saturate
from .errors import ArityMismatch, ContextMismatch
from .poly import (
    Context,
    Derivation,
    Poly,
    _evaluate,
    _over_common_denominator,
    _packing,
    transport,
)


class System:
    """Generators ``ctx``, the ordered derivations ``ops`` and ``point``,
    each generator's value by variable id."""

    __slots__ = ("ctx", "ops", "point")

    def __init__(self, ctx: Context, ops, point):
        self.ctx = ctx
        self.ops = tuple(ops)
        self.point = tuple(point)


def fresh(stem: str, taken) -> str:
    """``stem``, with ``_`` appended while the name is in ``taken``."""
    while stem in taken:
        stem += "_"
    return stem


def union(first: System, second: System, suffixes=("_1", "_2")):
    """Disjoint union of two systems with as many ops; ``first``'s
    generators come first, renamed with the suffixes, and each name of
    ``second`` passes through :func:`fresh`.  Returns the union and, per
    part, the function moving its polynomials into it."""
    if len(first.ops) != len(second.ops):
        raise ArityMismatch("systems over different base dimensions")
    s1, s2 = suffixes
    names = [n + s1 for n in first.ctx.names]
    for n in second.ctx.names:
        names.append(fresh(n + s2, names))
    ctx = Context(names)
    n = len(first.ctx)
    shift = range(n, n + len(second.ctx))
    ops = []
    for a, b in zip(first.ops, second.ops):
        images = {v: transport(p, ctx) for v, p in a.images.items()}
        images.update({shift[v]: transport(p, ctx, shift) for v, p in b.images.items()})
        ops.append(Derivation(ctx, images))
    return (
        System(ctx, ops, first.point + second.point),
        lambda p: transport(p, ctx),
        lambda p: transport(p, ctx, shift),
    )


def merge(parts):
    """``(system, exprs)`` for the pairs ``parts``: the system all share, or
    else their :func:`union` folded from the left, each expr moved into it."""
    system = parts[0][0]
    if all(s is system for s, _ in parts):
        return system, [e for _, e in parts]
    exprs = [parts[0][1]]
    for s, e in parts[1:]:
        system, lift1, lift2 = union(system, s)
        exprs = [*map(lift1, exprs), lift2(e)]
    return system, exprs


def adjoin(system: System, stem: str, value, images):
    """``system`` plus a last generator ``u``, named after ``stem``, with
    ``value`` at the point.  ``images(lift, u)`` gives u's image under each
    op; ``lift`` moves a polynomial of ``system`` into the extended
    context.  Returns the extended system and ``u``."""
    ctx = Context(system.ctx.names + (fresh(stem, system.ctx),))
    u = ctx.var_by_id(len(system.ctx))

    def lift(p):
        return transport(p, ctx)

    ops = []
    for op, image in zip(system.ops, images(lift, u)):
        moved = {v: lift(p) for v, p in op.images.items()}
        if not image.is_zero():
            moved[len(system.ctx)] = image
        ops.append(Derivation(ctx, moved))
    return System(ctx, ops, system.point + (Fraction(value),)), u


def inverse(system: System, expr: Poly, stem: str):
    """Adjoin U = 1 / ``expr`` under the product the ops are derivations
    of (shuffle for processes, ordinary product for series): from
    expr * U = 1, op(U) = -op(expr) * U^2, and U = 1 / expr(point), which
    must be nonzero.  Returns (system, U)."""
    return adjoin(
        system,
        stem,
        1 / expr.eval(system.point),
        lambda lift, u: [-lift(op(expr)) * u * u for op in system.ops],
    )


def prune(system: System, exprs):
    """Keep only the generators that ``exprs`` reach through the ops.
    Returns the pruned system (``system`` itself when all are reached) and
    ``exprs`` moved into it.  A dropped generator occurs in nothing the
    ops reach from ``exprs``, so saturating either side is the same."""
    needed = set()
    for e in exprs:
        if e.ctx is not system.ctx:
            raise ContextMismatch("expression outside the system's context")
        needed |= e.variables()
    frontier = list(needed)
    while frontier:
        v = frontier.pop()
        for op in system.ops:
            image = op.images.get(v)
            if image is None:
                continue
            for w in image.variables():
                if w not in needed:
                    needed.add(w)
                    frontier.append(w)
    if len(needed) == len(system.ctx):
        return system, list(exprs)
    keep = sorted(needed)
    ids = [None] * len(system.ctx)
    for i, v in enumerate(keep):
        ids[v] = i
    ids = tuple(ids)
    ctx = Context([system.ctx.name_of(v) for v in keep])
    ops = [
        Derivation(
            ctx, {ids[v]: transport(p, ctx, ids) for v, p in op.images.items() if v in needed}
        )
        for op in system.ops
    ]
    pruned = System(ctx, ops, [system.point[v] for v in keep])
    return pruned, [transport(e, ctx, ids) for e in exprs]


def fold(start: Poly, word):
    """``start`` with the ops of ``word`` applied in turn, first letter
    first, as ``(packing, packed, den)``: the numerators of ``start`` over
    one denominator, each op run by its packed kernel on them."""
    packing = _packing(len(start.ctx))
    (packed,), den = _over_common_denominator(start.terms)
    for op in word:
        _check_context(op, start)
        packed, den = op._apply(packed, den, packing)
    return packing, packed, den


def fold_value(start: Poly, word, point) -> Fraction:
    """The value at ``point`` of :func:`fold`'s polynomial.  Every letter
    but the last is folded; the last is evaluated in one pass at the dual
    point a + ε·w, w its images' values at the point
    (:meth:`Derivation._apply_at`), so its polynomial, the largest, is
    never built, and an exponent cap fires only in the folds that are."""
    word = list(word)
    packing, packed, den = fold(start, word[:-1])
    at = packing.point(point)
    if not word:
        return _evaluate(packed, den, at, packing)
    _check_context(word[-1], start)
    return word[-1]._apply_at(packed, den, packing, at)


def _check_context(op: Derivation, start: Poly):
    if op.ctx is not start.ctx:
        raise ContextMismatch("derivation applied outside its context")


def decide(system: System, expr: Poly, limits=None):
    """Prune to what ``expr`` reaches, then saturate: ZERO iff every word
    of ops sends ``expr`` to a polynomial vanishing at the point."""
    system, (expr,) = prune(system, [expr])
    return saturate(expr, system.ops, system.point, limits)

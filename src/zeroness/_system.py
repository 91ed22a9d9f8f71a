"""The derivation system under both engines.

A process model (letters, nonterminals, output weights) and a CDF system
(axes, generators, initial vector) are the same data: generators, one
derivation of their ring per letter or axis (the ops), and a point.
``Wbpp`` and ``CdfSystem`` are views on a :class:`System`; union, merge,
adjoin, inverse, prune, fresh names, the packed fold of a word of ops and
the decision are written here once.  The species compiler grows its
system with the same :func:`adjoin` and :func:`union`.

A query builds its system once.  A :func:`union` keeps the base systems
it joins as its parts and names its generators at once, but moves no
image: a closure, a merge, or a union of unions costs its names, its
point and its expressions.  :func:`decide` prunes on the parts, by
variable sets each base derivation caches, and moves each kept image
once, from its base straight into the pruned system, packed as the
saturation runs it (:func:`~zeroness.poly.gather`).  A union's own ops
are built the same way, when something reads them (adjoin, inverse, a
view's letters or axes).

Polynomials move between contexts by variable id, never by name: each
generator is kept, shifted or renumbered increasingly by
:func:`~zeroness.poly.transport`, the packed renumbering that
:meth:`~zeroness.poly.Poly.rename` also runs, or by ``gather`` for the
images of ops.  That keeps the generators' relative order, so the
monomial order and every Groebner step stay the same.
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
    gather,
    transport,
)


class System:
    """Generators ``ctx``, the ordered derivations ``ops`` and ``point``,
    each generator's value by variable id.

    A system made from its ops is a base.  A :func:`union` is made from
    ``parts``: the bases it joins, in order, each with the offset of its
    first generator, a repeated base once per occurrence.  Its ``ctx`` and
    ``point`` are built at once and its ops at the first read, each image
    moved from its base straight into ``ctx`` (:func:`_gather`), then
    kept.  :func:`prune` reads the parts, so a union that is only pruned
    and decided never builds its own ops."""

    __slots__ = ("ctx", "point", "_ops", "_parts")

    def __init__(self, ctx: Context, ops, point):
        self.ctx = ctx
        self._ops = tuple(ops)
        self.point = tuple(point)
        self._parts = None

    @classmethod
    def _joined(cls, ctx: Context, parts, point) -> "System":
        system = object.__new__(cls)
        system.ctx, system.point = ctx, point
        system._ops, system._parts = None, parts
        return system

    @property
    def parts(self) -> tuple:
        """``(base, offset)`` per part; a base is its own one part."""
        return self._parts or ((self, 0),)

    @property
    def ops(self) -> tuple:
        if self._ops is None:
            self._ops = _gather(_arity(self), self.parts, self.ctx, range(len(self.ctx)))
        return self._ops


def _arity(system: System) -> int:
    """The number of ops, read off the first base."""
    return len(system.parts[0][0].ops)


def _gather(nops: int, parts, ctx: Context, ids) -> tuple:
    """The ``nops`` ops over ``ctx`` of the bases ``parts``: generator
    ``v`` of the part at offset ``o`` is ``ids[o + v]`` of ``ctx``, or
    dropped where that is None.  Each kept image moves from its base
    context straight into ``ctx``, in the order of the parts, then of
    each base op's images (:func:`~zeroness.poly.gather`)."""
    return gather(
        ctx, nops, [(base.ctx, base._ops, ids[o : o + len(base.ctx)]) for base, o in parts]
    )


def fresh(stem: str, taken) -> str:
    """``stem``, with ``_`` appended while the name is in ``taken``."""
    while stem in taken:
        stem += "_"
    return stem


def union(first: System, second: System, suffixes=("_1", "_2")):
    """Disjoint union of two systems with as many ops; ``first``'s
    generators come first, renamed with the suffixes, and each name of
    ``second`` passes through :func:`fresh`.  Its parts are those of
    ``first`` and then those of ``second``, shifted past ``first``; no
    image is moved until its ops are read.  Returns the union and, per
    part, the function moving its polynomials into it."""
    if _arity(first) != _arity(second):
        raise ArityMismatch("systems over different base dimensions")
    s1, s2 = suffixes
    names = [n + s1 for n in first.ctx.names]
    for n in second.ctx.names:
        names.append(fresh(n + s2, names))
    ctx = Context(names)
    n = len(first.ctx)
    shift = range(n, n + len(second.ctx))
    parts = first.parts + tuple((base, n + offset) for base, offset in second.parts)
    return (
        System._joined(ctx, parts, first.point + second.point),
        lambda p: transport(p, ctx),
        lambda p: transport(p, ctx, shift),
    )


def merge(parts):
    """``(system, exprs)`` for the pairs ``parts``: the system all share, or
    else their :func:`union` folded from the left, each expr moved into it
    once."""
    system = parts[0][0]
    if all(s is system for s, _ in parts):
        return system, [e for _, e in parts]
    for s, _ in parts[1:]:
        system, _, _ = union(system, s)
    exprs, offset = [], 0
    for s, e in parts:
        exprs.append(transport(e, system.ctx, range(offset, offset + len(s.ctx))))
        offset += len(s.ctx)
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
    ops reach from ``exprs``, so saturating either side is the same.

    Reachability runs on the parts, by the variable sets that each base
    derivation caches for its images (a part's images name only its own
    generators), and each kept image moves from its base into the pruned
    context by one :func:`_gather`, which reads no part with nothing kept."""
    needed = set()
    for e in exprs:
        if e.ctx is not system.ctx:
            raise ContextMismatch("expression outside the system's context")
        needed |= e.variables()
    keep, kept_parts = [], []
    for base, offset in system.parts:
        n = len(base.ctx)
        seeds = [v - offset for v in needed if offset <= v < offset + n]
        if seeds:
            keep.extend(offset + v for v in sorted(_reached(base.ops, seeds)))
            kept_parts.append((base, offset))
    if len(keep) == len(system.ctx):
        return system, list(exprs)
    ids = [None] * len(system.ctx)
    for i, v in enumerate(keep):
        ids[v] = i
    ids = tuple(ids)
    ctx = Context([system.ctx.name_of(v) for v in keep])
    ops = _gather(_arity(system), kept_parts, ctx, ids)
    pruned = System(ctx, ops, [system.point[v] for v in keep])
    return pruned, [transport(e, ctx, ids) for e in exprs]


def _reached(ops, seeds) -> set:
    """The generators that ``seeds`` reach through the images of ``ops``."""
    needed = set(seeds)
    frontier = list(needed)
    data = [op._image_data() for op in ops]
    while frontier:
        v = frontier.pop()
        for images in data:
            for w in images[v][0] if v in images else ():
                if w not in needed:
                    needed.add(w)
                    frontier.append(w)
    return needed


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
    but the last two is folded; those two are evaluated in one pass at a
    second-order jet of the point (:meth:`Derivation._apply_at`), so the
    two largest polynomials are never built, and an exponent cap fires
    only in the folds that are."""
    word = list(word)
    for op in word[-2:]:
        _check_context(op, start)
    packing, packed, den = fold(start, word[:-2])
    at = packing.point(point)
    if not word:
        return _evaluate(packed, den, at, packing)
    first = word[-2] if len(word) > 1 else None
    return word[-1]._apply_at(packed, den, packing, at, first)


def _check_context(op: Derivation, start: Poly):
    if op.ctx is not start.ctx:
        raise ContextMismatch("derivation applied outside its context")


def decide(system: System, expr: Poly, limits=None):
    """Prune to what ``expr`` reaches, then saturate: ZERO iff every word
    of ops sends ``expr`` to a polynomial vanishing at the point."""
    system, (expr,) = prune(system, [expr])
    return saturate(expr, system.ops, system.point, limits)

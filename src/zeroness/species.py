"""Constructible species of structures and their generating series.

A species expression is compiled to a CDF series by structural
translation on one growing derivation system (``_system.System``): atoms
become axis trackers and SET/CYC/SEQ each add one or two generators wired
by their defining differential equations, every one by
``_system.adjoin``; sums and products stay at the expression level;
cardinality restrictions, strong composition and well-posed fixpoint
systems delegate to the series-level constructions of ``cdf``, whose
output joins the system by ``_system.union``.
Counting labelled structures is then coefficient computation, and
equipotence (equal counts at every size vector) is series equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _system, cdf
from ._system import System, transport
from .errors import ArityMismatch, NotWellPosed, SoundnessError
from .poly import Context, Derivation, Poly
from .series import TruncSeries


# AST -------------------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Atom:
    sort: int  # 1-based


@dataclass(frozen=True)
class Set:
    child: object


@dataclass(frozen=True)
class Cyc:
    child: object


@dataclass(frozen=True)
class Seq:
    child: object


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@dataclass(frozen=True)
class Restrict:
    child: object
    constraint: object


@dataclass(frozen=True)
class StrongCompose:
    """Substitute species for the named slots of ``outer``; inside the
    outer expression the slots are extra sorts, in declaration order."""

    outer: object
    slots: tuple
    subs: tuple


@dataclass(frozen=True)
class Fix:
    """A system of species equations Y_i = body_i, selecting one binder.
    Bodies may reference any binder of the same block (and enclosing
    binders); the system must be well posed."""

    bindings: tuple  # of (name, body)
    select: str


@dataclass(frozen=True)
class Ref:
    name: str


def sum_all(exprs):
    exprs = list(exprs)
    if not exprs:
        return Zero()
    out = exprs[0]
    for e in exprs[1:]:
        out = Sum(out, e)
    return out


# Compilation ------------------------------------------------------------------


class _Scope:
    """The system one compilation scope grows over ``dim`` sorts, and the
    tracker generator of each sort used so far."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ArityMismatch("species need at least one sort")
        self.dim = dim
        ctx = Context()
        self.system = System(ctx, [Derivation(ctx, {}) for _ in range(dim)], ())
        self.trackers = {}

    def lift(self, p: Poly) -> Poly:
        """``p``, over an earlier context of this scope, in the current one."""
        return transport(p, self.system.ctx)

    def adjoin(self, stem, value, images) -> Poly:
        self.system, u = _system.adjoin(self.system, stem, value, images)
        return u

    def tracker(self, j: int) -> Poly:
        if not 1 <= j <= self.dim:
            raise ArityMismatch(f"sort {j} out of range 1..{self.dim}")
        if j not in self.trackers:
            # d/dx_i t_j is 1 along sort j and 0 along the others
            self.trackers[j] = self.adjoin(
                f"t{j}", 0, lambda _, u: [u.ctx.const(i == j) for i in range(1, self.dim + 1)]
            )
        return self.lift(self.trackers[j])

    def series(self, exprs):
        """The current system as CDF series, one per expression."""
        system = cdf.CdfSystem.of(tuple(f"x{i}" for i in range(1, self.dim + 1)), self.system)
        return [cdf.CdfSeries(system, self.lift(e)) for e in exprs]

    def absorb(self, series: cdf.CdfSeries) -> Poly:
        """Append the generators of a standalone series (renamed when
        needed) and return its expression."""
        self.system, _, lift = _system.union(self.system, series.system.core, ("", ""))
        return lift(series.expr)


def _compile_into(e, scope: _Scope, env) -> Poly:
    """The expression of ``e``, over the current context of ``scope``."""
    if isinstance(e, Zero):
        return scope.system.ctx.zero()
    if isinstance(e, One):
        return scope.system.ctx.one()
    if isinstance(e, Atom):
        return scope.tracker(e.sort)
    if isinstance(e, Ref):
        if e.name not in env:
            raise ArityMismatch(f"unbound species reference {e.name!r}")
        return scope.tracker(env[e.name])
    if isinstance(e, Sum):
        left = _compile_into(e.left, scope, env)
        right = _compile_into(e.right, scope, env)
        return scope.lift(left) + right
    if isinstance(e, Prod):
        left = _compile_into(e.left, scope, env)
        right = _compile_into(e.right, scope, env)
        return scope.lift(left) * right
    if isinstance(e, (Set, Cyc, Seq)):
        arg = _compile_into(e.child, scope, env)
        if arg.eval(scope.system.point) != 0:
            kind = type(e).__name__.upper()
            raise NotWellPosed(
                f"{kind} argument admits a size-0 structure; restrict it "
                f"to size >= 1 first"
            )
        rates = [op(arg) for op in scope.system.ops]
        if isinstance(e, Set):
            return scope.adjoin("set", 1, lambda lift, u: [lift(q) * u for q in rates])
        r = scope.adjoin("seq", 1, lambda lift, u: [lift(q) * u * u for q in rates])
        if isinstance(e, Seq):
            return r
        return scope.adjoin("cyc", 0, lambda lift, u: [lift(q) * lift(r) for q in rates])
    if isinstance(e, Restrict):
        from .constraints import validate

        validate(e.constraint, scope.dim)
        (inner,) = scope.series([_compile_into(e.child, scope, env)])
        return scope.absorb(cdf.restrict_regular(inner, e.constraint))
    if isinstance(e, StrongCompose):
        k = len(e.subs)
        if len(e.slots) != k:
            raise ArityMismatch("slot names and substitutions differ in number")
        subs = [compile_species(s, scope.dim, env) for s in e.subs]
        outer = compile_species(e.outer, scope.dim + k, bind(env, e.slots, scope.dim))
        return scope.absorb(cdf.compose_strong(outer, subs))
    if isinstance(e, Fix):
        names = [nm for nm, _ in e.bindings]
        if e.select not in names:
            raise ArityMismatch(f"selected binder {e.select!r} is not bound")
        inner, bodies = _fix_bodies(e, scope.dim, env)
        fs = inner.series(bodies)
        solved = cdf.implicit_solve([cdf.prune(f) for f in fs], names=names)
        return scope.absorb(cdf.prune(solved[names.index(e.select)]))
    raise ArityMismatch(f"not a species expression: {e!r}")


def bind(env, names, dim: int):
    """``env`` with ``names`` bound, in order, to the sorts after the
    first ``dim``: how a fixpoint block sees its binders and a strong
    composition's outer expression its slots."""
    return {**env, **{nm: dim + i for i, nm in enumerate(names, start=1)}}


def _fix_bodies(fix: Fix, dim: int, env):
    """A scope over ``dim`` sorts plus one per binder, and the block's
    bodies compiled into it."""
    inner = _Scope(dim + len(fix.bindings))
    inner_env = bind(env, [nm for nm, _ in fix.bindings], dim)
    return inner, [_compile_into(body, inner, inner_env) for _, body in fix.bindings]


def compile_species(e, dim: int, _env=None) -> cdf.CdfSeries:
    """Compile a species expression over ``dim`` sorts to a CDF series."""
    scope = _Scope(dim)
    expr = _compile_into(e, scope, _env or {})
    return cdf.prune(scope.series([expr])[0])


def well_posed(fix: Fix, dim: int, env=None):
    """Diagnose the well-posedness of a fixpoint block without solving it.

    ``env`` maps the names of enclosing binders and slots to their sorts,
    as :func:`bind` made them.  Returns (ok, diagnostics); diagnostics
    name the violated condition.
    """
    try:
        inner, bodies = _fix_bodies(fix, dim, env or {})
    except NotWellPosed as exc:
        return False, [str(exc)]
    return cdf.check_well_posed(inner.series(bodies))


# Counting and equipotence -------------------------------------------------------


@dataclass(frozen=True)
class SpeciesCounts:
    """Labelled-structure counts per size vector, as an exponential
    coefficient table; genuine species always count in nonnegative
    integers."""

    table: TruncSeries

    def count(self, n) -> int:
        return int(self.table[n])

    def univariate_list(self):
        return [int(v) for v in self.table.univariate_list()]


def count_table(e, dim: int, bound: int) -> SpeciesCounts:
    """Structure counts for all size vectors of total size <= bound."""
    series = compile_species(e, dim)
    table = cdf.coeff_table(series, bound)
    for n, c in table.coeffs.items():
        if c.denominator != 1 or c < 0:
            raise SoundnessError(
                f"species count at {n} is {c}, not a nonnegative integer"
            )
    return SpeciesCounts(table)


def equipotent(e1, e2, dim: int, limits=None):
    """Decide multiplicity equivalence: equal structure counts at every
    size vector.  ZERO means equipotent."""
    s1 = compile_species(e1, dim)
    s2 = compile_species(e2, dim)
    return cdf.equivalent(s1, s2, limits)

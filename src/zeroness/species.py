"""Constructible species of structures and their generating series.

A species expression is compiled to a CDF series by structural
translation: atoms become axis trackers, SET/CYC/SEQ each add one or two
generators wired by their defining differential equations, sums and
products stay at the expression level, cardinality restrictions and
well-posed fixpoint systems delegate to the series-level constructions.
Counting labelled structures is then coefficient computation, and
equipotence (equal counts at every size vector) is series equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cdf
from ._system import System, fresh, transport
from .constraints import validate
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


class _Builder:
    """One growing generator system per compilation scope; combinators add
    generators and pass expressions around."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ArityMismatch("species need at least one sort")
        self.dim = dim
        self.ctx = Context()
        self.columns = []  # per generator: one Poly (or None) per axis
        self.inits = []
        self.trackers = {}

    def reserve(self, stem, init) -> int:
        vid = self.ctx.add(fresh(stem, self.ctx))
        self.columns.append([None] * self.dim)
        self.inits.append(Fraction(init))
        return vid

    def set_column(self, vid, axis, p: Poly):
        self.columns[vid][axis - 1] = p

    def tracker(self, j: int) -> Poly:
        if not 1 <= j <= self.dim:
            raise ArityMismatch(f"sort {j} out of range 1..{self.dim}")
        if j not in self.trackers:
            vid = self.reserve(f"t{j}", 0)
            self.set_column(vid, j, self.ctx.one())
            self.trackers[j] = vid
        return self.ctx.var_by_id(self.trackers[j])

    def derivation(self, j: int) -> Derivation:
        """L_j over the generators reserved so far."""
        images = {
            v: self.columns[v][j - 1]
            for v in range(len(self.columns))
            if self.columns[v][j - 1] is not None
        }
        return Derivation(self.ctx, images)

    def lie(self, j: int, p: Poly) -> Poly:
        return self.derivation(j)(p)

    def origin_value(self, p: Poly) -> Fraction:
        return p.eval(self.inits)

    def freeze(self, exprs):
        """Snapshot into an immutable system; returns CdfSeries, one per
        expression."""
        ctx = Context(self.ctx.names)
        ops = []
        for j in range(1, self.dim + 1):
            images = self.derivation(j).images
            ops.append(Derivation(ctx, {v: transport(p, ctx) for v, p in images.items()}))
        system = cdf.CdfSystem.of(
            tuple(f"x{i}" for i in range(1, self.dim + 1)), System(ctx, ops, self.inits)
        )
        return [cdf.CdfSeries(system, transport(e, ctx)) for e in exprs]

    def absorb(self, series: cdf.CdfSeries) -> Poly:
        """Splice a standalone series into this scope: its generators are
        appended in order (renamed when needed) and its expression is
        returned."""
        if series.dim != self.dim:
            raise ArityMismatch("absorbed series over the wrong dimension")
        core = series.system.core
        ids = [self.reserve(g, value) for g, value in zip(core.ctx.names, core.point)]
        for j, op in enumerate(core.ops, start=1):
            for v, p in op.images.items():
                self.set_column(ids[v], j, transport(p, self.ctx, ids))
        return transport(series.expr, self.ctx, ids)


def _compile_into(e, b: _Builder, env) -> Poly:
    if isinstance(e, Zero):
        return b.ctx.zero()
    if isinstance(e, One):
        return b.ctx.one()
    if isinstance(e, Atom):
        return b.tracker(e.sort)
    if isinstance(e, Ref):
        if e.name not in env:
            raise ArityMismatch(f"unbound species reference {e.name!r}")
        return b.tracker(env[e.name])
    if isinstance(e, Sum):
        return _compile_into(e.left, b, env) + _compile_into(e.right, b, env)
    if isinstance(e, Prod):
        return _compile_into(e.left, b, env) * _compile_into(e.right, b, env)
    if isinstance(e, (Set, Cyc, Seq)):
        arg = _compile_into(e.child, b, env)
        if b.origin_value(arg) != 0:
            kind = type(e).__name__.upper()
            raise NotWellPosed(
                f"{kind} argument admits a size-0 structure; restrict it "
                f"to size >= 1 first"
            )
        if isinstance(e, Set):
            vid = b.reserve("set", 1)
            svar = b.ctx.var_by_id(vid)
            for j in range(1, b.dim + 1):
                b.set_column(vid, j, b.lie(j, arg) * svar)
            return svar
        rid = b.reserve("seq", 1)
        rvar = b.ctx.var_by_id(rid)
        for j in range(1, b.dim + 1):
            b.set_column(rid, j, b.lie(j, arg) * rvar * rvar)
        if isinstance(e, Seq):
            return rvar
        cid = b.reserve("cyc", 0)
        for j in range(1, b.dim + 1):
            b.set_column(cid, j, b.lie(j, arg) * rvar)
        return b.ctx.var_by_id(cid)
    if isinstance(e, Restrict):
        validate(e.constraint, b.dim)
        inner = b.freeze([_compile_into(e.child, b, env)])[0]
        restricted = cdf.restrict_regular(inner, e.constraint)
        return b.absorb(restricted)
    if isinstance(e, StrongCompose):
        k = len(e.subs)
        if len(e.slots) != k:
            raise ArityMismatch("slot names and substitutions differ in number")
        subs = [compile_species(s, b.dim, env) for s in e.subs]
        outer_env = dict(env)
        for i, nm in enumerate(e.slots, start=1):
            outer_env[nm] = b.dim + i
        outer = compile_species(e.outer, b.dim + k, outer_env)
        return b.absorb(cdf.compose_strong(outer, subs))
    if isinstance(e, Fix):
        k = len(e.bindings)
        names = [nm for nm, _ in e.bindings]
        if e.select not in names:
            raise ArityMismatch(f"selected binder {e.select!r} is not bound")
        inner = _Builder(b.dim + k)
        inner_env = dict(env)
        for i, nm in enumerate(names, start=1):
            inner_env[nm] = b.dim + i
        bodies = [_compile_into(body, inner, inner_env) for _, body in e.bindings]
        fs = inner.freeze(bodies)
        solved = cdf.implicit_solve([cdf.prune(f) for f in fs], names=names)
        return b.absorb(cdf.prune(solved[names.index(e.select)]))
    raise ArityMismatch(f"not a species expression: {e!r}")


def compile_species(e, dim: int, _env=None) -> cdf.CdfSeries:
    """Compile a species expression over ``dim`` sorts to a CDF series."""
    b = _Builder(dim)
    expr = _compile_into(e, b, _env or {})
    return cdf.prune(b.freeze([expr])[0])


def well_posed(fix: Fix, dim: int):
    """Diagnose the well-posedness of a fixpoint block without solving it.

    Returns (ok, diagnostics); diagnostics name the violated condition.
    """
    k = len(fix.bindings)
    inner = _Builder(dim + k)
    env = {nm: dim + i for i, (nm, _) in enumerate(fix.bindings, start=1)}
    try:
        bodies = [_compile_into(body, inner, env) for _, body in fix.bindings]
    except NotWellPosed as exc:
        return False, [str(exc)]
    return cdf.check_well_posed(inner.freeze(bodies))


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

"""CDF power series: systems of polynomial partial differential equations
in autonomous form, together with an expression polynomial.

A :class:`CdfSystem` holds generators y_1..y_k with kernel entries
P[i][j] in Q[y] (the equation d/dx_j y_i = P_ij evaluated along the
solution) and an exact initial vector.  A :class:`CdfSeries` pairs a
system with an expression polynomial p and denotes the power series
p composed with the solution.  Coefficients are computed two independent
ways (folded Lie derivatives, and a layered binomial-convolution dynamic
program), zeroness runs the same ideal-chain saturation as the process
engine with the Lie derivatives as the derivation family, and the closure
constructions (arithmetic, inverse, strong composition, regular support
restriction, implicit solving) each extend the system with fresh
generators wired by the chain rule.
"""

from __future__ import annotations

from fractions import Fraction

from ._saturation import ZeroVerdict, saturate
from .constraints import MonoidRecognizer, recognizer, validate
from .errors import (
    ArityMismatch,
    NotComposable,
    NotWellPosed,
)
from .poly import Context, Derivation, Monomial, Poly
from .series import TruncSeries, _exponents_of_degree


class CdfSystem:
    """An autonomous system: kernel entries mention only generators."""

    __slots__ = ("ctx", "dim", "base_names", "kernel", "init")

    def __init__(self, base_names, generators, kernel, init):
        self.base_names = tuple(base_names)
        self.dim = len(self.base_names)
        if self.dim == 0:
            raise ArityMismatch("a system needs at least one base variable")
        if len(set(self.base_names)) != self.dim:
            raise ArityMismatch("duplicate base variable names")
        generators = list(generators)
        if set(generators) & set(self.base_names):
            raise ArityMismatch("generator names collide with base variables")
        self.ctx = Context(generators)
        k = len(generators)
        grid = [[self.ctx.zero()] * self.dim for _ in range(k)]
        for (gen, axis), p in kernel.items():
            i = self.ctx.id_of(gen)
            if not 1 <= axis <= self.dim:
                raise ArityMismatch(f"axis {axis} out of range 1..{self.dim}")
            grid[i][axis - 1] = p.rename(self.ctx)
        self.kernel = tuple(tuple(row) for row in grid)
        init = list(init)
        if len(init) != k:
            raise ArityMismatch("initial vector length differs from the order")
        self.init = tuple(Fraction(c) for c in init)

    @property
    def order(self) -> int:
        return len(self.ctx)

    @property
    def degree(self) -> int:
        return max((p.degree for row in self.kernel for p in row), default=0)

    def generator_names(self):
        return self.ctx.names

    def entry(self, gen, axis) -> Poly:
        return self.kernel[self.ctx.id_of(gen)][axis - 1]

    def lie(self, j: int) -> Derivation:
        """The j-th Lie derivative L_j = sum_h P[h][j] * d/dy_h."""
        if not 1 <= j <= self.dim:
            raise ArityMismatch(f"axis {j} out of range 1..{self.dim}")
        images = {
            h: self.kernel[h][j - 1]
            for h in range(self.order)
            if not self.kernel[h][j - 1].is_zero()
        }
        return Derivation(self.ctx, images)

    def __repr__(self):
        return (
            f"CdfSystem(d={self.dim}, order={self.order}, "
            f"gens={list(self.ctx.names)})"
        )


class CdfSeries:
    """A power series presented as (system, expression polynomial)."""

    __slots__ = ("system", "expr")

    def __init__(self, system: CdfSystem, expr: Poly):
        if expr.ctx is not system.ctx:
            expr = expr.rename(system.ctx)
        self.system = system
        self.expr = expr

    @property
    def dim(self):
        return self.system.dim

    def value_at_origin(self) -> Fraction:
        return self.expr.eval(self.system.init)

    def __repr__(self):
        return f"CdfSeries({self.expr} | {self.system!r})"


def autonomize(base_names, generators, kernel, init) -> CdfSystem:
    """Build a system from kernel entries that may mention base variables.

    Each base variable occurring in the kernel gets a tracker generator
    (derivative the matching unit vector, initial value 0) substituted
    for it, after which every entry lives in the generator ring.
    """
    base_names = tuple(base_names)
    occurring = set()
    for p in kernel.values():
        for v in p.variables():
            name = p.ctx.name_of(v)
            if name in base_names:
                occurring.add(name)
    taken = set(generators)
    trackers = {}
    for b in base_names:
        if b in occurring:
            t = _fresh(f"t_{b}", taken)
            taken.add(t)
            trackers[b] = t
    gen_names = list(generators) + [trackers[b] for b in base_names if b in trackers]
    name_map = {g: g for g in generators}
    name_map.update(trackers)
    new_kernel = {}
    for (g, a), p in kernel.items():
        new_kernel[(g, a)] = _map_names(p, {n: name_map.get(n, n) for n in p.ctx.names})
    for b, t in trackers.items():
        axis = base_names.index(b) + 1
        new_kernel[(t, axis)] = Context([t]).one()
    new_init = list(init) + [Fraction(0)] * len(trackers)
    return CdfSystem(base_names, gen_names, new_kernel, new_init)


# Coefficients ----------------------------------------------------------------


def lie_derivative(sys: CdfSystem, j: int, p: Poly) -> Poly:
    return sys.lie(j)(p)


def coeff_via_lie(s: CdfSeries, n) -> Fraction:
    """Coefficient extraction by the exchange rule: fold one Lie derivative
    per unit of each exponent, then evaluate at the initial vector.  Any
    word with the right Parikh image works; axes are folded in order."""
    n = tuple(n)
    if len(n) != s.dim:
        raise ArityMismatch(f"exponent {n} has dimension {len(n)}, series has {s.dim}")
    p = s.expr
    for j, count in enumerate(n, start=1):
        op = s.system.lie(j)
        for _ in range(count):
            p = op(p)
    return p.eval(s.system.init)


def _eval_on_tables(p: Poly, tables, d: int, N: int) -> TruncSeries:
    out = {}
    pows = {}
    for m, c in p.terms.items():
        term = TruncSeries.const(1, d, N)
        for key in m.exps:
            if key not in pows:
                v, e = key
                acc = tables[v]
                for _ in range(e - 1):
                    acc = acc * tables[v]
                pows[key] = acc
            term = term * pows[key]
        for n, x in term.coeffs.items():
            out[n] = out.get(n, 0) + c * x
    return TruncSeries(d, N, out)


def generator_tables(sys: CdfSystem, N: int):
    """Tables of all generator coefficients up to total degree N, filled
    layer by layer through the kernel recurrence (binomial convolution)."""
    d, k = sys.dim, sys.order
    zero = (0,) * d
    tables = [TruncSeries(d, N, {zero: sys.init[i]}) for i in range(k)]
    for layer in range(N):
        snapshot = [TruncSeries(d, layer, t.coeffs) for t in tables]
        cache = {}
        for n in _exponents_of_degree(d, layer + 1):
            j = next(i for i, v in enumerate(n) if v > 0)  # smallest axis
            m = tuple(v - 1 if i == j else v for i, v in enumerate(n))
            for i in range(k):
                if (i, j) not in cache:
                    cache[(i, j)] = _eval_on_tables(
                        sys.kernel[i][j], snapshot, d, layer
                    )
                val = cache[(i, j)][m]
                if val != 0:
                    tables[i].coeffs[n] = val
    return tables


def coeff_table(s: CdfSeries, N: int) -> TruncSeries:
    """All coefficients of total degree <= N via the dynamic program."""
    tables = generator_tables(s.system, N)
    return _eval_on_tables(s.expr, tables, s.dim, N)


# Zeroness --------------------------------------------------------------------


def prune(s: CdfSeries) -> CdfSeries:
    """Drop generators the expression does not depend on (transitively
    through the kernel).  The denoted series is unchanged."""
    sys = s.system
    needed = set(s.expr.variables())
    frontier = list(needed)
    while frontier:
        v = frontier.pop()
        for col in sys.kernel[v]:
            for w in col.variables():
                if w not in needed:
                    needed.add(w)
                    frontier.append(w)
    if len(needed) == sys.order:
        return s
    keep = sorted(needed)
    names = [sys.ctx.name_of(v) for v in keep]
    kernel = {}
    for v in keep:
        for j in range(sys.dim):
            p = sys.kernel[v][j]
            if not p.is_zero():
                kernel[(sys.ctx.name_of(v), j + 1)] = p
    trimmed = CdfSystem(
        sys.base_names, names, kernel, [sys.init[v] for v in keep]
    )
    return CdfSeries(trimmed, s.expr.rename(trimmed.ctx))


def zeroness(s: CdfSeries, limits=None) -> ZeroVerdict:
    """ZERO iff the denoted series vanishes (under the promise that the
    system has a power series solution with the given initial vector).

    The saturation treats L_1..L_d as noncommuting operators; NONZERO
    verdicts carry the witness monomial's exponent vector and the exact
    coefficient value there.
    """
    s = prune(s)
    ops = [s.system.lie(j) for j in range(1, s.dim + 1)]
    verdict = saturate(s.expr, ops, s.system.init, limits)
    if verdict.witness is not None:
        exponent = [0] * s.dim
        for i in verdict.witness:
            exponent[i] += 1
        return ZeroVerdict(
            verdict.outcome, tuple(exponent), verdict.value, verdict.stats
        )
    return verdict


def merge(s1: CdfSystem, s2: CdfSystem):
    """Disjoint union over a shared base; returns the union system and the
    two generator name maps."""
    if s1.dim != s2.dim:
        raise ArityMismatch("systems over different base dimensions")
    map1 = {g: f"{g}_1" for g in s1.ctx.names}
    map2 = {g: f"{g}_2" for g in s2.ctx.names}
    kernel = {}
    for sys, nmap in ((s1, map1), (s2, map2)):
        for g in sys.ctx.names:
            for j in range(1, sys.dim + 1):
                p = sys.entry(g, j)
                if not p.is_zero():
                    kernel[(nmap[g], j)] = _map_names(p, nmap)
    union = CdfSystem(
        s1.base_names,
        [map1[g] for g in s1.ctx.names] + [map2[g] for g in s2.ctx.names],
        kernel,
        list(s1.init) + list(s2.init),
    )
    return union, map1, map2


def _map_names(p: Poly, nmap) -> Poly:
    target = Context([nmap[n] for n in p.ctx.names])
    return p.rename(target, nmap)


def _merge_series(s1: CdfSeries, s2: CdfSeries):
    if s1.system is s2.system:
        return s1.system, s1.expr, s2.expr
    union, map1, map2 = merge(s1.system, s2.system)
    e1 = _map_names(s1.expr, map1).rename(union.ctx)
    e2 = _map_names(s2.expr, map2).rename(union.ctx)
    return union, e1, e2


def equivalent(s1: CdfSeries, s2: CdfSeries, limits=None) -> ZeroVerdict:
    union, e1, e2 = _merge_series(s1, s2)
    return zeroness(CdfSeries(union, e1 - e2), limits)


# Expression-level closure ------------------------------------------------------


def c_scale(s: CdfSeries, c) -> CdfSeries:
    return CdfSeries(s.system, s.expr * Fraction(c))


def c_add(s1: CdfSeries, s2: CdfSeries) -> CdfSeries:
    union, e1, e2 = _merge_series(s1, s2)
    return CdfSeries(union, e1 + e2)


def c_mul(s1: CdfSeries, s2: CdfSeries) -> CdfSeries:
    union, e1, e2 = _merge_series(s1, s2)
    return CdfSeries(union, e1 * e2)


def c_derive(s: CdfSeries, j: int) -> CdfSeries:
    """Partial derivative along axis j: replace the expression by its
    Lie derivative (the exchange rule at expression level)."""
    return CdfSeries(s.system, s.system.lie(j)(s.expr))


def _fresh(name, taken):
    while name in taken:
        name += "_"
    return name


def c_inverse(s: CdfSeries) -> CdfSeries:
    """Multiplicative inverse: appends one generator u with
    d/dx_j u = -(L_j p) u^2 and initial value 1/p(c)."""
    p0 = s.value_at_origin()
    if p0 == 0:
        raise NotWellPosed("inverse of a series with zero constant term")
    sys = s.system
    u = _fresh("inv", set(sys.ctx.names))
    names = list(sys.ctx.names) + [u]
    kernel = {}
    for g in sys.ctx.names:
        for j in range(1, sys.dim + 1):
            q = sys.entry(g, j)
            if not q.is_zero():
                kernel[(g, j)] = q
    target = Context(names)
    uvar = target.var(u)
    for j in range(1, sys.dim + 1):
        lp = sys.lie(j)(s.expr)
        if not lp.is_zero():
            kernel[(u, j)] = -(lp.rename(target)) * uvar * uvar
    extended = CdfSystem(
        sys.base_names, names, kernel, list(sys.init) + [Fraction(1) / p0]
    )
    return CdfSeries(extended, extended.ctx.var(u))


# Strong composition -------------------------------------------------------------


def compose_strong(f: CdfSeries, gs) -> CdfSeries:
    """Substitute the trailing axes of ``f`` (the last len(gs) base
    variables) by the series ``gs`` over the shared leading base.

    Checkable sufficient precondition: every substituted axis that the
    (pruned) outer system actually depends on must receive a series
    vanishing at the origin.
    """
    gs = list(gs)
    k = len(gs)
    f = prune(f)
    fsys = f.system
    d = fsys.dim - k
    if d < 1:
        raise ArityMismatch("outer series has too few axes for the substitution")
    for g in gs:
        if g.dim != d:
            raise ArityMismatch("inner series over the wrong base dimension")

    inner_sys, inner_exprs = _merge_all(gs)

    for i in range(1, k + 1):
        if inner_exprs[i - 1].eval(inner_sys.init) != 0:
            column = d + i
            depends = any(
                not fsys.kernel[h][column - 1].is_zero() for h in range(fsys.order)
            )
            if depends:
                raise NotComposable(
                    f"substituted axis {column} occurs in the outer system but the "
                    f"inner series {i} has nonzero constant term"
                )

    outer_map = {g: f"{g}_o" for g in fsys.ctx.names}
    inner_map = {g: f"{g}_i" for g in inner_sys.ctx.names}
    names = [outer_map[g] for g in fsys.ctx.names] + [
        inner_map[g] for g in inner_sys.ctx.names
    ]
    target = Context(names)

    def emb_outer(p):
        return _map_names(p, outer_map).rename(target)

    def emb_inner(p):
        return _map_names(p, inner_map).rename(target)

    # d/dx_j (inner expression i), expressed over the inner generators.
    inner_lies = [
        [inner_sys.lie(j)(q) for j in range(1, d + 1)] for q in inner_exprs
    ]

    kernel = {}
    for g in inner_sys.ctx.names:
        for j in range(1, d + 1):
            p = inner_sys.entry(g, j)
            if not p.is_zero():
                kernel[(inner_map[g], j)] = emb_inner(p)
    for h, g in enumerate(fsys.ctx.names):
        for j in range(1, d + 1):
            # Chain rule: the x_j-column plus every substituted column
            # weighted by the derivative of its inner series.
            total = emb_outer(fsys.kernel[h][j - 1])
            for i in range(k):
                b = fsys.kernel[h][d + i]
                if b.is_zero():
                    continue
                total = total + emb_inner(inner_lies[i][j - 1]) * emb_outer(b)
            if not total.is_zero():
                kernel[(outer_map[g], j)] = total

    init = list(fsys.init) + list(inner_sys.init)
    composed = CdfSystem(fsys.base_names[:d], names, kernel, init)
    return CdfSeries(composed, emb_outer(f.expr).rename(composed.ctx))


# Regular support restriction ------------------------------------------------------


def _restriction_of_poly(p: Poly, rec: MonoidRecognizer, target: Context, gname):
    """Push a restriction through a polynomial: a map from monoid element
    m to the m-part, where variables split into indexed copies, constants
    sit at the identity, and products convolve over the monoid."""
    out = {}
    for mono, c in p.terms.items():
        parts = {rec.identity: {Monomial(()): c}}
        for v, e in mono.exps:
            copies = [
                Monomial(((target.id_of(gname(v, m_f)), 1),)) for m_f in range(rec.size)
            ]
            for _ in range(e):
                nxt = {}
                for m_acc, acc in parts.items():
                    for m_f, x in enumerate(copies):
                        bucket = nxt.setdefault(rec.add(m_acc, m_f), {})
                        for k, a in acc.items():
                            key = k * x
                            bucket[key] = bucket.get(key, 0) + a
                parts = nxt
        for m, acc in parts.items():
            bucket = out.setdefault(m, {})
            for k, a in acc.items():
                bucket[k] = bucket.get(k, 0) + a
    pieces = {m: Poly(target, terms) for m, terms in out.items()}
    return {m: q for m, q in pieces.items() if not q.is_zero()}


def restrict_regular(s: CdfSeries, constraint) -> CdfSeries:
    """Zero out all coefficients whose exponent vector violates the
    constraint.  One generator copy per (generator, monoid element); the
    kernel pushes each column down to the classes that step into the
    target class along the axis."""
    s = prune(s)
    sys = s.system
    validate(constraint, sys.dim)
    rec = recognizer(constraint, sys.dim)

    def gname(vid, m):
        return f"{sys.ctx.name_of(vid)}_c{m}"

    names = [gname(v, m) for v in range(sys.order) for m in range(rec.size)]
    target = Context(names)
    kernel = {}
    for v in range(sys.order):
        for j in range(1, sys.dim + 1):
            p = sys.kernel[v][j - 1]
            if p.is_zero():
                continue
            pieces = _restriction_of_poly(p, rec, target, gname)
            step = rec.images[j - 1]
            for m in range(rec.size):
                sources = [mp for mp in range(rec.size) if rec.add(mp, step) == m]
                total = target.zero()
                for mp in sources:
                    if mp in pieces:
                        total = total + pieces[mp]
                if not total.is_zero():
                    kernel[(gname(v, m), j)] = total
    init = []
    for v in range(sys.order):
        for m in range(rec.size):
            init.append(sys.init[v] if m == rec.identity else Fraction(0))
    restricted = CdfSystem(sys.base_names, names, kernel, init)

    expr_pieces = _restriction_of_poly(s.expr, rec, restricted.ctx, gname)
    expr = restricted.ctx.zero()
    for m in rec.accepting:
        if m in expr_pieces:
            expr = expr + expr_pieces[m]
    return CdfSeries(restricted, expr)


# Implicit systems ------------------------------------------------------------------


def _merge_all(series_list):
    series_list = list(series_list)
    first = series_list[0].system
    if all(s.system is first for s in series_list):
        return first, [s.expr for s in series_list]
    acc_sys, exprs = first, [series_list[0].expr]
    for s in series_list[1:]:
        union, map1, map2 = merge(acc_sys, s.system)
        exprs = [_map_names(e, map1).rename(union.ctx) for e in exprs]
        exprs.append(_map_names(s.expr, map2).rename(union.ctx))
        acc_sys = union
    return acc_sys, exprs


def _rat_matrix_nilpotent(mat) -> bool:
    k = len(mat)
    power = [row[:] for row in mat]
    for _ in range(k - 1):
        power = [
            [sum(power[i][h] * mat[h][j] for h in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return all(v == 0 for row in power for v in row)


def _rat_det(mat) -> Fraction:
    k = len(mat)
    if k == 0:
        return Fraction(1)
    m = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, k):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _poly_det(mat, ctx) -> Poly:
    k = len(mat)
    if k == 0:
        return ctx.one()
    if k == 1:
        return mat[0][0]
    out = ctx.zero()
    for col in range(k):
        entry = mat[0][col]
        if entry.is_zero():
            continue
        minor = [
            [mat[r][c] for c in range(k) if c != col] for r in range(1, k)
        ]
        sub = _poly_det(minor, ctx)
        out = out + (entry * sub if col % 2 == 0 else -(entry * sub))
    return out


def _poly_adjugate(mat, ctx):
    k = len(mat)
    if k == 1:
        return [[ctx.one()]]
    adj = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [
                [mat[r][c] for c in range(k) if c != i]
                for r in range(k)
                if r != j
            ]
            cof = _poly_det(minor, ctx)
            adj[i][j] = cof if (i + j) % 2 == 0 else -cof
    return adj


def check_well_posed(series_list):
    """Diagnostics for a system y = F(x, y): the trailing k axes of the
    k given series are the unknowns.  Returns (ok, diagnostics)."""
    series_list = list(series_list)
    k = len(series_list)
    sys, exprs = _merge_all(series_list)
    d = sys.dim - k
    problems = []
    if d < 1:
        return False, ["system has more unknowns than base axes"]
    for i, p in enumerate(exprs, start=1):
        v = p.eval(sys.init)
        if v != 0:
            problems.append(f"component {i} has value {v} at the origin (need 0)")
    jac = [
        [sys.lie(d + j + 1)(exprs[i]).eval(sys.init) for j in range(k)]
        for i in range(k)
    ]
    if not _rat_matrix_nilpotent(jac):
        problems.append("Jacobian at the origin is not nilpotent")
    return not problems, problems


def implicit_solve(series_list, names=None):
    """Canonical solution of the well-posed system y = F(x, y).

    Each input series is a component of F over base (x_1..x_d, y_1..y_k),
    the y's being the trailing k axes.  The output is a tuple of series
    over (x_1..x_d) sharing one system: the merged F-system transported
    along the solution, fresh generators for the solution components, and
    one auxiliary generator for the inverse determinant of I minus the
    Jacobian, wired through the adjugate so that every kernel entry stays
    polynomial.
    """
    series_list = [prune(s) for s in series_list]
    k = len(series_list)
    sys, exprs = _merge_all(series_list)
    d = sys.dim - k
    ok, problems = check_well_posed([CdfSeries(sys, e) for e in exprs])
    if not ok:
        raise NotWellPosed("; ".join(problems))

    taken = set(sys.ctx.names)
    if names is None:
        names = [f"y{i}" for i in range(1, k + 1)]
    ynames = []
    for nm in names:
        nm = _fresh(nm, taken)
        taken.add(nm)
        ynames.append(nm)
    dname = _fresh("detinv", taken)

    all_names = list(sys.ctx.names) + ynames + [dname]
    target = Context(all_names)
    delta = target.var(dname)

    def emb(p):
        return p.rename(target)

    # Jacobian of F in the unknowns, as polynomials over the old generators.
    jac_polys = [[sys.lie(d + j + 1)(exprs[i]) for j in range(k)] for i in range(k)]
    eye_minus_j = [
        [
            (target.one() if i == j else target.zero()) - emb(jac_polys[i][j])
            for j in range(k)
        ]
        for i in range(k)
    ]
    adj = _poly_adjugate(eye_minus_j, target)

    dy = []  # dy[j][i] = d/dx_j of solution component i, over the target ctx
    for j in range(1, d + 1):
        pj = [emb(sys.lie(j)(exprs[i])) for i in range(k)]
        column = []
        for i in range(k):
            acc = target.zero()
            for h in range(k):
                acc = acc + adj[i][h] * pj[h]
            column.append(delta * acc)
        dy.append(column)

    new_kernel = {}
    for g in sys.ctx.names:
        gi = sys.ctx.id_of(g)
        for j in range(1, d + 1):
            total = emb(sys.kernel[gi][j - 1])
            for i in range(k):
                b = sys.kernel[gi][d + i]
                if not b.is_zero():
                    total = total + dy[j - 1][i] * emb(b)
            if not total.is_zero():
                new_kernel[(g, j)] = total
    for i, nm in enumerate(ynames):
        for j in range(1, d + 1):
            if not dy[j - 1][i].is_zero():
                new_kernel[(nm, j)] = dy[j - 1][i]

    # d/dx_j delta = delta^2 * trace(adj(I-J) * d/dx_j J) where each entry
    # of J is differentiated by the same chain rule.
    for j in range(1, d + 1):
        trace = target.zero()
        for a in range(k):
            for b in range(k):
                q = jac_polys[b][a]  # J[b][a]
                if q.is_zero():
                    continue
                dq = emb(sys.lie(j)(q))
                for h in range(k):
                    qh = sys.lie(d + h + 1)(q)
                    if not qh.is_zero():
                        dq = dq + dy[j - 1][h] * emb(qh)
                if not dq.is_zero():
                    trace = trace + adj[a][b] * dq
        if not trace.is_zero():
            new_kernel[(dname, j)] = delta * delta * trace

    jac0 = [[jac_polys[i][j].eval(sys.init) for j in range(k)] for i in range(k)]
    det0 = _rat_det(
        [
            [(1 if i == j else 0) - jac0[i][j] for j in range(k)]
            for i in range(k)
        ]
    )
    init = list(sys.init) + [Fraction(0)] * k + [Fraction(1) / det0]
    solved = CdfSystem(sys.base_names[:d], all_names, new_kernel, init)
    return tuple(CdfSeries(solved, solved.ctx.var(nm)) for nm in ynames)


# Bridge to the process engine ---------------------------------------------------


def to_wbpp(s: CdfSeries):
    """Read the same polynomial data as a process model: axes become
    letters, generators become nonterminals, the initial vector becomes
    the output weights, and the expression becomes the start
    configuration."""
    from .wbpp import Wbpp

    sys = s.system
    transitions = {}
    for g in sys.ctx.names:
        for j in range(1, sys.dim + 1):
            p = sys.entry(g, j)
            if not p.is_zero():
                transitions[(sys.base_names[j - 1], g)] = p
    outputs = {g: sys.init[sys.ctx.id_of(g)] for g in sys.ctx.names}
    return Wbpp(sys.base_names, sys.ctx.names, s.expr, transitions, outputs)


def from_wbpp(m, commutativity_check_length: int = 4) -> CdfSeries:
    """Reinterpret a process model as a CDF series.

    Sound only for commutative series; the caller asserts commutativity
    and this fails fast when the bounded check finds a counterexample.
    """
    from .wbpp import check_commutative_bounded

    counterexample = check_commutative_bounded(m, commutativity_check_length)
    if counterexample is not None:
        u, v = counterexample
        raise NotWellPosed(
            f"series is not commutative: words {u!r} and {v!r} have equal "
            f"Parikh image but different coefficients"
        )
    kernel = {}
    for j, letter in enumerate(m.alphabet, start=1):
        for nt in m.ctx.names:
            p = m.transition(letter, nt)
            if not p.is_zero():
                kernel[(nt, j)] = p
    sys = CdfSystem(
        m.alphabet, m.ctx.names, kernel, [m.output(nt) for nt in m.ctx.names]
    )
    return CdfSeries(sys, m.start.rename(sys.ctx))

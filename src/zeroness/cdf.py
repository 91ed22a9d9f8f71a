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
generators.  Strong composition and implicit solving substitute series
for axes through one chain rule, :func:`_chain_rule`.

A system is a view on the derivation system of ``_system``, read with
axes for its ops (the Lie derivatives) and exponent vectors for witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import _system
from ._saturation import ZeroVerdict
from ._system import System, fresh, transport
from .constraints import MonoidRecognizer, recognizer, validate
from .errors import (
    ArityMismatch,
    NotComposable,
    NotWellPosed,
    ResourceLimitExceeded,
)
from .groebner import DEFAULT_LIMITS
from .poly import Context, Derivation, Poly, _packing, _poly
from .series import TruncSeries, _exponents_of_degree


class CdfSystem:
    """An autonomous system: kernel entries mention only generators.

    A view on a derivation system ``core``: axis j is op j-1, and the
    initial vector is the point.
    """

    __slots__ = ("base_names", "core")

    def __init__(self, base_names, generators, kernel, init):
        ctx = Context(generators)
        kernel = {key: p.rename(ctx) for key, p in kernel.items()}
        self.base_names = _checked_base(base_names, ctx.names)
        self.core = _kernel_core(ctx, self.dim, kernel, init)

    @classmethod
    def of(cls, base_names, core: System) -> "CdfSystem":
        """The system with these axes over ``core``; nothing is copied."""
        sys = object.__new__(cls)
        sys.base_names = _checked_base(base_names, core.ctx.names)
        sys.core = core
        return sys

    @property
    def ctx(self) -> Context:
        return self.core.ctx

    @property
    def dim(self) -> int:
        return len(self.base_names)

    @property
    def init(self) -> tuple:
        return self.core.point

    @property
    def kernel(self) -> tuple:
        """``kernel[i][j]``: the entry of generator i along axis j + 1."""
        return tuple(
            tuple(op.image(i) for op in self.core.ops) for i in range(self.order)
        )

    @property
    def order(self) -> int:
        return len(self.ctx)

    @property
    def degree(self) -> int:
        return max((op.degree for op in self.core.ops), default=0)

    def generator_names(self):
        return self.ctx.names

    def entry(self, gen, axis) -> Poly:
        return self.core.ops[axis - 1].image(self.ctx.id_of(gen))

    def lie(self, j: int) -> Derivation:
        """The j-th Lie derivative L_j = sum_h P[h][j] * d/dy_h."""
        if not 1 <= j <= self.dim:
            raise ArityMismatch(f"axis {j} out of range 1..{self.dim}")
        return self.core.ops[j - 1]

    def __repr__(self):
        return (
            f"CdfSystem(d={self.dim}, order={self.order}, "
            f"gens={list(self.ctx.names)})"
        )


def _checked_base(base_names, generator_names) -> tuple:
    base_names = tuple(base_names)
    if not base_names:
        raise ArityMismatch("a system needs at least one base variable")
    if len(set(base_names)) != len(base_names):
        raise ArityMismatch("duplicate base variable names")
    if set(generator_names) & set(base_names):
        raise ArityMismatch("generator names collide with base variables")
    return base_names


def _kernel_core(ctx: Context, dim: int, kernel, init) -> System:
    """The core of a kernel given as (generator name, axis) -> entry, with
    every entry already in ``ctx``."""
    images = [{} for _ in range(dim)]
    for (gen, axis), p in kernel.items():
        i = ctx.id_of(gen)
        if not 1 <= axis <= dim:
            raise ArityMismatch(f"axis {axis} out of range 1..{dim}")
        images[axis - 1][i] = p
    init = [Fraction(c) for c in init]
    if len(init) != len(ctx):
        raise ArityMismatch("initial vector length differs from the order")
    return System(ctx, [Derivation(ctx, im) for im in images], init)


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
    names = list(generators)
    trackers = {}
    for b in base_names:
        if b in occurring:
            trackers[b] = fresh(f"t_{b}", names)
            names.append(trackers[b])
    ctx = Context(names)
    new_kernel = {
        (g, a): p.rename(ctx, {n: trackers.get(n, n) for n in p.ctx.names})
        for (g, a), p in kernel.items()
    }
    for b, t in trackers.items():
        new_kernel[(t, base_names.index(b) + 1)] = ctx.one()
    new_init = list(init) + [Fraction(0)] * len(trackers)
    return CdfSystem.of(base_names, _kernel_core(ctx, len(base_names), new_kernel, new_init))


# Coefficients ----------------------------------------------------------------


def lie_derivative(sys: CdfSystem, j: int, p: Poly) -> Poly:
    return sys.lie(j)(p)


def coeff_via_lie(s: CdfSeries, n) -> Fraction:
    """Coefficient extraction by the exchange rule: fold one Lie derivative
    per unit of each exponent, then evaluate at the initial vector, packed
    throughout (:func:`_system.fold_value`).  The last derivative is not
    folded: it is evaluated in one pass at the dual point a + ε·w, a the
    initial vector and w its images' values there, so an exponent cap
    fires only in the folds before it.  Any word with the right Parikh
    image works; axes are folded in order.
    Every exponent must be nonnegative."""
    n = tuple(n)
    if len(n) != s.dim:
        raise ArityMismatch(f"exponent {n} has dimension {len(n)}, series has {s.dim}")
    if any(k < 0 for k in n):
        raise ValueError(f"negative exponent in {n}")
    word = []
    for j, count in enumerate(n, start=1):
        word += [s.system.lie(j)] * count
    return _system.fold_value(s.expr, word, s.system.init)


def _eval_on_tables(p: Poly, tables, d: int, N: int) -> TruncSeries:
    exponents = _packing(len(p.ctx)).exponents
    out = {}
    pows = {}
    for m, c in p.terms.items():
        term = TruncSeries.const(1, d, N)
        for key in exponents(m):
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
                        sys.lie(j + 1).image(i), snapshot, d, layer
                    )
                val = cache[(i, j)][m]
                if val != 0:
                    tables[i].coeffs[n] = val
    return tables


def coeff_table(s: CdfSeries, N: int, limits=None) -> TruncSeries:
    """All coefficients of total degree <= N via the dynamic program.

    Before any table is built, N is compared with the ``max_degree`` cap
    of ``limits`` and the number of coefficients, C(N + d, d) over d axes,
    with its ``max_iterations`` cap: past either,
    :class:`ResourceLimitExceeded` is raised.
    """
    limits = limits or DEFAULT_LIMITS
    if N > limits.max_degree:
        raise ResourceLimitExceeded("max_degree", N, limits.max_degree)
    count = comb(N + s.dim, s.dim)
    if count > limits.max_iterations:
        raise ResourceLimitExceeded("max_iterations", count, limits.max_iterations)
    tables = generator_tables(s.system, N)
    return _eval_on_tables(s.expr, tables, s.dim, N)


# Zeroness --------------------------------------------------------------------


def prune(s: CdfSeries) -> CdfSeries:
    """Drop generators the expression does not depend on (transitively
    through the kernel).  The denoted series is unchanged."""
    core, (expr,) = _system.prune(s.system.core, [s.expr])
    if core is s.system.core:
        return s
    return CdfSeries(CdfSystem.of(s.system.base_names, core), expr)


def zeroness(s: CdfSeries, limits=None) -> ZeroVerdict:
    """ZERO iff the denoted series vanishes (under the promise that the
    system has a power series solution with the given initial vector).

    The saturation treats L_1..L_d as noncommuting operators; NONZERO
    verdicts carry the witness monomial's exponent vector and the exact
    coefficient value there.
    """
    verdict = _system.decide(s.system.core, s.expr, limits)
    if verdict.witness is not None:
        exponent = [0] * s.dim
        for i in verdict.witness:
            exponent[i] += 1
        return ZeroVerdict(
            verdict.outcome, tuple(exponent), verdict.value, verdict.stats
        )
    return verdict


def _shared(series_list):
    """The series' systems merged by :func:`_system.merge`, with their expressions."""
    first = series_list[0].system
    core, exprs = _system.merge([(s.system.core, s.expr) for s in series_list])
    if core is not first.core:
        first = CdfSystem.of(first.base_names, core)
    return first, exprs


def equivalent(s1: CdfSeries, s2: CdfSeries, limits=None) -> ZeroVerdict:
    sys, (e1, e2) = _shared([s1, s2])
    return zeroness(CdfSeries(sys, e1 - e2), limits)


# Expression-level closure ------------------------------------------------------


def c_scale(s: CdfSeries, c) -> CdfSeries:
    return CdfSeries(s.system, s.expr * Fraction(c))


def c_add(s1: CdfSeries, s2: CdfSeries) -> CdfSeries:
    sys, (e1, e2) = _shared([s1, s2])
    return CdfSeries(sys, e1 + e2)


def c_mul(s1: CdfSeries, s2: CdfSeries) -> CdfSeries:
    sys, (e1, e2) = _shared([s1, s2])
    return CdfSeries(sys, e1 * e2)


def c_derive(s: CdfSeries, j: int) -> CdfSeries:
    """Partial derivative along axis j: replace the expression by its
    Lie derivative (the exchange rule at expression level)."""
    return CdfSeries(s.system, s.system.lie(j)(s.expr))


def c_inverse(s: CdfSeries) -> CdfSeries:
    """Multiplicative inverse: appends one generator u with
    d/dx_j u = -(L_j p) u^2 and initial value 1/p(c)."""
    if s.value_at_origin() == 0:
        raise NotWellPosed("inverse of a series with zero constant term")
    core, u = _system.inverse(s.system.core, s.expr, "inv")
    return CdfSeries(CdfSystem.of(s.system.base_names, core), u)


# Strong composition -------------------------------------------------------------


def _chain_rule(core: System, d: int, rates, move):
    """The images of ``core``'s generators along the leading ``d`` axes
    once series are substituted for the trailing ones: along axis j,
    generator h goes to op_j(h) + sum_i rates[j][i] * op_{d+i}(h), where
    ``rates[j][i]`` is the derivative of substituted series i along axis
    j.  Every image is moved by ``move`` into a context where the old
    generators keep their ids; one dict of images per leading axis."""
    out = []
    for j in range(d):
        images = {}
        for h in range(len(core.ctx)):
            total = move(core.ops[j].image(h))
            for i, rate in enumerate(rates[j]):
                b = core.ops[d + i].image(h)
                if not b.is_zero():
                    total = total + rate * move(b)
            if not total.is_zero():
                images[h] = total
        out.append(images)
    return out


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

    inner_sys, inner_exprs = _shared(gs)
    for i in range(1, k + 1):
        if inner_exprs[i - 1].eval(inner_sys.init) != 0:
            column = d + i
            if any(not p.is_zero() for p in fsys.lie(column).images.values()):
                raise NotComposable(
                    f"substituted axis {column} occurs in the outer system but the "
                    f"inner series {i} has nonzero constant term"
                )

    # The outer system along the shared axes, merged with the inner one.
    head = System(fsys.ctx, fsys.core.ops[:d], fsys.init)
    merged, emb_outer, emb_inner = _system.union(head, inner_sys.core, ("_o", "_i"))
    # d/dx_j (inner expression i), moved into the merged generators.
    rates = [[emb_inner(op(q)) for q in inner_exprs] for op in inner_sys.core.ops]
    images = _chain_rule(fsys.core, d, rates, emb_outer)
    for column, op in zip(images, merged.ops):  # the inner generators keep theirs
        column.update((v, p) for v, p in op.images.items() if v >= fsys.order)

    core = System(merged.ctx, [Derivation(merged.ctx, im) for im in images], merged.point)
    return CdfSeries(CdfSystem.of(fsys.base_names[:d], core), emb_outer(f.expr))


# Regular support restriction ------------------------------------------------------


def _restriction_of_poly(p: Poly, rec: MonoidRecognizer, target: Context, gname):
    """Push a restriction through a polynomial: a map from monoid element
    m to the m-part, where variables split into indexed copies, constants
    sit at the identity, and products convolve over the monoid.  The
    parts convolve packed monomials; a copy's exponent is at most its
    variable's, so none grows past the input's."""
    exponents, packing = _packing(len(p.ctx)).exponents, _packing(len(target))
    out = {}
    for mono, c in p.terms.items():
        parts = {rec.identity: {0: c}}
        for v, e in exponents(mono):
            copies = [packing.var(target.id_of(gname(v, m_f))) for m_f in range(rec.size)]
            for _ in range(e):
                nxt = {}
                for m_acc, acc in parts.items():
                    for m_f, x in enumerate(copies):
                        bucket = nxt.setdefault(rec.add(m_acc, m_f), {})
                        for k, a in acc.items():
                            key = k + x
                            bucket[key] = bucket.get(key, 0) + a
                parts = nxt
        for m, acc in parts.items():
            bucket = out.setdefault(m, {})
            for k, a in acc.items():
                bucket[k] = bucket.get(k, 0) + a
    pieces = {m: _poly(target, t) for m, t in out.items()}
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
    for j, op in enumerate(sys.core.ops, start=1):
        for v, p in op.images.items():
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
    restricted = CdfSystem.of(sys.base_names, _kernel_core(target, sys.dim, kernel, init))

    expr_pieces = _restriction_of_poly(s.expr, rec, restricted.ctx, gname)
    expr = restricted.ctx.zero()
    for m in rec.accepting:
        if m in expr_pieces:
            expr = expr + expr_pieces[m]
    return CdfSeries(restricted, expr)


# Implicit systems ------------------------------------------------------------------


def _rat_matrix_nilpotent(mat) -> bool:
    k = len(mat)
    power = [row[:] for row in mat]
    for _ in range(k - 1):
        power = [
            [sum(power[i][h] * mat[h][j] for h in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return all(v == 0 for row in power for v in row)


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
    sys, exprs = _shared(series_list)
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
    sys, exprs = _shared(series_list)
    d = sys.dim - k
    ok, problems = check_well_posed([CdfSeries(sys, e) for e in exprs])
    if not ok:
        raise NotWellPosed("; ".join(problems))

    if names is None:
        names = [f"y{i}" for i in range(1, k + 1)]
    taken = list(sys.ctx.names)
    for nm in [*names, "detinv"]:
        taken.append(fresh(nm, taken))
    target = Context(taken)
    delta = target.var_by_id(len(target) - 1)
    ynames = target.names[sys.order : -1]

    def emb(p):
        return transport(p, target)

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

    ops = []
    for images, rates in zip(_chain_rule(sys.core, d, dy, emb), dy):
        for i, rate in enumerate(rates):
            if not rate.is_zero():
                images[sys.order + i] = rate
        # d/dx_j delta = delta^2 * trace(adj(I-J) * d/dx_j J), each entry of
        # J differentiated by the chain rule above.
        op = Derivation(target, images)
        trace = target.zero()
        for a in range(k):
            for b in range(k):
                if not jac_polys[b][a].is_zero():
                    trace = trace + adj[a][b] * op(emb(jac_polys[b][a]))
        if not trace.is_zero():
            images[sys.order + k] = delta * delta * trace
        ops.append(Derivation(target, images))

    # check_well_posed made J(0) nilpotent, so det(I - J(0)) = 1 and delta
    # starts at 1.
    init = list(sys.init) + [Fraction(0)] * k + [Fraction(1)]
    solved = CdfSystem.of(sys.base_names[:d], System(target, ops, init))
    return tuple(CdfSeries(solved, solved.ctx.var(nm)) for nm in ynames)


# Bridge to the process engine ---------------------------------------------------


def to_wbpp(s: CdfSeries):
    """Read the same polynomial data as a process model: axes become
    letters, generators become nonterminals, the initial vector becomes
    the output weights, and the expression becomes the start
    configuration."""
    from .wbpp import Wbpp

    return Wbpp.of(s.system.base_names, s.system.core, s.expr)


def from_wbpp(m) -> CdfSeries:
    """Reinterpret a process model as a CDF series.

    Sound only for commutative series; the caller asserts commutativity
    and this fails fast when the bounded check finds a counterexample.
    """
    from .wbpp import COMMUTATIVITY_CHECK_LENGTH, check_commutative_bounded

    counterexample = check_commutative_bounded(m, COMMUTATIVITY_CHECK_LENGTH)
    if counterexample is not None:
        u, v = counterexample
        raise NotWellPosed(
            f"series is not commutative: words {u!r} and {v!r} have equal "
            f"Parikh image but different coefficients"
        )
    return CdfSeries(CdfSystem.of(m.alphabet, m.core), m.start)

"""Independent oracles for the test suite.

Everything here is deliberately brute force and shares no code path with
the engines under test: species are evaluated with truncated-series
combinators only, shuffle products by explicit interleaving enumeration,
monomials multiply, divide and compare as dense exponent vectors, and
ideal membership is decided by bounded Macaulay linear algebra over exact
rationals.
"""

from fractions import Fraction
from itertools import product

from zeroness import constraints, species
from zeroness.poly import Monomial, Poly
from zeroness.series import TruncSeries, mask, solve_implicit


# Species: straight combinator evaluation (no CDF compiler) --------------------


def species_egs(e, dim, trunc, env=None) -> TruncSeries:
    env = env or {}
    if isinstance(e, species.Zero):
        return TruncSeries.zero(dim, trunc)
    if isinstance(e, species.One):
        return TruncSeries.const(1, dim, trunc)
    if isinstance(e, species.Atom):
        return TruncSeries.coordinate(e.sort, dim, trunc)
    if isinstance(e, species.Ref):
        return TruncSeries.coordinate(env[e.name], dim, trunc)
    if isinstance(e, species.Sum):
        return species_egs(e.left, dim, trunc, env) + species_egs(e.right, dim, trunc, env)
    if isinstance(e, species.Prod):
        return species_egs(e.left, dim, trunc, env) * species_egs(e.right, dim, trunc, env)
    if isinstance(e, species.Set):
        return species_egs(e.child, dim, trunc, env).exp()
    if isinstance(e, species.Cyc):
        return species_egs(e.child, dim, trunc, env).neg_log_one_minus()
    if isinstance(e, species.Seq):
        one = TruncSeries.const(1, dim, trunc)
        return (one - species_egs(e.child, dim, trunc, env)).inverse()
    if isinstance(e, species.Restrict):
        table = species_egs(e.child, dim, trunc, env)
        return mask(table, lambda n: constraints.contains(e.constraint, n))
    if isinstance(e, species.StrongCompose):
        k = len(e.subs)
        outer_env = dict(env)
        for i, nm in enumerate(e.slots, start=1):
            outer_env[nm] = dim + i
        outer = species_egs(e.outer, dim + k, trunc, outer_env)
        subs = [species_egs(s, dim, trunc, env) for s in e.subs]
        return outer.compose(subs)
    if isinstance(e, species.Fix):
        k = len(e.bindings)
        names = [nm for nm, _ in e.bindings]
        inner_env = dict(env)
        for i, nm in enumerate(names, start=1):
            inner_env[nm] = dim + i
        bodies = [
            species_egs(body, dim + k, trunc, inner_env) for _, body in e.bindings
        ]

        def system(xs, ys):
            n = xs[0].trunc
            if xs[0].dim == dim + k:
                # Well-posedness probe: the unknowns are passed as the
                # trailing coordinate series, which is exactly how the
                # body tables were computed.
                return tuple(TruncSeries(dim + k, n, b.coeffs) for b in bodies)
            reduced = [TruncSeries(dim + k, n, b.coeffs) for b in bodies]
            return tuple(b.compose(ys) for b in reduced)

        solution = solve_implicit(system, dim, k, trunc)
        return solution[names.index(e.select)]
    raise AssertionError(f"not a species expression: {e!r}")


# Shuffle product by explicit interleaving --------------------------------------


def shuffle_coefficient(f, g, word):
    """(f shuffle g)_w by summing over all position subsets, which counts
    interleavings with multiplicity."""
    n = len(word)
    total = Fraction(0)
    for bits in range(1 << n):
        u = "".join(word[i] for i in range(n) if bits >> i & 1)
        v = "".join(word[i] for i in range(n) if not bits >> i & 1)
        total += f.get(u, Fraction(0)) * g.get(v, Fraction(0))
    return total


# Monomial algebra on dense exponent vectors --------------------------------------
#
# The library keeps Monomial as a plain exponent record and multiplies,
# divides and orders monomials only in packed form; these are the
# references its packed kernels are checked against.


def dense(m, nvars):
    """The exponents of ``m`` over variables ``0 .. nvars-1``."""
    out = [0] * nvars
    for v, e in m.exps:
        out[v] = e
    return tuple(out)


def _dense_pair(a, b):
    n = 1 + max(a.variables() + b.variables(), default=-1)
    return zip(dense(a, n), dense(b, n))


def _from_dense(exps):
    return Monomial(tuple(enumerate(exps)))


def mono_mul(a, b):
    return _from_dense(x + y for x, y in _dense_pair(a, b))


def mono_div(a, b):
    """``a / b``; ``b`` must divide ``a``."""
    exps = [x - y for x, y in _dense_pair(a, b)]
    if min(exps, default=0) < 0:
        raise ValueError("monomial division with negative exponent")
    return _from_dense(exps)


def mono_lcm(a, b):
    return _from_dense(max(x, y) for x, y in _dense_pair(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in _dense_pair(a, b))


def mono_coprime(a, b):
    return not any(x and y for x, y in _dense_pair(a, b))


def grlex_key(m, nvars):
    """The graded-lex sort key of ``m`` over ``nvars`` variables: degree,
    then exponents, variable 0 highest."""
    e = dense(m, nvars)
    return sum(e), e


# Ideal membership by bounded Macaulay linear algebra ----------------------------


def _monomials_up_to(ctx, bound):
    nv = len(ctx)
    out = []
    for exps in product(range(bound + 1), repeat=nv):
        if sum(exps) <= bound:
            out.append(Monomial(tuple((v, e) for v, e in enumerate(exps) if e)))
    return out


def _solve_exact(rows, rhs):
    """Consistency of A x = b over Q by Gaussian elimination."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(m[0])
    rank_col = 0
    for col in range(ncols - 1):
        pivot = next((r for r in range(rank_col, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank_col], m[pivot] = m[pivot], m[rank_col]
        inv = Fraction(1) / m[rank_col][col]
        m[rank_col] = [v * inv for v in m[rank_col]]
        for r in range(nrows):
            if r != rank_col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank_col])]
        rank_col += 1
        if rank_col == nrows:
            break
    for r in range(nrows):
        if all(v == 0 for v in m[r][:-1]) and m[r][-1] != 0:
            return False
    return True


def macaulay_member(p: Poly, gens, bound: int) -> bool:
    """Does p admit a representation sum q_i g_i with deg(q_i g_i) <= bound?

    Columns are (generator, multiplier monomial) pairs; rows are monomials
    of degree <= bound; solved exactly.
    """
    ctx = p.ctx
    columns = []
    for g in gens:
        for mu in _monomials_up_to(ctx, bound - g.degree):
            shifted = {}
            for m, c in g.terms.items():
                key = mono_mul(m, mu)
                shifted[key] = shifted.get(key, Fraction(0)) + c
            columns.append(shifted)
    row_monomials = _monomials_up_to(ctx, bound)
    rows = [[col.get(m, Fraction(0)) for col in columns] for m in row_monomials]
    rhs = [p.terms.get(m, Fraction(0)) for m in row_monomials]
    return _solve_exact(rows, rhs)

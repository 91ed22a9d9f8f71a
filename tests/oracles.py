"""Independent oracles for the test suite.

Everything here is deliberately brute force and shares no code path with
the engines under test: species are evaluated with truncated-series
combinators only, shuffle products by explicit interleaving enumeration,
packed monomial keys are decoded by arithmetic of their own and multiply,
divide and compare as dense exponent vectors, and
ideal membership is decided by bounded Macaulay linear algebra over exact
rationals.
"""

from fractions import Fraction
from itertools import product

from zeroness import constraints, species
from zeroness.poly import Poly
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
# A polynomial's terms are keyed by packed monomials: in a context of n
# variables, variable v's exponent sits in the 32-bit field at bit
# 32 * (n - 1 - v) and the total degree above them all.  These helpers
# decode and encode that layout with arithmetic of their own and multiply,
# divide and order monomials as dense exponent vectors; they are the
# references the library's packed kernels are checked against.

FIELD = 32


def dense(m, nvars):
    """The exponents of the packed monomial ``m`` over variables
    ``0 .. nvars-1``."""
    return tuple((m >> (FIELD * (nvars - 1 - v))) % (1 << FIELD) for v in range(nvars))


def packed(exps):
    """The packed monomial of the dense exponents ``exps``, one per
    variable of the context."""
    n = len(exps)
    fields = sum(e * 2 ** (FIELD * (n - 1 - v)) for v, e in enumerate(exps))
    return fields + sum(exps) * 2 ** (FIELD * n)


def _dense_pair(a, b, nvars):
    return zip(dense(a, nvars), dense(b, nvars))


def mono_mul(a, b, nvars):
    return packed(tuple(x + y for x, y in _dense_pair(a, b, nvars)))


def mono_div(a, b, nvars):
    """``a / b``; ``b`` must divide ``a``."""
    exps = tuple(x - y for x, y in _dense_pair(a, b, nvars))
    if min(exps, default=0) < 0:
        raise ValueError("monomial division with negative exponent")
    return packed(exps)


def mono_lcm(a, b, nvars):
    return packed(tuple(max(x, y) for x, y in _dense_pair(a, b, nvars)))


def mono_divides(a, b, nvars):
    return all(x <= y for x, y in _dense_pair(a, b, nvars))


def mono_coprime(a, b, nvars):
    return not any(x and y for x, y in _dense_pair(a, b, nvars))


def grlex_key(m, nvars):
    """The graded-lex sort key of ``m`` over ``nvars`` variables: degree,
    then exponents, variable 0 highest."""
    e = dense(m, nvars)
    return sum(e), e


# Ideal membership by bounded Macaulay linear algebra ----------------------------


def _monomials_up_to(nvars, bound):
    return [
        exps for exps in product(range(bound + 1), repeat=nvars) if sum(exps) <= bound
    ]


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
    nv = len(p.ctx)
    columns = []
    for g in gens:
        for mu in _monomials_up_to(nv, bound - g.degree):
            shifted = {}
            for m, c in g.terms.items():
                key = tuple(x + y for x, y in zip(dense(m, nv), mu))
                shifted[key] = shifted.get(key, Fraction(0)) + c
            columns.append(shifted)
    row_monomials = _monomials_up_to(nv, bound)
    terms = {dense(m, nv): c for m, c in p.terms.items()}
    rows = [[col.get(m, Fraction(0)) for col in columns] for m in row_monomials]
    rhs = [terms.get(m, Fraction(0)) for m in row_monomials]
    return _solve_exact(rows, rhs)

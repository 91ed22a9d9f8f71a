"""Truncated multivariate power series in exponential coordinates.

A :class:`TruncSeries` stores the exponential coefficients f_n of
f = sum_n f_n x^n / n! for all exponent vectors n of total degree at most
the truncation bound.  Multiplication is binomial convolution.  This is
the brute-force oracle every other engine is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import ArityMismatch, NotWellPosed
from .poly import _over_common_denominator


def binom_vec(n, m) -> int:
    """Product of per-coordinate binomials C(n_j, m_j)."""
    out = 1
    for nj, mj in zip(n, m):
        out *= math.comb(nj, mj)
    return out


def factorial_vec(n) -> int:
    out = 1
    for nj in n:
        out *= math.factorial(nj)
    return out


def _exponents_of_degree(d, total):
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponents_of_degree(d - 1, total - first):
            yield (first,) + rest


class TruncSeries:
    """Exponential-coefficient table truncated at a total-degree bound."""

    __slots__ = ("dim", "trunc", "coeffs")

    def __init__(self, dim: int, trunc: int, coeffs=None):
        self.dim = dim
        self.trunc = trunc
        table = {}
        if coeffs:
            for n, c in coeffs.items():
                n = tuple(n)
                if len(n) != dim:
                    raise ArityMismatch(f"exponent {n} has wrong dimension")
                if sum(n) > trunc:
                    continue
                c = Fraction(c)
                if c != 0:
                    table[n] = c
        self.coeffs = table

    @classmethod
    def _of(cls, dim, trunc, table):
        """Wrap ``table`` without checks: callers guarantee exponents of
        dimension ``dim`` and total degree <= ``trunc``, each mapped to a
        nonzero ``Fraction``."""
        f = object.__new__(cls)
        f.dim = dim
        f.trunc = trunc
        f.coeffs = table
        return f

    # Constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, dim, trunc):
        return cls(dim, trunc)

    @classmethod
    def const(cls, c, dim, trunc):
        return cls(dim, trunc, {(0,) * dim: Fraction(c)})

    @classmethod
    def coordinate(cls, j, dim, trunc):
        """The series x_j (1-based axis); its only exponential coefficient
        is 1 at the unit vector e_j."""
        if not 1 <= j <= dim:
            raise ArityMismatch(f"axis {j} out of range 1..{dim}")
        e = tuple(1 if i == j - 1 else 0 for i in range(dim))
        return cls(dim, trunc, {e: Fraction(1)})

    # Access ---------------------------------------------------------------

    def __getitem__(self, n) -> Fraction:
        return self.coeffs.get(tuple(n), Fraction(0))

    def constant(self) -> Fraction:
        return self[(0,) * self.dim]

    def ordinary(self, n) -> Fraction:
        """Ordinary (Taylor) coefficient at n."""
        n = tuple(n)
        return self[n] / factorial_vec(n)

    def univariate_list(self):
        """Coefficients 0..trunc as a list (dim 1 only)."""
        assert self.dim == 1
        return [self[(i,)] for i in range(self.trunc + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.dim == other.dim
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        items = ", ".join(f"{n}: {c}" for n, c in sorted(self.coeffs.items()))
        return f"TruncSeries(d={self.dim}, N={self.trunc}, {{{items}}})"

    def _check(self, other):
        if self.dim != other.dim:
            raise ArityMismatch("series of different dimensions")

    # Linear structure -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.const(other, self.dim, self.trunc)
        self._check(other)
        N = min(self.trunc, other.trunc)
        table = {n: c for n, c in self.coeffs.items() if sum(n) <= N}
        for n, c in other.coeffs.items():
            if sum(n) <= N:
                table[n] = table.get(n, Fraction(0)) + c
        return TruncSeries(self.dim, N, table)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.const(other, self.dim, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        return TruncSeries(self.dim, self.trunc, {n: c * v for n, v in self.coeffs.items()})

    # Multiplicative structure ------------------------------------------------

    def __mul__(self, other):
        """Binomial convolution: (f*g)_n = sum_{m<=n} C(n,m) f_m g_{n-m}.

        Both tables go over one denominator each, the sums are taken in
        integers, and each output coefficient becomes one ``Fraction``.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        N = min(self.trunc, other.trunc)
        (left,), d1 = _over_common_denominator(self.coeffs)
        (right,), d2 = _over_common_denominator(other.coeffs)
        right = [(b, sum(b), cb) for b, cb in right.items()]
        acc = {}
        for a, ca in left.items():
            room = N - sum(a)
            for b, size, cb in right:
                if size > room:
                    continue
                n = tuple(map(add, a, b))
                acc[n] = acc.get(n, 0) + binom_vec(n, a) * ca * cb
        d = d1 * d2
        return TruncSeries._of(self.dim, N, {n: Fraction(c, d) for n, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = TruncSeries.const(1, self.dim, self.trunc)
        for _ in range(k):
            out = out * self
        return out

    def derive(self, j: int):
        """Partial derivative along axis j (1-based): a coefficient shift."""
        if not 1 <= j <= self.dim:
            raise ArityMismatch(f"axis {j} out of range 1..{self.dim}")
        table = {}
        for n, c in self.coeffs.items():
            if n[j - 1] >= 1:
                m = tuple(v - 1 if i == j - 1 else v for i, v in enumerate(n))
                table[m] = c
        return TruncSeries(self.dim, max(self.trunc - 1, 0), table)

    # Transcendental combinators ---------------------------------------------
    #
    # Each is computed layer by total degree from its defining ODE written
    # in exponential coordinates; the recurrences only consult lower layers.

    def exp(self):
        """e^f for f with zero constant term."""
        if self.constant() != 0:
            raise NotWellPosed("exp needs a zero constant term")
        d, N = self.dim, self.trunc
        out = {(0,) * d: Fraction(1)}
        partials = [self.derive(j) for j in range(1, d + 1)]
        for layer in range(1, N + 1):
            for n in _exponents_of_degree(d, layer):
                j = next(i for i, v in enumerate(n) if v > 0)
                m = tuple(v - 1 if i == j else v for i, v in enumerate(n))
                # g_{m+e_j} = (d_j f * g)_m
                val = Fraction(0)
                for a, ca in partials[j].coeffs.items():
                    b = tuple(x - y for x, y in zip(m, a))
                    if any(v < 0 for v in b):
                        continue
                    gb = out.get(b)
                    if gb:
                        val += binom_vec(m, a) * ca * gb
                if val != 0:
                    out[n] = val
        return TruncSeries(d, N, out)

    def inverse(self):
        """1/f for f with nonzero constant term."""
        c0 = self.constant()
        if c0 == 0:
            raise NotWellPosed("inverse needs a nonzero constant term")
        d, N = self.dim, self.trunc
        out = {(0,) * d: Fraction(1) / c0}
        partials = [self.derive(j) for j in range(1, d + 1)]
        for layer in range(1, N + 1):
            for n in _exponents_of_degree(d, layer):
                j = next(i for i, v in enumerate(n) if v > 0)
                m = tuple(v - 1 if i == j else v for i, v in enumerate(n))
                # h_{m+e_j} = -(h * h * d_j f)_m ; all h-entries needed have
                # total degree <= |m| < |n|.
                h = TruncSeries(d, sum(m), out)
                val = -(h * h * partials[j])[m]
                if val != 0:
                    out[n] = val
        return TruncSeries(d, N, out)

    def neg_log_one_minus(self):
        """-log(1 - f) for f with zero constant term."""
        if self.constant() != 0:
            raise NotWellPosed("log needs a zero constant term")
        d, N = self.dim, self.trunc
        r = (TruncSeries.const(1, d, N) - self).inverse()
        out = {}
        partials = [self.derive(j) for j in range(1, d + 1)]
        for layer in range(1, N + 1):
            for n in _exponents_of_degree(d, layer):
                j = next(i for i, v in enumerate(n) if v > 0)
                m = tuple(v - 1 if i == j else v for i, v in enumerate(n))
                val = (partials[j] * r)[m]
                if val != 0:
                    out[n] = val
        return TruncSeries(d, N, out)

    def compose(self, gs):
        """Substitute the trailing axes: self is over (x_1..x_d, y_1..y_k)
        with k = len(gs); each g_i is over (x_1..x_d).

        Sufficient composability condition checked here: every y_i that
        actually occurs (up to the truncation) must have g_i with zero
        constant term.
        """
        gs = list(gs)
        k = len(gs)
        d = self.dim - k
        if d < 0:
            raise ArityMismatch("more substitutions than axes")
        for g in gs:
            if g.dim != d:
                raise ArityMismatch("substituted series have wrong dimension")
        N = min([self.trunc] + [g.trunc for g in gs])
        occurring = set()
        for n in self.coeffs:
            for i in range(k):
                if n[d + i] > 0:
                    occurring.add(i)
        for i in occurring:
            if gs[i].constant() != 0:
                raise NotWellPosed(
                    f"substitution {i + 1} occurs but has nonzero constant term"
                )
        # Power tables for each occurring g_i.
        powers = {}
        for i in occurring:
            ps = [TruncSeries.const(1, d, N)]
            while len(ps) <= N:
                ps.append(ps[-1] * gs[i])
            powers[i] = ps
        out = {}
        for n, c in self.coeffs.items():
            a, b = n[:d], n[d:]
            if any(bi > N for bi in b):
                continue  # g_i^b_i has order > N, contributes nothing
            # c/n! is the ordinary coefficient of the monomial x^a y^b
            factor = c / Fraction(factorial_vec(n))
            term = TruncSeries(d, N, {a: Fraction(factorial_vec(a))})
            for i in range(k):
                if b[i]:
                    term = term * powers[i][b[i]]
            for m, x in term.coeffs.items():
                out[m] = out.get(m, 0) + factor * x
        return TruncSeries(d, N, out)


def solve_implicit(F, d: int, k: int, N: int):
    """Canonical solution of a well-posed system y = F(x, y), truncated at N.

    ``F(xs, ys)`` must build a k-tuple of TruncSeries from the given
    coordinate series; it is probed once in dimension d+k to check
    well-posedness exactly (zero origin value, nilpotent Jacobian), then
    iterated N*k times in dimension d and verified.
    """
    probe_trunc = 2
    xs = tuple(TruncSeries.coordinate(j, d + k, probe_trunc) for j in range(1, d + 1))
    ys = tuple(TruncSeries.coordinate(d + i, d + k, probe_trunc) for i in range(1, k + 1))
    probed = tuple(F(xs, ys))
    if len(probed) != k:
        raise ArityMismatch(f"system returned {len(probed)} components, expected {k}")
    for i, f in enumerate(probed):
        if f.constant() != 0:
            raise NotWellPosed(f"component {i + 1} is nonzero at the origin")
    jac = [
        [probed[i][tuple(1 if a == d + j else 0 for a in range(d + k))] for j in range(k)]
        for i in range(k)
    ]
    if not _is_nilpotent(jac):
        raise NotWellPosed("Jacobian at the origin is not nilpotent")

    xs_d = tuple(TruncSeries.coordinate(j, d, N) for j in range(1, d + 1))
    ys_t = tuple(TruncSeries.zero(d, N) for _ in range(k))
    for _ in range(N * k):
        ys_t = tuple(F(xs_d, ys_t))
    final = tuple(F(xs_d, ys_t))
    if final != ys_t:
        raise NotWellPosed("fixed-point iteration did not converge")
    return ys_t


def _is_nilpotent(matrix) -> bool:
    k = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    power = m
    for _ in range(k - 1):
        power = [
            [sum(power[i][h] * m[h][j] for h in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return all(v == 0 for row in power for v in row)


def mask(f: TruncSeries, predicate) -> TruncSeries:
    """Zero out every coefficient whose exponent fails ``predicate``."""
    return TruncSeries(
        f.dim, f.trunc, {n: c for n, c in f.coeffs.items() if predicate(n)}
    )

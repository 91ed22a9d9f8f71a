"""The benchmark's four workloads.

Each workload turns a seeded ``random.Random`` into plain-data inputs
(``generate``), builds library objects and queries from them (``build``),
and checks a query's answer against facts known apart from the code under
test (``check``).  Generation and building are the set-up; the queries run
in the timed section; checks run after it.

Answers are checked as follows.  An identity must come back ZERO or
INCONCLUSIVE.  A NONZERO verdict must carry the expected witness and
value, and the witness is evaluated again by plain semantics
(``wbpp.evaluate`` or ``cdf.coeff_table``).  Folded Lie coefficients are
compared with ``coeff_table``.  Species counts and command-line output are
compared with closed forms computed here.
"""

import itertools
import math
import os
import subprocess
import sys

import gen

MODELS = "models"

# Query schedule of one round of the equiv workload: (kind, shape label,
# queries per round).  Rounds are shuffled independently.  Each query draws
# its shape from the label's list.  The median falls among the sum_
# identities, whose shapes spread their costs over 3x: the median of many
# distinct costs moves less with the machine's speed than that of one.
CDF_SHAPES = {
    # label: [(axes, generators per axis, kernel term degrees, expression term degrees)]
    "heavy": [(1, 1, (2,), (2,))],
    "light": [(1, 2, (1, 1), (1, 1))],
    "small": [(1, 1, (2, 1), (1,))],
}
WBPP_SHAPES = {
    # label: [(nonterminals, letters, transition term degrees)]
    "light": [(2, 2, (1, 1))],
    "varied": [(2, 2, (1,)), (2, 2, (1, 1)), (2, 3, (1, 1)), (3, 2, (1, 1))],
}
EQUIV_ROUND = (
    ("cdf.add", "heavy", 3),
    ("cdf.add", "light", 2),
    ("cdf.mul", "small", 2),
    ("cdf.derive_scale", "light", 1),
    ("cdf.shift", "light", 1),
    ("wbpp.shuffle", "light", 3),
    ("wbpp.sum", "varied", 4),
    ("wbpp.shift", "light", 1),
)
EQUIV_ROUNDS = 40
EQUIV_CAPS = {"max_degree": 12, "max_basis": 48, "max_iterations": 3000}

# The census workload counts every bundled species model; the
# series-parallel model is the only large one.
# (model, sizes drawn from, counts per round).  The 90th percentile falls
# among the series-parallel counts.  The median falls among small counts
# whose sizes, and so costs, spread over a range: the median of many
# distinct costs moves less with the machine's speed than the median of
# one repeated cost.
CENSUS_COUNTS = (
    ("series_parallel", (10,), 2),
    ("bell", range(10, 21), 4),
    ("cayley", range(10, 17), 1),
    ("set", range(10, 21), 1),
    ("seq", range(10, 21), 1),
    ("pair", range(10, 17), 1),
)
CENSUS_ROUNDS = 30
# 2-sort species: (text, count at (n1, n2) as a function)
PAIR_SPECIES = {
    "SET(X1) * SEQ(X2)": lambda n1, n2: math.factorial(n2),
    "SEQ(X1) * SET(X2)": lambda n1, n2: math.factorial(n1),
    "SEQ(X1) * SEQ(X2)": lambda n1, n2: math.factorial(n1) * math.factorial(n2),
}
DIFFER_PAIRS = (("set", "seq"), ("bell", "set"), ("cayley", "seq"), ("seq_via_fix", "bell"))
SERIES_PARALLEL_PREFIX = (0, 1, 3, 19, 195, 2791, 51303)

# The lie workload: dense one-variable systems, each folded as often as it
# takes its predicted cost (gen.fold_costs) to reach LIE_COST[0]; systems
# that overshoot LIE_COST[1] there are redrawn, so query costs stay within 2x.
LIE_QUERIES = 160
LIE_GENERATORS = (5, 7)
LIE_KERNEL_TERMS = (3, 5)
LIE_MAX_DEGREE = 3
LIE_COST = (40000, 80000)
LIE_MAX_FOLDS = 8

CLI_ROUNDS = 20
# every bundled model; ``check`` runs over all of them in a seeded order
CHECK_MODELS = (
    "bell.spec", "cayley.cdf", "cayley.spec", "e2x_direct.cdf", "e2x_squared.cdf",
    "exp.cdf", "not_well_posed.spec", "running.bpp", "running.wbpp", "seq.spec",
    "seq_via_fix.spec", "series_parallel.spec", "set.spec", "sin.cdf", "sin2cos2.cdf",
    "sinh_closure.cdf", "sinh_restriction.cdf", "zero.wbpp",
)


class Query:
    __slots__ = ("key", "family", "run", "data")

    def __init__(self, key, family, run, data):
        self.key = key
        self.family = family
        self.run = run
        self.data = data


def _verdict_summary(v):
    return (v.outcome.name, v.witness, v.value, v.detail)


# Closed forms --------------------------------------------------------------------


def bell_numbers(n):
    row, out = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out


def species_counts(name, n):
    """Labelled structure counts of a bundled one-sort model at sizes 0..n;
    for series_parallel only the known prefix, which may be shorter."""
    if name == "bell":
        return bell_numbers(n)
    if name == "cayley":
        return [0] + [k ** (k - 1) for k in range(1, n + 1)]
    if name == "set":
        return [1] * (n + 1)
    if name in ("seq", "seq_via_fix"):
        return [math.factorial(k) for k in range(n + 1)]
    if name == "series_parallel":
        return list(SERIES_PARALLEL_PREFIX[: n + 1])
    raise KeyError(name)


def running_value(word):
    """Coefficient of models/running.wbpp at ``word``: S becomes X on the
    first a; then on X^k, a gives k X^(k+1) and b gives k X^(k-1); all
    outputs are 0, so only a configuration that reached X^0 counts."""
    if not word or word[0] != "a":
        return 0
    k, value = 1, 1
    for ch in word[1:]:
        value *= k
        k += 1 if ch == "a" else -1
    return value if k == 0 else 0


def running_last_coeff_line(length):
    """Last line of ``zeroness coeffs models/running.wbpp --max length``."""
    last = None
    for n in range(length + 1):
        words = [""]
        for _ in range(n):
            words = [w + ch for w in words for ch in "ab"]
        for w in sorted(words):
            v = running_value(w)
            if v:
                last = f"{w or 'eps'} {v}"
    return last


# Workloads ------------------------------------------------------------------------


class Workload:
    name = ""
    tail_percentile = 90.0

    def generate(self, rng):
        raise NotImplementedError

    def build(self, specs, tracing):
        raise NotImplementedError

    def check(self, query, result):
        """(correct, decided) for one answer."""
        raise NotImplementedError

    def summary(self, result):
        """A comparable digest of an answer, to check repeats against."""
        return _verdict_summary(result)


class Equiv(Workload):
    """Seeded closure identities on random CDF systems and processes."""

    name = "equiv"
    tail_percentile = 95.0

    def generate(self, rng):
        specs = []
        for _ in range(EQUIV_ROUNDS):
            items = [(kind, shape) for kind, shape, n in EQUIV_ROUND for _ in range(n)]
            rng.shuffle(items)
            for kind, shape in items:
                if kind.startswith("cdf."):
                    make, params = gen.cdf_blocks, rng.choice(CDF_SHAPES[shape])
                else:
                    make, params = gen.wbpp_shaped, rng.choice(WBPP_SHAPES[shape])
                spec = {"kind": kind, "shape": shape, "f": make(rng, *params)}
                if kind.endswith((".add", ".mul", ".shuffle", ".sum")):
                    spec["g"] = make(rng, *params)
                specs.append(spec)
        return specs

    def build(self, specs, tracing):
        from zeroness import cdf, wbpp
        from zeroness.groebner import GroebnerLimits

        limits = GroebnerLimits(**EQUIV_CAPS)
        queries = []
        for i, spec in enumerate(specs):
            kind = spec["kind"]
            family = f"{kind}/{spec['shape']}"
            if kind.startswith("cdf."):
                f = gen.build_cdf(spec["f"])
                g = gen.build_cdf(spec["g"]) if "g" in spec else None
                if kind == "cdf.add":
                    run = _identity(cdf, "c_add", f, g, limits)
                elif kind == "cdf.mul":
                    run = _identity(cdf, "c_mul", f, g, limits)
                elif kind == "cdf.derive_scale":
                    run = _derive_scale(cdf, f, limits)
                else:
                    g = cdf.CdfSeries(f.system, f.expr + 1)
                    run = _plain(cdf, f, g, limits)
            else:
                f = gen.build_wbpp(spec["f"])
                if kind == "wbpp.shift":
                    g = gen.build_wbpp(spec["f"], shift=1)
                    run = _plain(wbpp, f, g, limits)
                else:
                    g = gen.build_wbpp(spec["g"])
                    op = "shuffle" if kind == "wbpp.shuffle" else "sum_"
                    run = _identity(wbpp, op, f, g, limits)
            queries.append(Query(i, family, run, (kind, f, g)))
        return queries

    def check(self, query, v):
        from zeroness import cdf, wbpp

        kind, f, g = query.data
        name = v.outcome.name
        if not kind.endswith(".shift"):
            return name in ("ZERO", "INCONCLUSIVE_RESOURCE_LIMIT"), name == "ZERO"
        if name != "NONZERO" or v.value != -1:
            return False, name != "INCONCLUSIVE_RESOURCE_LIMIT"
        # the difference f - (f + 1) is -1 at the empty word / the origin;
        # evaluate both sides at the witness by plain semantics
        if kind == "wbpp.shift":
            ok = v.witness == "" and (
                wbpp.evaluate(f, f.start, v.witness) - wbpp.evaluate(g, g.start, v.witness)
                == v.value
            )
        else:
            w = tuple(v.witness)
            n = sum(w)
            ok = w == (0,) * f.dim and (
                cdf.coeff_table(f, n)[w] - cdf.coeff_table(g, n)[w] == v.value
            )
        return ok, True


# Queries look functions up on their module when they run, so that the
# tracer's wrappers are seen while it is installed and only then.


def _identity(mod, op, f, g, limits):
    def run():
        closure = getattr(mod, op)
        return mod.equivalent(closure(f, g), closure(g, f), limits=limits)

    return run


def _plain(mod, f, g, limits):
    return lambda: mod.equivalent(f, g, limits=limits)


def _derive_scale(cdf, f, limits):
    return lambda: cdf.equivalent(
        cdf.c_derive(cdf.c_scale(f, 3), 1), cdf.c_scale(cdf.c_derive(f, 1), 3), limits=limits
    )


class Census(Workload):
    """Species counting over the bundled models plus a 2-sort product, and
    equipotence of one equal and one differing pair."""

    name = "census"
    tail_percentile = 90.0

    def generate(self, rng):
        pair = rng.choice(sorted(PAIR_SPECIES))
        specs = {"pair": pair, "queries": []}
        for _ in range(CENSUS_ROUNDS):
            items = [["count", name, rng.choice(sizes)] for name, sizes, n in CENSUS_COUNTS
                     for _ in range(n)]
            items.append(["equipotent", "seq", "seq_via_fix"])
            items.append(["equipotent", *rng.choice(DIFFER_PAIRS)])
            rng.shuffle(items)
            specs["queries"].extend(items)
        return specs

    def build(self, specs, tracing):
        from zeroness import formats, species

        models = {}
        names = {q[1] for q in specs["queries"]} | {q[2] for q in specs["queries"]
                                                   if q[0] == "equipotent"}
        for name in sorted(names - {"pair"}):
            _, (_, expr, sorts), _ = formats.load_model(os.path.join(MODELS, f"{name}.spec"))
            models[name] = (expr, sorts)
        _, expr, sorts = formats.parse_spec(f"sorts 2\nspecies Pair {{ {specs['pair']} }}\n")
        models["pair"] = (expr, sorts)
        for expr, sorts in models.values():
            species.compile_species(expr, sorts)
        queries = []
        for i, q in enumerate(specs["queries"]):
            if q[0] == "count":
                expr, sorts = models[q[1]]
                run = _count(species, expr, sorts, q[2])
            else:
                (e1, _), (e2, _) = models[q[1]], models[q[2]]
                run = _equipotent(species, e1, e2)
            queries.append(Query(i, f"{q[0]}/{q[1]}", run, (q, specs["pair"])))
        return queries

    def summary(self, result):
        if hasattr(result, "outcome"):
            return _verdict_summary(result)
        return tuple(sorted(result.table.coeffs.items()))

    def check(self, query, result):
        q, pair = query.data
        if q[0] == "count":
            n = q[2]
            if q[1] == "pair":
                count = PAIR_SPECIES[pair]
                ok = all(
                    result.count((a, b)) == count(a, b)
                    for a in range(n + 1) for b in range(n + 1 - a)
                )
            else:
                got = result.univariate_list()
                want = species_counts(q[1], n)
                ok = len(got) == n + 1 and got[: len(want)] == want
            return ok, True
        a, b = q[1], q[2]
        ca, cb = species_counts(a, 8), species_counts(b, 8)
        diff = next((k for k in range(9) if ca[k] != cb[k]), None)
        if diff is None:
            return result.is_zero, not result.is_inconclusive
        ok = (
            result.is_nonzero
            and tuple(result.witness) == (diff,)
            and result.value == ca[diff] - cb[diff]
        )
        return ok, not result.is_inconclusive


def _count(species, expr, sorts, n):
    return lambda: species.count_table(expr, sorts, n)


def _equipotent(species, e1, e2):
    return lambda: species.equipotent(e1, e2, 1)


class Lie(Workload):
    """Folded Lie derivatives of dense random systems, large polynomials."""

    name = "lie"
    tail_percentile = 95.0

    def generate(self, rng):
        specs = []
        while len(specs) < LIE_QUERIES:
            system = gen.cdf_dense(
                rng, rng.randint(*LIE_GENERATORS), rng.randint(*LIE_KERNEL_TERMS),
                LIE_MAX_DEGREE,
            )
            costs = gen.fold_costs(system, LIE_MAX_FOLDS, LIE_COST[1])
            n = next((i + 1 for i, c in enumerate(costs) if c >= LIE_COST[0]), None)
            if n is not None and costs[n - 1] <= LIE_COST[1]:
                specs.append({"system": system, "exponent": n})
        return specs

    def build(self, specs, tracing):
        from zeroness import cdf

        queries = []
        for i, spec in enumerate(specs):
            s = gen.build_cdf(spec["system"])
            n = spec["exponent"]
            queries.append(Query(i, f"lie/n={n}", _lie(cdf, s, n), (s, n)))
        return queries

    def summary(self, result):
        return result

    def check(self, query, value):
        from zeroness import cdf

        s, n = query.data
        return cdf.coeff_table(s, n)[(n,)] == value, True


def _lie(cdf, s, n):
    return lambda: cdf.coeff_via_lie(s, (n,))


class Cli(Workload):
    """One ``python -m zeroness.cli`` process per command over models/."""

    name = "cli"
    tail_percentile = 75.0

    def generate(self, rng):
        specs = []
        for _ in range(CLI_ROUNDS):
            items = [_zero_cmd(rng), _zero_cmd(rng), _equiv_cmd(rng), _equipotent_cmd(rng),
                     _coeffs_cmd(rng), _eval_cmd(rng), _check_cmd(rng, 1), _check_cmd(rng, 2),
                     _check_cmd(rng, rng.choice((1, 2)))]
            rng.shuffle(items)
            specs.extend(items)
        return specs

    def build(self, specs, tracing):
        import zeroness.cli  # noqa: F401  (the import a user pays for)
        from zeroness import formats

        for path in sorted({a for s in specs for a in s["argv"] if a.startswith(MODELS)}):
            formats.load_model(path)
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        runs = itertools.count()  # traced commands write their spans to cli-<n>
        return [
            Query(i, s["sub"], _command(s["argv"], env, tracing, runs), s)
            for i, s in enumerate(specs)
        ]

    def summary(self, result):
        return result

    def check(self, query, result):
        code, last = result
        want_code, want_last, prefix = query.data["expect"]
        ok = code == want_code and (
            last.startswith(want_last) if prefix else last == want_last
        )
        return ok, code != 4


def _command(argv, env, tracing, runs):
    def run():
        if tracing is None:
            cmd = [sys.executable, "-m", "zeroness.cli", *argv]
        else:
            out = os.path.join(tracing, f"cli-{next(runs)}")
            cmd = [sys.executable, os.path.join("bench", "clichild.py"), out, *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
        lines = proc.stdout.splitlines()
        return proc.returncode, lines[-1] if lines else ""

    return run


def _model(name):
    return os.path.join(MODELS, name)


def _zero_cmd(rng):
    path, code, last = rng.choice((
        ("running.wbpp", 1, "NONZERO (witness ab, value 1)"),
        ("sin.cdf", 1, "NONZERO (witness x1, value 1)"),
        ("sin2cos2.cdf", 0, "ZERO (chain length 0)"),
        ("zero.wbpp", 0, "ZERO (chain length 0)"),
    ))
    return {"sub": "zero", "argv": ["zero", _model(path)], "expect": [code, last, False]}


def _equiv_cmd(rng):
    a, b, code, last, prefix = rng.choice((
        ("sinh_restriction.cdf", "sinh_closure.cdf", 0, "EQUIVALENT (chain length 1)", False),
        ("e2x_direct.cdf", "e2x_squared.cdf", 0, "EQUIVALENT", True),
        ("running.wbpp", "running.wbpp", 0, "EQUIVALENT", True),
        # sin - exp is -1 at the origin
        ("sin.cdf", "exp.cdf", 1, "DIFFER (witness 1, value -1)", False),
    ))
    return {"sub": "equiv", "argv": ["equiv", _model(a), _model(b)],
            "expect": [code, last, prefix]}


def _equipotent_cmd(rng):
    a, b, code, last = rng.choice((
        ("seq.spec", "seq_via_fix.spec", 0, "EQUIVALENT (chain length 2)"),
        # one set structure against two sequences on two labels
        ("set.spec", "seq.spec", 1, "DIFFER (witness x1^2, value -1)"),
    ))
    return {"sub": "equipotent", "argv": ["equipotent", _model(a), _model(b)],
            "expect": [code, last, False]}


def _coeffs_cmd(rng):
    name = rng.choice(("cayley", "bell", "seq", "running"))
    n = rng.randint(4, 8)
    if name == "running":
        path, last = "running.wbpp", running_last_coeff_line(n)
    else:
        path, last = f"{name}.spec", f"x1^{n} {species_counts(name, n)[n]}"
    return {"sub": "coeffs", "argv": ["coeffs", _model(path), "--max", str(n)],
            "expect": [0, last, False]}


def _eval_cmd(rng):
    word = "a" + "".join(rng.choice("ab") for _ in range(rng.randint(1, 7)))
    return {"sub": "eval", "argv": ["eval", _model("running.wbpp"), "--word", word],
            "expect": [0, str(running_value(word)), False]}


def _check_cmd(rng, jobs):
    files = list(CHECK_MODELS)
    rng.shuffle(files)
    bad = "not_well_posed.spec"
    last = "  FAIL" if files and files[-1] == bad else "  OK"
    return {"sub": f"check_jobs{jobs}",
            "argv": ["check", *[_model(f) for f in files], "--jobs", str(jobs)],
            "expect": [3 if bad in files else 0, last, False]}


WORKLOADS = {w.name: w for w in (Equiv(), Census(), Lie(), Cli())}

"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``zeroness`` modules.  A wrapped
function is replaced wherever callers look it up: under every name bound
to it in every loaded ``zeroness`` module (``_saturation`` imports
``extend`` and ``buchberger`` by name, ``cdf`` and ``wbpp`` import
``saturate`` by name), and for methods in the class that defines them.

Each call records a span: layer, start, end, the enclosing span and the
query it ran for.  Spans are kept in flat arrays and written out once, at
the end.  Every span is closed in ``finally``, because an inconclusive
saturation leaves ``extend`` by raising ``ResourceLimitExceeded``.

A layer's time counts only its outermost spans, so a layer that calls
itself is not counted twice; its self time is the span time minus the time
of the direct child spans.  Totals are kept apart for the set-up (query id
-1) and for the queries; work counts are taken during queries only.
"""

import gzip
import re
import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

_CAP = re.compile(r"resource cap '(\w+)'")


def cap_hit(verdict):
    """The cap an inconclusive verdict hit, from its detail text;
    SaturationStats reports -1 for these verdicts."""
    m = _CAP.search(verdict.detail or "")
    return m.group(1) if m else "unknown"


# Observers: count work at the layer boundary --------------------------------------


def _obs_extend(c, args, result, err):
    if err is not None:
        c["groebner.extend_raised"] += 1
        return
    c["groebner.extend_returned"] += 1
    if result is args[0]:
        c["groebner.extend_member"] += 1
    _maximum(c, "groebner.basis_size_max", len(result))


def _obs_buchberger(c, args, result, err):
    if err is None:
        _maximum(c, "groebner.basis_size_max", len(result))


def _obs_saturate(c, args, result, err):
    if err is not None:
        return
    name = result.outcome.name
    if name == "ZERO":
        c["saturation.outcome_zero"] += 1
    elif name == "NONZERO":
        c["saturation.outcome_nonzero"] += 1
    else:
        c["saturation.outcome_inconclusive"] += 1
        c[f"saturation.inconclusive_{cap_hit(result)}"] += 1
        return
    stats = result.stats
    if stats is not None and stats.chain_length >= 0:
        _maximum(c, "saturation.chain_length_max", stats.chain_length)


def _obs_derive(c, args, result, err):
    if err is None:
        n = len(result.terms)
        c["poly.derive_out_terms"] += n
        _maximum(c, "poly.derive_out_terms_max", n)


def _obs_tables(c, args, result, err):
    if err is None:
        c["cdf.table_coeffs"] += sum(len(t.coeffs) for t in result)


def _obs_prune(c, args, result, err):
    if err is None:
        c["cdf.prune_kept"] += result.system.order
        c["cdf.prune_input"] += args[0].system.order


def _obs_compile(c, args, result, err):
    if err is None:
        c["species.compiled_order_sum"] += result.system.order


def _maximum(c, key, value):
    if value > c[key]:
        c[key] = value


# (layer, [(module, qualified name)], observer).  A function is named once,
# in the module that defines it; the tracer finds every other binding.
LAYERS = (
    ("groebner.extend", [("zeroness.groebner", "extend")], _obs_extend),
    ("groebner.buchberger", [("zeroness.groebner", "buchberger")], _obs_buchberger),
    ("saturation.saturate", [("zeroness._saturation", "saturate")], _obs_saturate),
    ("poly.derive", [("zeroness.poly", "Derivation.__call__")], _obs_derive),
    ("poly.eval", [("zeroness.poly", "Poly.eval")], None),
    ("cdf.tables", [("zeroness.cdf", "generator_tables")], _obs_tables),
    ("cdf.lie", [("zeroness.cdf", "coeff_via_lie")], None),
    ("cdf.prune", [("zeroness.cdf", "prune")], _obs_prune),
    ("series.mul", [("zeroness.series", "TruncSeries.__mul__")], None),
    ("species.compile", [("zeroness.species", "compile_species")], _obs_compile),
    (
        "wbpp.construct",
        [
            ("zeroness.wbpp", "shuffle"),
            ("zeroness.wbpp", "sum_"),
            ("zeroness.wbpp", "disjoint_union"),
        ],
        None,
    ),
    ("wbpp.equivalent", [("zeroness.wbpp", "equivalent")], None),
    (
        "formats.parse",
        [
            ("zeroness.formats", "parse_wbpp"),
            ("zeroness.formats", "parse_bpp"),
            ("zeroness.formats", "parse_cdf"),
            ("zeroness.formats", "parse_spec"),
        ],
        None,
    ),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


class Tracer:
    """Records spans of wrapped library functions while installed."""

    def __init__(self):
        n = len(LAYERS)
        # one entry per span, indexed by span id
        self.parent = array("l")
        self.query = array("l")
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = []  # [span id, layer, start, time of direct children]
        self._open_depth = [0] * n
        # index 0: set-up, index 1: queries
        self.total = ([0.0] * n, [0.0] * n)
        self.self_time = ([0.0] * n, [0.0] * n)
        self.calls = ([0] * n, [0] * n)
        self.counts = defaultdict(int)
        self.query_id = -1  # -1 while setting up
        self.missing = []
        self._patched = []  # (owner, attribute, original)

    # Spans -----------------------------------------------------------------

    def _open(self, lid):
        sid = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.query.append(self.query_id)
        self.layer.append(lid)
        self.end.append(0.0)
        self.raised.append(0)
        self._open_depth[lid] += 1
        t0 = perf_counter()
        self.start.append(t0)
        self._stack.append([sid, lid, t0, 0.0])
        return sid

    def _close(self, sid, lid, raised):
        t1 = perf_counter()
        entry = self._stack.pop()
        dur = t1 - entry[2]
        if self._stack:
            self._stack[-1][3] += dur
        self._open_depth[lid] -= 1
        phase = self.query[sid] >= 0
        if self._open_depth[lid] == 0:
            self.total[phase][lid] += dur
        self.self_time[phase][lid] += dur - entry[3]
        self.calls[phase][lid] += 1
        self.end[sid] = t1
        self.raised[sid] = raised
        return phase

    def _wrap(self, lid, fn, observe):
        tracer = self
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(lid)
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                if tracer._close(sid, lid, err is not None) and observe is not None:
                    observe(counts, args, result, err)

        return traced

    # Installation ------------------------------------------------------------

    def install(self):
        """Wrap every target.  The library's modules must be imported."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "zeroness" or name.startswith("zeroness."))
        ]
        for lid, (_, targets, observe) in enumerate(LAYERS):
            for modname, qualname in targets:
                cls_name, _, attr = qualname.rpartition(".")
                scope = sys.modules.get(modname)
                if cls_name:
                    scope = getattr(scope, cls_name, None)
                original = vars(scope).get(attr) if scope is not None else None
                if original is None:
                    self.missing.append(f"{modname}.{qualname}")
                    continue
                wrapper = self._wrap(lid, original, observe)
                # a method is replaced in its class (aliases such as
                # ``__rmul__ = __mul__`` included), a function under every
                # name bound to it in any zeroness module
                for ns in [scope] if cls_name else modules:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # Output --------------------------------------------------------------------

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tquery\tlayer\tstart\tend\traised\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.query[sid]}\t"
                    f"{LAYER_NAMES[self.layer[sid]]}\t{self.start[sid]!r}\t"
                    f"{self.end[sid]!r}\t{self.raised[sid]}\n"
                )

    def summary(self):
        """Plain-data totals, so that summaries from child processes add up."""
        return {
            "setup_total": dict(zip(LAYER_NAMES, self.total[0])),
            "total": dict(zip(LAYER_NAMES, self.total[1])),
            "self": dict(zip(LAYER_NAMES, self.self_time[1])),
            "calls": dict(zip(LAYER_NAMES, self.calls[1])),
            "counts": dict(self.counts),
            "spans": len(self.start),
            "missing": list(self.missing),
        }


_SUMMED = ("setup_total", "total", "self", "calls")


def merge_summaries(summaries):
    out = {key: defaultdict(float) for key in _SUMMED}
    out.update(counts=defaultdict(int), spans=0, missing=set())
    for s in summaries:
        for key in _SUMMED:
            for name, v in s[key].items():
                out[key][name] += v
        for name, v in s["counts"].items():
            if name.endswith("_max"):
                out["counts"][name] = max(out["counts"][name], v)
            else:
                out["counts"][name] += v
        out["spans"] += s["spans"]
        out["missing"].update(s["missing"])
    out["missing"] = sorted(out["missing"])
    return out


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, queries):
    """The per-layer metrics, as name -> (value, unit).

    Times and work counts are per query of the timed section, so that a
    faster commit, which runs more queries, is compared per unit of work.
    Maxima and shares are over the timed section; ``*_setup_s`` is the time
    of one traced set-up.
    """
    t, s, n, c = summary["total"], summary["self"], summary["calls"], summary["counts"]
    setup = summary["setup_total"]

    def per(x):
        return x / queries

    return {
        "groebner.extend_s": (per(t["groebner.extend"]), "s/query"),
        "groebner.extend_calls": (per(n["groebner.extend"]), "1/query"),
        "groebner.extend_member_share": (
            _share(c["groebner.extend_member"], c["groebner.extend_returned"]), "share"),
        "groebner.extend_raised": (per(c["groebner.extend_raised"]), "1/query"),
        "groebner.basis_size_max": (c["groebner.basis_size_max"], "count"),
        "groebner.buchberger_s": (per(t["groebner.buchberger"]), "s/query"),
        "saturation.saturate_s": (per(t["saturation.saturate"]), "s/query"),
        "saturation.self_s": (per(s["saturation.saturate"]), "s/query"),
        "saturation.chain_length_max": (c["saturation.chain_length_max"], "count"),
        "saturation.outcome_zero": (per(c["saturation.outcome_zero"]), "1/query"),
        "saturation.outcome_nonzero": (per(c["saturation.outcome_nonzero"]), "1/query"),
        "saturation.outcome_inconclusive": (
            per(c["saturation.outcome_inconclusive"]), "1/query"),
        "saturation.inconclusive_max_iterations": (
            per(c["saturation.inconclusive_max_iterations"]), "1/query"),
        "saturation.inconclusive_max_degree": (
            per(c["saturation.inconclusive_max_degree"]), "1/query"),
        "saturation.inconclusive_max_basis": (
            per(c["saturation.inconclusive_max_basis"]), "1/query"),
        "poly.derive_s": (per(t["poly.derive"]), "s/query"),
        "poly.derive_calls": (per(n["poly.derive"]), "1/query"),
        "poly.derive_out_terms": (per(c["poly.derive_out_terms"]), "1/query"),
        "poly.derive_out_terms_max": (c["poly.derive_out_terms_max"], "count"),
        "poly.eval_s": (per(t["poly.eval"]), "s/query"),
        "poly.eval_calls": (per(n["poly.eval"]), "1/query"),
        "cdf.tables_s": (per(t["cdf.tables"]), "s/query"),
        "cdf.table_coeffs": (per(c["cdf.table_coeffs"]), "1/query"),
        "cdf.lie_s": (per(t["cdf.lie"]), "s/query"),
        "cdf.prune_s": (per(t["cdf.prune"]), "s/query"),
        "cdf.prune_kept_share": (_share(c["cdf.prune_kept"], c["cdf.prune_input"]), "share"),
        "series.mul_s": (per(t["series.mul"]), "s/query"),
        "series.mul_calls": (per(n["series.mul"]), "1/query"),
        "species.compile_s": (per(t["species.compile"]), "s/query"),
        "species.compile_setup_s": (setup["species.compile"], "s"),
        "species.compiled_order": (
            _share(c["species.compiled_order_sum"], n["species.compile"]), "count"),
        "wbpp.construct_s": (per(t["wbpp.construct"]), "s/query"),
        "wbpp.equivalent_s": (per(t["wbpp.equivalent"]), "s/query"),
        "formats.parse_s": (per(t["formats.parse"]), "s/query"),
        "formats.parse_setup_s": (setup["formats.parse"], "s"),
        "formats.parse_calls": (per(n["formats.parse"]), "1/query"),
        "trace.spans": (summary["spans"], "count"),
    }

"""A ledger of the benchmark's answers, to show that a change keeps them.

Usage, from the root of a checkout:

    python3 tools/answers.py record --workload {equiv,census,lie,cli} --seed N \\
        [--out FILE]
    python3 tools/answers.py compare A B

``record`` builds the queries of one workload of ``bench/workloads.py``
from the seed, as ``bench/run.py`` does, and runs each distinct query once,
untimed.  It writes one JSON line per query: its key and family, the
verdict part of its answer (outcome, witness and value, or the whole
answer where it is not a verdict), the stats part (a verdict's stats and
detail), and the workload's own check of it.  The first line holds the
workload, the seed and the inputs' SHA-256.  It prints one SHA-256 per
part, over every query's part in order.

``compare`` reads two such files of the same inputs, A the reference, and
counts per family the answers that are identical, that differ in their
stats only, that went from INCONCLUSIVE to decided or back, and that are
wrong: B fails the workload's check, or both sides decided and their
verdict parts differ.  It exits 1 when an answer is wrong, 2 when the
files do not hold the same queries, and 0 otherwise.
"""

import argparse
import hashlib
import json
import os
import random
import sys
from enum import Enum
from fractions import Fraction

PARTS = ("verdict", "stats")
KINDS = ("identical", "stats only", "INCONCLUSIVE->decided", "decided->INCONCLUSIVE", "wrong")


def plain(x):
    """``x`` as JSON data: a rational as its string, an enum by name, a
    tuple as a list and a dict as its sorted items."""
    if isinstance(x, Enum):
        return x.name
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return [plain(item) for item in sorted(x.items())]
    if isinstance(x, (tuple, list)):
        return [plain(y) for y in x]
    return x


def split(workload, answer):
    """``(verdict part, stats part)`` of one answer."""
    if isinstance(answer, Exception):
        return ["raised", type(answer).__name__, str(answer)], None
    if hasattr(answer, "outcome"):
        stats = answer.stats
        stats = None if stats is None else [stats.chain_length, stats.basis_size, stats.max_degree]
        return plain([answer.outcome, answer.witness, answer.value]), [stats, answer.detail]
    return plain(workload.summary(answer)), None


def digests(rows) -> dict:
    """One SHA-256 per part, over each row's key and part, in order."""
    out = {}
    for part in PARTS:
        h = hashlib.sha256()
        for row in rows:
            h.update(json.dumps([row["key"], row[part]], separators=(",", ":")).encode())
            h.update(b"\n")
        out[part] = h.hexdigest()
    return out


def record(args):
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("bench")]
    import gen
    from workloads import WORKLOADS

    import zeroness

    if not os.path.abspath(zeroness.__file__).startswith(os.path.abspath("src") + os.sep):
        raise SystemExit(f"error: zeroness was imported from {zeroness.__file__}, not ./src")
    workload = WORKLOADS[args.workload]
    specs = workload.generate(random.Random(args.seed))
    queries = workload.build(specs, None)
    rows = []
    for q in queries:
        try:
            answer = q.run()
        except Exception as exc:  # a raising query is an answer to compare
            answer = exc
        verdict, stats = split(workload, answer)
        try:
            ok, decided = (False, False) if isinstance(answer, Exception) else workload.check(q, answer)
        except Exception:
            ok, decided = False, False
        rows.append({"key": q.key, "family": q.family, "verdict": verdict, "stats": stats,
                     "ok": ok, "decided": decided})
    out = args.out or f"answers-{args.workload}-seed{args.seed}.jsonl"
    head = {"workload": args.workload, "seed": args.seed, "inputs_digest": gen.digest(specs),
            "queries": len(rows)}
    with open(out, "w", encoding="utf-8") as fh:
        for row in [head, *rows]:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{out}: {len(rows)} answers of {args.workload} seed {args.seed}")
    for part, h in digests(rows).items():
        print(f"{part} sha256 {h}")
    return 0


def load(path):
    with open(path, encoding="utf-8") as fh:
        head, *rows = [json.loads(line) for line in fh]
    return head, rows


def kind(a, b) -> str:
    """How answer ``b`` stands against the reference answer ``a``."""
    if not b["ok"] or (a["decided"] and b["decided"] and a["verdict"] != b["verdict"]):
        return "wrong"
    if a["decided"] != b["decided"]:
        return "INCONCLUSIVE->decided" if b["decided"] else "decided->INCONCLUSIVE"
    if a["verdict"] != b["verdict"] or a["stats"] != b["stats"]:
        return "stats only"
    return "identical"


def compare(args):
    (head_a, rows_a), (head_b, rows_b) = load(args.a), load(args.b)
    same = ("workload", "seed", "inputs_digest")
    if [head_a[k] for k in same] != [head_b[k] for k in same] or (
        [r["key"] for r in rows_a] != [r["key"] for r in rows_b]
    ):
        print("error: the two files do not hold the same queries", file=sys.stderr)
        return 2
    table = {}
    for a, b in zip(rows_a, rows_b):
        counts = table.setdefault(a["family"], dict.fromkeys(KINDS, 0))
        counts[kind(a, b)] += 1
    table["total"] = {k: sum(c[k] for c in table.values()) for k in KINDS}
    width = max(map(len, table))
    print(f"{head_a['workload']} seed {head_a['seed']}, inputs {head_a['inputs_digest'][:16]}")
    print(" ".ljust(width), *KINDS, sep="  ")
    for family, counts in table.items():
        print(family.ljust(width), *(str(counts[k]).rjust(len(k)) for k in KINDS), sep="  ")
    for name, rows in ((args.a, rows_a), (args.b, rows_b)):
        print(name, *(f"{part} sha256 {h}" for part, h in digests(rows).items()), sep="\n  ")
    return 1 if table["total"]["wrong"] else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run each distinct query once and write its answer")
    rec.add_argument("--workload", required=True, choices=("equiv", "census", "lie", "cli"))
    rec.add_argument("--seed", type=int, required=True)
    rec.add_argument("--out", help="output file (default answers-WORKLOAD-seedN.jsonl)")
    cmp = sub.add_parser("compare", help="count how the answers of B stand against those of A")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record" and not (
        os.path.isfile(os.path.join("src", "zeroness", "__init__.py"))
        and os.path.isfile(os.path.join("bench", "workloads.py"))
    ):
        print("error: run from the root of a zeroness checkout "
              "(src/zeroness and bench/ not found)", file=sys.stderr)
        return 2
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())

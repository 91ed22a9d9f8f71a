"""The answer ledger (``tools/answers.py``): a recorded run compares as
identical with itself, and a changed answer is counted by kind."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "answers.py"


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True
    )


def rewrite(src, dst, change):
    head, *rows = [json.loads(line) for line in src.read_text().splitlines()]
    change(rows)
    dst.write_text("".join(json.dumps(r) + "\n" for r in [head, *rows]))


def total(out):
    line = next(x for x in out.splitlines() if x.startswith("total"))
    return [int(n) for n in line.split()[1:]]


def test_a_ledger_matches_itself_and_counts_changed_answers(tmp_path):
    ledger = tmp_path / "a.jsonl"
    rec = run("record", "--workload", "equiv", "--seed", "1", "--out", str(ledger))
    assert rec.returncode == 0, rec.stderr
    assert [line.split()[:2] for line in rec.stdout.splitlines()[1:]] == [
        ["verdict", "sha256"], ["stats", "sha256"]
    ]
    same = run("compare", str(ledger), str(ledger))
    assert same.returncode == 0
    n = json.loads(ledger.read_text().splitlines()[0])["queries"]
    assert total(same.stdout) == [n, 0, 0, 0, 0]

    def perturb(rows):
        zero, decided = [r for r in rows if r["verdict"][0] == "ZERO"][:2]
        undecided = next(r for r in rows if not r["decided"])
        wrong = next(r for r in rows if r["verdict"][0] == "NONZERO")
        zero["stats"][0][0] += 1  # a longer chain, same verdict
        decided.update(decided=False)
        undecided.update(decided=True, verdict=["ZERO", None, None])
        wrong["verdict"][2] = "7"

    changed = tmp_path / "b.jsonl"
    rewrite(ledger, changed, perturb)
    diff = run("compare", str(ledger), str(changed))
    assert diff.returncode == 1
    assert total(diff.stdout) == [n - 4, 1, 1, 1, 1]

    other = tmp_path / "c.jsonl"
    rewrite(ledger, other, lambda rows: rows.pop())
    assert run("compare", str(ledger), str(other)).returncode == 2

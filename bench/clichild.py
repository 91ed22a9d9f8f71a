"""Run one ``zeroness`` command with the tracer installed.

Usage: ``python bench/clichild.py OUT ARG...`` runs ``zeroness ARG...`` and
writes the span summary to ``OUT.json`` and the spans to ``OUT.tsv.gz``.
The cli workload's traced run starts one of these per command; standard
output and the exit code are those of the command itself.
"""

import json
import sys

import spans


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    import zeroness.cli  # loads every module a command can reach

    tracer = spans.Tracer()
    tracer.query_id = 0  # the whole command is one query
    tracer.install()
    try:
        code = zeroness.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(out + ".tsv.gz")
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

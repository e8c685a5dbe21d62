"""Record the default-seed reference answers into bench/reference.json.

    python3 bench/record_reference.py

Runs every query of every workload's default-seed pool once and stores the
part of each answer that a correct solver cannot change (decisions and
values; see checks.answer_key), keyed by a digest of the command line and
input file contents.  Run it only when the program's answers are meant to
change; the benchmark compares its answers against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import inputs
import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    cli = run.import_cli()
    answers = {}
    for workload in inputs.WORKLOADS:
        workdir = os.path.join(run.WORK, f"reference-{workload}-p{os.getpid()}")
        try:
            pool = inputs.build(workload, inputs.DEFAULT_SEED, workdir)
            results = []
            run.run_queries(cli, [q for rnd in pool for q in rnd], results)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table = answers[workload] = {}
        for q, code, out, _ in results:
            why = checks.check(q, code, out, {})
            if why:
                print(f"{workload} {q.qid}: {why}", file=sys.stderr)
                return 1
            table[q.digest] = checks.answer_key(q.kind, json.loads(out))
        print(f"{workload}: {len(table)} answers")
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": inputs.DEFAULT_SEED, "answers": answers}, fh,
                  sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

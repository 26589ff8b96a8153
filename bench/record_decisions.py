"""Record the decision table that the answer checks compare against.

    python3 bench/record_decisions.py --seeds 1 2 3

Run from the repository root.  Runs one untraced pass of every workload
per seed, with the benchmark's per-query limit, and writes label -> answer
to bench/decisions.json; a query that failed (it raised, exited 2 or ran
past the limit) is recorded as "failed", which no answer flips.  A label that
answers differently under two seeds is an error: labels must name input
classes whose answer does not depend on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import check
    import workloads
    from nilgrade import cli

    run.install_timeout(root / "src")
    runner = run.Runner(cli, run.QUERY_LIMIT_S)
    table: dict[str, str] = {}
    clashes = []
    for name, build in workloads.WORKLOADS.items():
        for seed in args.seeds:
            work = workloads.WorkDir(root / ".bench_work" / f"record-{name}-{seed}-{os.getpid()}")
            try:
                queries = build(seed, work, root)
                _, outcomes = runner.run_pass(queries)
            finally:
                shutil.rmtree(work.root, ignore_errors=True)
            for q, outcome in zip(queries, outcomes):
                if outcome.status == "ok":
                    seen = check.answer(q.argv, json.loads(outcome.stdout))
                else:
                    print(f"{name} seed {seed}: {q.label}: {outcome.status}", file=sys.stderr)
                    seen = "failed"
                if table.setdefault(q.label, seen) != seen:
                    clashes.append(f"{q.label}: {table[q.label]} vs {seen} (seed {seed})")
    if clashes:
        print("\n".join(clashes), file=sys.stderr)
        return 1
    check.DECISIONS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"wrote {len(table)} decisions to {check.DECISIONS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

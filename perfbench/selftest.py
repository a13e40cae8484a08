"""Harness self-test: the same seed must give the same counts and answers.

    python3 perfbench/selftest.py

Runs every workload twice with ``--trace 1`` and seed ``SEED`` in separate
processes and requires the layer counts (kernel rows, components calls,
factor calls, IRLS iterations and cap hits, stream file passes ...) and the
answer fingerprints (final loss and mean error per solve) of the two runs
to be identical, and both runs to pass their own checks. Takes a few
minutes.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from compare import differences
from run import RESULTS, ROOT, WORKLOAD_NAMES

SEED = 0


def run_once(workload: str, seed: int, out: Path) -> dict:
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", "1", "--out", str(out)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main() -> int:
    RESULTS.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in WORKLOAD_NAMES:
        first, second = (run_once(workload, SEED,
                                  RESULTS / f"selftest-{workload}-{k}.json")
                         for k in (1, 2))
        problems = [f"run {k} failed its checks" for k, rec in ((1, first), (2, second))
                    if not rec["result"]["correct"]]
        if not first["counts"]:
            problems.append("no layer counts recorded")
        for section in ("counts", "fingerprint"):
            problems += [f"{section} {key}: {a!r} != {b!r}"
                         for key, a, b in differences(first[section], second[section])]
        print(f"{'PASS' if not problems else 'FAIL'} {workload} seed {SEED}: "
              f"{len(first['counts'])} counts, fingerprint "
              f"{json.dumps(first['fingerprint'], sort_keys=True)}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

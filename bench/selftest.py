"""Self-test of the benchmark, in seconds.

    python3 bench/selftest.py

1. Smoke: every workload at tiny sizes, one round, all checks on, both
   untraced and traced; each must report 0 failed operations and exit 0.
2. Negative test: with ``--corrupt`` the expected value of the first
   operation is falsified; each workload must report exactly that
   operation as failed, ``correct`` false, and exit 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("frontend", "lfp-read", "lfp-write", "audit")


def _run(*args) -> tuple[int, dict]:
    p = subprocess.run([sys.executable, str(RUN), "--smoke", *args],
                       capture_output=True, text=True, timeout=300)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        for trace in ("0", "1"):
            code, r = _run("--workload", w, "--trace", trace)
            if code != 0 or not r["correct"] or r["failed"] or not r["metrics"]:
                problems.append(f"{w} smoke (trace {trace}): exit {code}, {r}")
        code, r = _run("--workload", w, "--corrupt")
        if code != 1 or r["correct"] or r["failed"] != 1:
            problems.append(f"{w} negative test: exit {code}, {r}")
        print(f"{w}: {'FAIL' if len(problems) > before else 'ok'}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

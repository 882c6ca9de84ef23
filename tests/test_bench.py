"""The benchmark's self-test runs against the current sources: every
workload checks run_lfp, the store and the audit against plain-Python
references, so a change under src/ that breaks the benchmark fails here."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest(tmp_path):
    # The benchmark writes its spans to .bench_out/ under its working directory.
    done = subprocess.run([sys.executable, str(SELFTEST)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr

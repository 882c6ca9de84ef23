"""Runs one workload: repeated set-up, whole rounds of its fixed operation
list, checks, and the end-to-end or per-layer metrics.  Plain Python: mfx is
reached only through the workload modules, which are re-imported (with mfx)
on every set-up repetition so that set-up time includes the import.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import tracing

SETUP_REPS = 5
WORKLOADS = {"frontend": "frontend", "lfp-read": "lfp_read",
             "lfp-write": "lfp_write", "audit": "audit"}


@dataclass
class Op:
    """One operation of a workload.

    ``run(tr)`` is the timed part: the calls into mfx.  ``check(result,
    expect, tr)`` returns a list of problems, empty when the result agrees
    with ``expect`` and with the properties the method guarantees.
    ``probe(tr)``, run only in traced rounds, times single layer calls on
    the operation's inputs.
    """

    family: str
    run: Callable[[Any], Any]
    expect: Any
    check: Callable[[Any, Any, Any], list]
    probe: Callable[[Any], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    probe: Callable[[Any], None]  # one call per layer, for layers the ops skip


def perturb(x):
    """A wrong version of an expected value, for the negative test."""
    if dataclasses.is_dataclass(x):
        first = dataclasses.fields(x)[0].name
        return dataclasses.replace(x, **{first: perturb(getattr(x, first))})
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    if x is None:
        return ("nat", 0)
    if isinstance(x, tuple):
        return ("corrupted",) + x
    raise TypeError(f"cannot perturb {type(x).__name__}")


def _purge_modules():
    for name in list(sys.modules):
        if name == "mfx" or name.startswith(("mfx.", "workloads")):
            del sys.modules[name]


def _set_up(workload: str, seed: int, smoke: bool, tr) -> tuple[Workload, float]:
    _purge_modules()
    t0 = time.perf_counter()
    module = importlib.import_module(f"workloads.{WORKLOADS[workload]}")
    wl = module.setup(seed, smoke, tr)
    seen = set()
    for op in wl.ops:  # untimed warm-up: one operation of each family
        if op.family not in seen:
            seen.add(op.family)
            op.check(op.run(tracing.NULL), op.expect, tracing.NULL)
    return wl, time.perf_counter() - t0


class _Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reported = 0

    def report(self, op_id, op, msg):
        if self.reported < 5:
            print(f"[{op_id} {op.family}] {msg}", file=sys.stderr)
        self.reported += 1


def _run_op(op: Op, op_id: str, tr, tally: _Tally) -> float | None:
    """Run and check one operation; returns its time in ms, or None when it
    failed."""
    tally.attempted += 1
    if tr.active:
        tr.op, tr.family = op_id, op.family
    with tr.span("op." + op.family):
        t0 = time.perf_counter_ns()
        try:
            result = op.run(tr)
        except Exception as e:  # an operation that raises counts as failed
            tally.failed += 1
            tally.report(op_id, op, "raised " + "".join(
                traceback.format_exception_only(type(e), e)).strip())
            return None
        elapsed = (time.perf_counter_ns() - t0) / 1e6
        try:
            problems = op.check(result, op.expect, tr)
        except Exception as e:
            problems = ["check raised " + "".join(
                traceback.format_exception_only(type(e), e)).strip()]
        if problems:
            tally.failed += 1
            tally.wrong += 1
            tally.report(op_id, op, "; ".join(problems))
            return None
        if op.probe is not None and tr.active:
            op.probe(tr)
    return elapsed


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        corrupt: bool, out_dir: Path) -> dict:
    tracer = tracing.Tracer() if trace else None
    setup_tr = tracer or tracing.NULL
    if tracer:
        tracer.op, tracer.family = "setup", "setup"
    setups = []
    for _ in range(1 if smoke else SETUP_REPS):
        wl, dt = _set_up(workload, seed, smoke, setup_tr)
        setups.append(dt)
    if corrupt:
        wl.ops[0].expect = perturb(wl.ops[0].expect)

    tally = _Tally()
    plain_ms, traced_ms = [], []
    traced_rounds = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        tr = tracer if traced else tracing.NULL
        times = traced_ms if traced else plain_ms
        for i, op in enumerate(wl.ops):
            ms = _run_op(op, f"r{rnd}.{i}", tr, tally)
            if ms is not None:
                times.append(ms)
        if traced:
            tracer.op, tracer.family = f"r{rnd}.probe", "probe"
            wl.probe(tracer)
            traced_rounds += 1
        rnd += 1
        if smoke and (tracer is None or rnd >= 2):
            break
        if time.perf_counter() >= deadline and (tracer is None or rnd >= 2):
            break

    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed}
    if not plain_ms:
        result["metrics"] = {}
        return result
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(plain_ms) / (sum(plain_ms) / 1e3),
            "op_ms_p50": statistics.median(plain_ms),
            "op_ms_p90": _p90(plain_ms) if len(plain_ms) >= 2 else plain_ms[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                 "op_ms_p90": "ms", "peak_rss_mb": "MB"}
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in metrics.items()}
        return result

    metrics, sources, absent = tracing.layer_metrics(tracer, traced_rounds)
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name, why in absent.items():
        print(f"per-layer metric {name} not reported: {why}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = {
        "workload": workload, "seed": seed, "traced_rounds": traced_rounds,
        "overhead": {"op_ms_p50_untraced": statistics.median(plain_ms),
                     "op_ms_p50_traced": statistics.median(traced_ms),
                     "ratio": overhead},
        "sources": sources, "absent": absent,
        "self_times": tracing.self_times(tracer.spans),
        "spans": tracer.spans,
    }
    path = out_dir / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    result["metrics"] = metrics
    return result

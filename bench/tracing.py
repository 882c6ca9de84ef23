"""Spans and counters for the traced run, and the per-layer metrics drawn
from them.  Plain Python: nothing here imports mfx.

A span records its name, start, end, parent span and the operation it
belongs to; spans stay in memory until the run ends.  Counters are kept per
operation family.  ``NULL`` is the tracer of untraced runs: its spans and
counters do nothing.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    active = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def count(self, name, n):
        pass

    def wrap(self, name, fn):
        return fn

    @contextmanager
    def patch(self, module, attr, name):
        yield


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start")

    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        t = self.tracer
        self.id = t.next_span_id
        t.next_span_id += 1
        self.parent = t.stack[-1].id if t.stack else None
        t.stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t.stack.pop()
        t.spans.append({"id": self.id, "parent": self.parent, "op": t.op,
                        "family": t.family, "name": self.name,
                        "start": self.start, "end": end, **self.attrs})
        return False

    def set(self, **attrs):
        self.attrs.update(attrs)

    def add(self, key, n):
        self.attrs[key] = self.attrs.get(key, 0) + n


class Tracer:
    active = True

    def __init__(self):
        self.spans: list[dict] = []
        self.next_span_id = 0
        self.stack: list[_Span] = []
        self.counts = defaultdict(int)  # (family, name) -> total
        self.absent: dict[str, str] = {}
        self.op = None
        self.family = None

    def span(self, name, **attrs):
        return _Span(self, name, dict(attrs))

    def count(self, name, n):
        self.counts[(self.family, name)] += n

    def wrap(self, name, fn):
        """Time every call of ``fn`` into the innermost open span, as the
        attributes ``<name>_calls`` and ``<name>_ns``."""
        stack = self.stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    top = stack[-1]
                    top.add(name + "_ns", clock() - t0)
                    top.add(name + "_calls", 1)

        return timed

    @contextmanager
    def patch(self, module, attr, name):
        """Replace ``module.attr`` by a timed wrapper for the duration.  A
        missing attribute is recorded as absent instead of counting zero."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent[name] = f"{module.__name__} has no attribute {attr!r}"
            yield
            return
        setattr(module, attr, self.wrap(name, orig))
        try:
            yield
        finally:
            setattr(module, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Total and self time per span name, in ms.  Self time is span time
    minus the time covered by its child spans (spans never overlap, since
    the run is single-threaded)."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        d = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        dur = s["end"] - s["start"]
        d["count"] += 1
        d["total_ms"] += dur / 1e6
        d["self_ms"] += (dur - child_ns[s["id"]]) / 1e6
    return out


def _ms(s):
    return (s["end"] - s["start"]) / 1e6


def _median_ms(spans):
    return statistics.median(_ms(s) for s in spans) if spans else None


def _median_us_per_rep(spans):
    if not spans:
        return None
    return statistics.median(_ms(s) * 1e3 / s["reps"] for s in spans)


def _ratio(num, den):
    return num / den if den else None


# metric name -> (unit, function of (spans by name, counts per round, rounds))
def _layer_table():
    def by(name):
        return lambda sp, c, r: _median_ms(sp[name])

    def per_s(name, attr):
        return lambda sp, c, r: _ratio(sum(s[attr] for s in sp[name]),
                                       sum(_ms(s) for s in sp[name]) / 1e3)

    def count(name):
        return lambda sp, c, r: c.get(name)

    def us(name):
        return lambda sp, c, r: _median_us_per_rep(sp[name])

    def share(attr):
        return lambda sp, c, r: _ratio(
            sum(s.get(attr, 0) for s in sp["induction.audit"]) / 1e6,
            sum(_ms(s) for s in sp["induction.audit"]))

    def waste(sp, c, r):
        return _ratio(sum(_ms(s) for s in sp["evaluator.run_lfp"]),
                      sum(_ms(s) for s in sp["evaluator.at_index"]))

    def lfp_calls(sp, c, r):
        audits = sp["induction.audit"]
        if not audits:
            return None
        return sum(s.get("induction.lfp_calls", 0) for s in audits) / r

    return {
        "syntax.parse_ms": ("ms", by("syntax.parse")),
        "syntax.defs_per_s": ("1/s", per_s("syntax.parse", "defs")),
        "syntax.roundtrip_ms": ("ms", by("syntax.roundtrip")),
        "continuity.check_ms": ("ms", by("continuity.check")),
        "continuity.rule_apps": ("count", count("continuity.rule_apps")),
        "induction.rule_ms": ("ms", by("induction.rule")),
        "induction.json_ms": ("ms", by("induction.json")),
        "induction.obligations": ("count", count("induction.obligations")),
        "evaluator.run_lfp_ms": ("ms", by("evaluator.run_lfp")),
        "evaluator.at_index_ms": ("ms", by("evaluator.at_index")),
        "evaluator.lfp_waste_ratio": ("ratio", waste),
        "evaluator.unfoldings_per_s": ("1/s", per_s("evaluator.at_index", "unfoldings")),
        "evaluator.stab_index_total": ("count", count("evaluator.stab_index_total")),
        "evaluator.diverge_ms": ("ms", by("evaluator.diverge")),
        "evaluator.cons_us": ("us", us("evaluator.cons")),
        "domain.heap_get_us": ("us", us("domain.heap_get")),
        "domain.heap_set_us": ("us", us("domain.heap_set")),
        "domain.heap_alloc_us": ("us", us("domain.heap_alloc")),
        "domain.parse_heap_ms": ("ms", by("domain.parse_heap")),
        "induction.audit_ms": ("ms", by("induction.audit")),
        "induction.assignments": ("count", count("induction.assignments")),
        "induction.assignments_per_s": ("1/s", per_s("induction.audit", "assignments")),
        "induction.oracle_share": ("ratio", share("induction.oracle_ns")),
        "induction.enum_ms": ("ms", by("induction.enum")),
        "induction.lfp_calls": ("count", lfp_calls),
        "induction.lfp_share": ("ratio", share("induction.lfp_ns")),
        "cli.main_ms": ("ms", by("cli.main")),
    }


LAYER_METRICS = _layer_table()

# Metrics that a missing wrapped name makes unmeasurable.
_WRAPPED = {"induction.lfp_calls": "induction.lfp",
            "induction.lfp_share": "induction.lfp"}


def layer_metrics(tracer: Tracer, traced_rounds: int):
    """Every per-layer metric, each taken from the workload's own
    operations when they exercise the layer, else from the layer probe
    (family ``probe``).  Returns (metrics, sources, absent)."""
    def views(want_probe: bool):
        sp = defaultdict(list)
        for s in tracer.spans:
            if (s["family"] == "probe") == want_probe:
                sp[s["name"]].append(s)
        counts = defaultdict(int)
        for (family, name), n in tracer.counts.items():
            if (family == "probe") == want_probe:
                counts[name] += n
        rounds = max(traced_rounds, 1)
        return sp, {k: v / rounds for k, v in counts.items()}, rounds

    own, probe = views(False), views(True)
    metrics, sources, absent = {}, {}, {}
    for name, (unit, fn) in LAYER_METRICS.items():
        if name in _WRAPPED and _WRAPPED[name] in tracer.absent:
            absent[name] = tracer.absent[_WRAPPED[name]]
            continue
        value, source = fn(*own), "workload"
        if value is None:
            value, source = fn(*probe), "probe"
        if value is None:
            absent[name] = "no span or counter recorded it"
            continue
        metrics[name] = {"value": value, "unit": unit}
        sources[name] = source
    return metrics, sources, absent

"""audit: check_rule_sampled on the corpus rules, with the benchmark's own
predicates, plus ``mfx audit`` in process with the corpus DSL predicates.

Families (domains fixed, extra values seeded):
  trace-correct   the correct predicate over naturals 0..24, lists up to
                  length 2, and seeded naturals of 12 to 16 bits with their
                  trace lists
  trace-wrong     the predicate "trace returns []"; the audit stops at its
                  first witness, so this operation is cheap
  traverse        heaps of up to two node cells, enumerated exhaustively
                  (cyclic ones included), plus seeded three-cell heaps
  occurs          heaps of one term cell, enumerated exhaustively (cyclic
                  ones included), plus seeded three-cell heaps with sharing
                  and cycles and the references into them
  cli-audit       ``mfx audit`` with trace_q_correct.mfx, and (cheap) with
                  trace_q_wrong.mfx
Every domain is chosen so that one operation takes about the same time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mfx.induction
from mfx.corpus import load_program
from mfx.domain import Heap, VList, VNat, VRef
from mfx.errors import DanglingRef
from mfx.induction import (DomainSpec, check_rule_sampled, enum_values,
                           refined_rule)
from mfx.syntax import HEAP, NAT, TData, TList, TRef

import gen
import reference
from harness import Op, Workload
from workloads.common import corpus_file, cli, layer_probe, plain, value

TRACE_DOMAIN = dict(nat_max=24, list_max_len=2, list_elem_max=3)
TRACE_EXTRA_NATS = 4
TRAVERSE_DOMAIN = dict(nat_max=1, list_max_len=1, list_elem_max=1,
                       heap_max_cells=2, fuel_cap=4)
OCCURS_DOMAIN = dict(nat_max=1, heap_max_cells=1, fuel_cap=6)
TRAVERSE_EXTRA_HEAPS, OCCURS_EXTRA_HEAPS = 2, 8
CLI_ARGS = ["--nat-max", "18", "--list-max-len", "2", "--list-elem-max", "3",
            "--fuel", "16"]
SMOKE_CLI_ARGS = ["--nat-max", "4", "--list-max-len", "1", "--list-elem-max", "2",
                  "--fuel", "8"]
ROUND = (["trace-correct"] * 3 + ["trace-wrong"] + ["traverse"] * 3
         + ["occurs"] * 3)


@dataclass(frozen=True)
class VerdictWant:
    obligations_hold: bool
    conclusion_holds: bool


# ---------------------------------------------------------------------------
# The benchmark's predicates, on plain values.  A reference to an
# unallocated cell raises DanglingRef, which the audit treats as an
# assignment outside the well-formed domain.
# ---------------------------------------------------------------------------


def _cells(h: Heap) -> dict:
    return {i: plain(v) for i, v in h.cells}


def _lookup(cells, rid):
    if rid not in cells:
        raise DanglingRef(f"ref{rid}")
    return cells[rid]


def q_trace_correct(n, ys):
    return plain(ys) == reference.trace(n.value).value


def q_trace_wrong(n, ys):
    return ys == VList(())


def q_traverse(n, h, h2, ys):
    if h2 != h:
        return False
    cells = _cells(h)
    first = plain(n)
    if first != gen.EMPTY:
        _lookup(cells, first[2][1][1])
    xs = reference.walk_list(cells, first)
    return xs is not None and plain(ys) == ("list", tuple(xs))


def q_occurs(r1, r2, h, h2, b):
    """occurs(r1, r2) is true exactly when r1 is a variable cell reachable
    from r2; the heap is unchanged."""
    if h2 != h:
        return False
    cells = _cells(h)
    cell = _lookup(cells, r1.rid)
    _lookup(cells, r2.rid)
    try:
        found = cell[1] == "Var" and r1.rid in reference.reachable(cells, r2.rid)
    except KeyError as e:
        raise DanglingRef(f"ref{e.args[0]}")
    return plain(b) == ("bool", found)


# ---------------------------------------------------------------------------


def _audit_op(family, rule, q, domain, want, program):
    enum_types = sorted({t for _, t in rule.params}
                        | ({HEAP} if rule.monad == "heap" else set())
                        | {t for ob in rule.obligations for _, t in ob.vars},
                        key=str)

    def run(tr):
        oracle = tr.wrap("induction.oracle", q)
        with tr.patch(mfx.induction, "run_lfp", "induction.lfp"):
            with tr.span("induction.audit") as s:
                v = check_rule_sampled(rule, oracle, domain)
                s.set(assignments=v.assignments_checked)
        return v

    def check(v, exp, tr):
        problems = []
        if (v.obligations_hold, v.conclusion_holds) != \
                (exp.obligations_hold, exp.conclusion_holds):
            problems.append(f"verdict {v.obligations_hold}/{v.conclusion_holds}, "
                            f"expected {exp.obligations_hold}/{exp.conclusion_holds}")
        if not v.obligations_hold:
            w = dict(v.obligation_witness)
            ns = [x.value for x in w.values() if isinstance(x, VNat)]
            if not any(n != 0 and n % 2 == 0 for n in ns):
                problems.append(f"witness {w} has no even n != 0")
        tr.count("induction.assignments", v.assignments_checked)
        return problems

    def probe(tr):
        with tr.span("induction.enum", types=len(enum_types)):
            for ty in enum_types:
                enum_values(ty, domain, program)

    return Op(family, run, want, check, probe)


def _extra_heaps(rng, make, k):
    out = []
    while len(out) < k:
        h = make(rng)
        if h not in out:
            out.append(h)
    return tuple(out)


def _node_heap(rng):
    cells = {}
    for i in range(3):
        cells[i] = gen.EMPTY if rng.random() < 0.3 \
            else gen.node(rng.randint(0, 1), rng.randrange(3))
    return Heap(tuple((i, value(v)) for i, v in sorted(cells.items())), 3)


def _term_heap(rng):
    cells = {}
    for i in range(3):
        roll = rng.random()
        if roll < 0.35:
            s = ("none",) if rng.random() < 0.5 else ("some", gen.ref(rng.randrange(3)))
            cells[i] = ("ctor", "Var", (gen.nat(rng.randint(0, 1)), s))
        elif roll < 0.5:
            cells[i] = ("ctor", "Const", (gen.nat(rng.randint(0, 1)),))
        else:
            cells[i] = ("ctor", "App", (gen.ref(rng.randrange(3)), gen.ref(rng.randrange(3))))
    return Heap(tuple((i, value(v)) for i, v in sorted(cells.items())), 3)


def _cli_op(argv, code, check_out):
    def check(res, want, tr):
        got_code, out = res
        if got_code != want:
            return [f"mfx audit exited {got_code}, expected {want}"]
        return check_out(out)
    return Op("cli-audit", lambda tr: cli(argv, tr), code, check)


def _cli_ops(cli_args) -> list[Op]:
    def correct(out):
        lines = out.splitlines()
        ok = lines[:2] == ["ObligationsHold", "ConclusionHolds"]
        return [] if ok else [f"unexpected audit output {out!r}"]

    def wrong(out):
        first = out.splitlines()[0]
        if not first.startswith("ObligationFails(obligation "):
            return [f"unexpected audit output {out!r}"]
        ns = [int(part.split("=")[1]) for part in first[:-1].split(", ")[1:]
              if part.split("=")[1].strip().isdigit()]
        if not any(n != 0 and n % 2 == 0 for n in ns):
            return [f"witness {first} has no even n != 0"]
        return []

    trace = corpus_file("trace.mfx")
    return [
        _cli_op(["audit", trace, "--q", corpus_file("trace_q_correct.mfx")] + cli_args,
                0, correct),
        _cli_op(["audit", trace, "--q", corpus_file("trace_q_correct.mfx")] + cli_args,
                0, correct),
        _cli_op(["audit", trace, "--q", corpus_file("trace_q_wrong.mfx")] + cli_args,
                3, wrong),
    ]


def setup(seed: int, smoke: bool, tr) -> Workload:
    rng = random.Random(f"audit:{seed}")
    progs = {n: load_program(n) for n in ("trace", "traverse", "occurs")}
    rules = {n: refined_rule(p.fun_def(n), p) for n, p in progs.items()}
    lnat = TList(NAT)
    shrink = dict(nat_max=4, list_max_len=1) if smoke else {}
    ops = []
    for family in ROUND:
        if family == "trace-correct":
            big = [gen.big_natural(rng, rng.randint(12, 16))
                   for _ in range(TRACE_EXTRA_NATS)]
            base = {**TRACE_DOMAIN, **shrink}
            lists = [reference.trace(k).value for k in range(base["nat_max"] + 1)]
            lists += [reference.trace(k).value for k in big]
            dom = DomainSpec(**base, extra=(
                (NAT, tuple(VNat(k) for k in big)),
                (lnat, tuple(value(v) for v in lists))))
            ops.append(_audit_op(family, rules["trace"], q_trace_correct, dom,
                                 VerdictWant(True, True), progs["trace"]))
        elif family == "trace-wrong":
            dom = DomainSpec(**{**TRACE_DOMAIN, **shrink})
            ops.append(_audit_op(family, rules["trace"], q_trace_wrong, dom,
                                 VerdictWant(False, False), progs["trace"]))
        elif family == "traverse":
            extra = _extra_heaps(rng, _node_heap, 1 if smoke else TRAVERSE_EXTRA_HEAPS)
            dom = DomainSpec(**TRAVERSE_DOMAIN, cell_type=TData("node"),
                             extra=((HEAP, extra),))
            if smoke:
                dom = DomainSpec(nat_max=0, list_max_len=0, list_elem_max=0,
                                 heap_max_cells=1, fuel_cap=6,
                                 cell_type=TData("node"), extra=((HEAP, extra),))
            ops.append(_audit_op(family, rules["traverse"], q_traverse, dom,
                                 VerdictWant(True, True), progs["traverse"]))
        else:
            extra = _extra_heaps(rng, _term_heap, 1 if smoke else OCCURS_EXTRA_HEAPS)
            refs = (VRef(1), VRef(2))
            dom = DomainSpec(**OCCURS_DOMAIN, cell_type=TData("rtrm"),
                             extra=((HEAP, extra), (TRef(TData("rtrm")), refs)))
            ops.append(_audit_op(family, rules["occurs"], q_occurs, dom,
                                 VerdictWant(True, True), progs["occurs"]))
    ops += _cli_ops(SMOKE_CLI_ARGS if smoke else CLI_ARGS)
    rng.shuffle(ops)
    return Workload(ops, layer_probe)

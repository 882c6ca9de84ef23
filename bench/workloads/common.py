"""Helpers shared by the workloads: conversion between mfx values and the
benchmark's plain encoding, in-process CLI calls, the hand-derived corpus
rules, checks every evaluator workload applies, and the layer probe."""

from __future__ import annotations

import contextlib
import io
import random

import mfx.cli
import mfx.induction
from mfx.continuity import check_continuous
from mfx.corpus import corpus_path, load_program
from mfx.domain import (BOTTOM, Heap, Ok, OkPure, VBool, VCtor, VList, VNat,
                        VNone, VRef, VSome, VUnit, heap_alloc, heap_get,
                        heap_set, parse_heap)
from mfx.evaluator import (Approximant, Diverged, eval_approx, eval_pure,
                           run_lfp)
from mfx.induction import (DomainSpec, Hyp, InductionRule,
                           Obligation, PureCond, PureEq, check_rule_sampled,
                           enum_values, raw_rule, refine, rule_from_json,
                           rule_to_json)
from mfx.syntax import (BOOL, HEAP, NAT, PBin, PBool, PCall, PCons, PCtor,
                        PNat, PNil, PNone, PSome, PVar, TData, TList, TOption,
                        TRef, alpha_equivalent, parse_program, pretty_program)

from gen import heap_text

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def plain(v):
    """An mfx value in the benchmark's encoding (see gen.py)."""
    if isinstance(v, VNat):
        return ("nat", v.value)
    if isinstance(v, VRef):
        return ("ref", v.rid)
    if isinstance(v, VCtor):
        return ("ctor", v.name, tuple(plain(a) for a in v.args))
    if isinstance(v, VList):
        return ("list", tuple(plain(a) for a in v.items))
    if isinstance(v, VBool):
        return ("bool", v.value)
    if isinstance(v, VSome):
        return ("some", plain(v.value))
    if isinstance(v, VNone):
        return ("none",)
    if isinstance(v, VUnit):
        return ("unit",)
    raise TypeError(f"unexpected value {v!r}")


def value(p):
    """The mfx value of a plain encoding."""
    kind = p[0]
    if kind == "nat":
        return VNat(p[1])
    if kind == "ref":
        return VRef(p[1])
    if kind == "ctor":
        return VCtor(p[1], tuple(value(a) for a in p[2]))
    if kind == "list":
        return VList(tuple(value(a) for a in p[1]))
    if kind == "some":
        return VSome(value(p[1]))
    if kind == "none":
        return VNone()
    raise TypeError(f"unexpected encoding {p!r}")


def plain_heap(h: Heap) -> tuple[dict, int]:
    return {i: plain(v) for i, v in h.cells}, h.next_id


def load_heap(cells: dict, next_id: int, program, tr) -> Heap:
    """Render a plain heap in the heap file format and parse it."""
    text = heap_text(cells, next_id)
    with tr.span("domain.parse_heap", cells=len(cells)):
        return parse_heap(text, program)


# ---------------------------------------------------------------------------
# The command line, in process
# ---------------------------------------------------------------------------


def cli(argv: list[str], tr) -> tuple[int, str]:
    """``mfx.cli.main(argv)`` with standard output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tr.span("cli.main", command=argv[0]):
            code = mfx.cli.main(argv)
    return code, out.getvalue()


def corpus_file(name: str) -> str:
    return str(corpus_path(name))


# ---------------------------------------------------------------------------
# Evaluator checks
# ---------------------------------------------------------------------------


def check_terminating(out, expect, program, fun, args, heap, tr,
                      read_only: bool) -> list[str]:
    """The result agrees with the reference; the chain is bottom just below
    the stabilization index and equals run_lfp's result at it (the lub of a
    flat chain is its first non-bottom element)."""
    problems = []
    if isinstance(out, Ok):
        if plain(out.value) != expect.value:
            problems.append(f"value {out.value} differs from the reference")
        if plain_heap(out.heap) != (expect.heap, expect.next_id):
            problems.append("final heap differs from the reference")
        if read_only and out.heap != heap:
            problems.append("a read-only run changed the heap")
    elif isinstance(out, OkPure):
        if plain(out.value) != expect.value:
            problems.append(f"value {out.value} differs from the reference")
    else:
        return [f"got {out}, the reference terminates"]
    s = expect.index
    below = eval_approx(Approximant(program, fun, s - 1), args, heap)
    if below != BOTTOM:
        problems.append(f"approximant {s - 1} is {below}, not bottom")
    with tr.span("evaluator.at_index", unfoldings=expect.unfoldings):
        at = eval_approx(Approximant(program, fun, s), args, heap)
    if at != out:
        problems.append(f"approximant {s} differs from run_lfp's result")
    tr.count("evaluator.stab_index_total", s)
    return problems


def check_diverged(out, expect, cap) -> list[str]:
    if expect.value is not None:
        return ["the reference terminates on a diverging input"]
    if not (isinstance(out, Diverged) and out.fuel_cap == cap):
        return [f"got {out}, expected Diverged({cap})"]
    return []


def heap_probes(h: Heap, rng: random.Random, tr, reps: int = 50):
    """Time heap_get, heap_set and heap_alloc on a heap of the workload."""
    ids = [rng.choice(h.cells)[0] for _ in range(reps)]
    refs = [VRef(i) for i in ids]
    v = VNat(7)
    with tr.span("domain.heap_get", reps=reps, cells=len(h.cells)):
        for r in refs:
            heap_get(h, r)
    with tr.span("domain.heap_set", reps=reps, cells=len(h.cells)):
        for r in refs:
            heap_set(h, r, v)
    with tr.span("domain.heap_alloc", reps=reps, cells=len(h.cells)):
        for _ in range(reps):
            heap_alloc(h, v)


def cons_probe(length: int, program, tr, reps: int = 50):
    """Time eval_pure of ``x # xs`` with ``xs`` of the given length."""
    env = {"x": VNat(1), "xs": VList(tuple(VNat(i % 100) for i in range(length)))}
    e = PCons(PVar("x"), PVar("xs"))
    with tr.span("evaluator.cons", reps=reps, length=length):
        for _ in range(reps):
            eval_pure(e, env, program)


# ---------------------------------------------------------------------------
# Hand-derived refined rules of the corpus, in this tool's premise order:
# scrutinee equations, then conditions and hypotheses in evaluation order.
# Variable names are free; the comparison is alpha-equivalence.
# ---------------------------------------------------------------------------


def _v(name):
    return PVar(name)


def _get(r, h):
    return PCall("get_ref", (_v(r), _v(h)))


def _ne(a, b):
    return PureCond(PBin("=", a, b), positive=False)


def _even(m, positive=True):
    return PureCond(PBin("=", PBin("mod", _v(m), PNat(2)), PNat(0)), positive)


def _ob(vars_, premises, conclusion):
    return Obligation(tuple(vars_), tuple(premises), conclusion)


LNAT = TList(NAT)
RT = TRef(TData("rtrm"))

HAND_RULES = {
    "trace": InductionRule("trace", "option", "refined", (("n", NAT),), LNAT, (
        _ob([], [], Hyp((PNat(0),), PNil())),
        _ob([("k", NAT), ("t", LNAT)],
            [_ne(_v("k"), PNat(0)), Hyp((PCall("step", (_v("k"),)),), _v("t")),
             _even("k")],
            Hyp((_v("k"),), PCons(_v("k"), _v("t")))),
        _ob([("k", NAT), ("t", LNAT)],
            [_ne(_v("k"), PNat(0)), Hyp((PCall("step", (_v("k"),)),), _v("t")),
             _even("k", False)],
            Hyp((_v("k"),), _v("t"))),
    )),
    "traverse": InductionRule(
        "traverse", "heap", "refined", (("n", TData("node")),), LNAT, (
            _ob([("h", HEAP)], [],
                Hyp((PCtor("Empty", ()),), PNil(), _v("h"), _v("h"))),
            _ob([("h", HEAP), ("x", NAT), ("r", TRef(TData("node"))),
                 ("xs", LNAT), ("h2", HEAP)],
                [Hyp((_get("r", "h"),), _v("xs"), _v("h"), _v("h2"))],
                Hyp((PCtor("Node", (_v("x"), _v("r"))),),
                    PCons(_v("x"), _v("xs")), _v("h"), _v("h2"))),
        )),
    "occurs": InductionRule(
        "occurs", "heap", "refined", (("r1", RT), ("r2", RT)), BOOL, (
            _ob([("a", RT), ("h", HEAP), ("n", NAT), ("s", TOption(RT))],
                [PureEq(PCtor("Var", (_v("n"), _v("s"))), _get("a", "h"))],
                Hyp((_v("a"), _v("a")), PBool(True), _v("h"), _v("h"))),
            _ob([("a", RT), ("b", RT), ("h", HEAP), ("n", NAT)],
                [PureEq(PCtor("Var", (_v("n"), PNone())), _get("b", "h")),
                 _ne(_v("a"), _v("b"))],
                Hyp((_v("a"), _v("b")), PBool(False), _v("h"), _v("h"))),
            _ob([("a", RT), ("b", RT), ("h", HEAP), ("n", NAT), ("p", RT),
                 ("y", BOOL), ("h2", HEAP)],
                [PureEq(PCtor("Var", (_v("n"), PSome(_v("p")))), _get("b", "h")),
                 _ne(_v("a"), _v("b")),
                 Hyp((_v("a"), _v("p")), _v("y"), _v("h"), _v("h2"))],
                Hyp((_v("a"), _v("b")), _v("y"), _v("h"), _v("h2"))),
            _ob([("a", RT), ("b", RT), ("h", HEAP), ("n", NAT)],
                [PureEq(PCtor("Const", (_v("n"),)), _get("b", "h"))],
                Hyp((_v("a"), _v("b")), PBool(False), _v("h"), _v("h"))),
            _ob([("a", RT), ("b", RT), ("h", HEAP), ("l", RT), ("r", RT),
                 ("c", BOOL), ("h2", HEAP)],
                [PureEq(PCtor("App", (_v("l"), _v("r"))), _get("b", "h")),
                 Hyp((_v("a"), _v("l")), _v("c"), _v("h"), _v("h2")),
                 PureCond(_v("c"))],
                Hyp((_v("a"), _v("b")), PBool(True), _v("h"), _v("h2"))),
            _ob([("a", RT), ("b", RT), ("h", HEAP), ("l", RT), ("r", RT),
                 ("c", BOOL), ("h2", HEAP), ("y", BOOL), ("h3", HEAP)],
                [PureEq(PCtor("App", (_v("l"), _v("r"))), _get("b", "h")),
                 Hyp((_v("a"), _v("l")), _v("c"), _v("h"), _v("h2")),
                 PureCond(_v("c"), positive=False),
                 Hyp((_v("a"), _v("r")), _v("y"), _v("h2"), _v("h3"))],
                Hyp((_v("a"), _v("b")), _v("y"), _v("h"), _v("h3"))),
        )),
}


# ---------------------------------------------------------------------------
# Layer probe: one small call per layer, on the corpus, for the layers a
# workload's own operations do not exercise.
# ---------------------------------------------------------------------------


def layer_probe(tr):
    text = corpus_path("traverse.mfx").read_text(encoding="utf-8")
    with tr.span("syntax.parse") as s:
        prog = parse_program(text)
        s.set(defs=len(prog.data_decls) + len(prog.pure_defs) + len(prog.fun_defs))
    f = prog.fun_defs[0]
    with tr.span("continuity.check"):
        d = check_continuous(f)
    tr.count("continuity.rule_apps", d.size())
    with tr.span("induction.rule"):
        rule = refine(raw_rule(f, prog), d)
    tr.count("induction.obligations", len(rule.obligations))
    with tr.span("induction.json"):
        rule_from_json(rule_to_json(rule))
    with tr.span("syntax.roundtrip"):
        alpha_equivalent(prog, parse_program(pretty_program(prog)))
    cells = {0: ("ctor", "Node", (("nat", 2), ("ref", 1))), 1: ("ctor", "Empty", ())}
    h = load_heap(cells, 2, prog, tr)
    arg = VCtor("Node", (VNat(1), VRef(0)))
    with tr.span("evaluator.run_lfp"):
        run_lfp(prog, "traverse", (arg,), h)
    with tr.span("evaluator.at_index", unfoldings=3):
        eval_approx(Approximant(prog, "traverse", 3), (arg,), h)
    tr.count("evaluator.stab_index_total", 3)
    cyc = load_heap({0: ("ctor", "Node", (("nat", 7), ("ref", 0)))}, 1, prog, tr)
    with tr.span("evaluator.diverge"):
        run_lfp(prog, "traverse", (VCtor("Node", (VNat(7), VRef(0))),), cyc, 20)
    cons_probe(2, prog, tr)
    heap_probes(h, random.Random(0), tr)
    trace = load_program("trace")
    rule = refine(raw_rule(trace.fun_def("trace"), trace),
                  check_continuous(trace.fun_def("trace")))
    dom = DomainSpec(nat_max=4, list_max_len=1, list_elem_max=4)
    with tr.span("induction.enum"):
        for ty in (NAT, LNAT):
            enum_values(ty, dom, trace)
    q = tr.wrap("induction.oracle", lambda n, ys: True)
    with tr.patch(mfx.induction, "run_lfp", "induction.lfp"):
        with tr.span("induction.audit") as s:
            v = check_rule_sampled(rule, q, dom)
            s.set(assignments=v.assignments_checked)
    tr.count("induction.assignments", v.assignments_checked)
    cli(["check", corpus_file("trace.mfx")], tr)

"""lfp-read: run_lfp to the least fixed point on read-only inputs.

Families (one operation each, sizes fixed, contents seeded):
  traverse        an acyclic list of TRAVERSE_N cells at shuffled ids
  traverse-cyc    a list of CYCLE_LEN cells whose last cell points back into
                  it; run_lfp reaches Diverged(DIVERGE_CAP)
  occurs          a deep term with shared subterms (OCCURS_DEPTH levels),
                  searched for its innermost variable or for an outsider
  occurs-cyc      a CYCLIC_DEPTH-level term of that shape with a loop after
                  it; Diverged(OCCURS_CAP)
  trace           a natural of TRACE_BITS bits (the option monad)
  cli-eval        ``mfx eval`` in process on the corpus cyclic files with
                  ``--fuel CLI_CAP``, and on the acyclic one (cheap)
Every size is chosen so that one operation takes about the same time.
"""

from __future__ import annotations

import random

from mfx.corpus import corpus_path, load_program
from mfx.evaluator import DEFAULT_FUEL_CAP, run_lfp

import gen
import reference
from gen import EMPTY, node, nat, ref
from harness import Op, Workload
from workloads.common import (check_diverged, check_terminating, cli,
                              cons_probe, corpus_file, heap_probes,
                              layer_probe, load_heap, value)

TRAVERSE_N = 126
CYCLE_LEN, DIVERGE_CAP = 40, 130
OCCURS_DEPTH, OCCURS_POOL = 88, 12
CYCLIC_DEPTH, OCCURS_CAP = 20, 45
TRACE_BITS = 122
CLI_CAP = 116
SMOKE = dict(TRAVERSE_N=6, CYCLE_LEN=3, DIVERGE_CAP=8, OCCURS_DEPTH=5,
             OCCURS_POOL=3, CYCLIC_DEPTH=3, OCCURS_CAP=12, TRACE_BITS=6,
             CLI_CAP=8)

ROUND = (["traverse"] * 4 + ["traverse-cyc"] * 2 + ["occurs"] * 3
         + ["occurs-cyc"] + ["trace"] * 3)


def _var(n, s):
    return ("ctor", "Var", (nat(n), s))


# Plain copies of the corpus heap files, checked against the files at set-up.
CORPUS_HEAPS = {
    "acyclic": ({0: node(2, 1), 1: EMPTY}, 2),
    "cyclic": ({0: node(7, 0)}, 1),
    "cyclic_term": ({0: _var(0, ("none",)), 1: _var(1, ("some", ref(2))),
                     2: ("ctor", "App", (ref(1), ref(1)))}, 3),
}


def _corpus_heap(name: str):
    cells, next_id = CORPUS_HEAPS[name]
    text = corpus_path(f"{name}.heap").read_text(encoding="utf-8")
    lines = [ln.split("--")[0].strip() for ln in text.splitlines()]
    if [ln for ln in lines if ln] != gen.heap_text(cells, next_id).splitlines():
        raise RuntimeError(f"corpus heap {name}.heap changed; update CORPUS_HEAPS")
    return cells, next_id


def _text(v) -> str:
    if v[0] == "list":
        return "[" + ", ".join(_text(x) for x in v[1]) + "]"
    if v[0] == "bool":
        return "true" if v[1] else "false"
    return gen.value_text(v)


def _ok_text(expect) -> str:
    cells = ", ".join(f"{i} ↦ {gen.value_text(v)}" for i, v in sorted(expect.heap.items()))
    return f"Ok({_text(expect.value)}, {{{cells}; next={expect.next_id}}})\n"


def _lfp_op(family, program, fun, args, heap, expect, cap, list_len=None):
    def run(tr):
        name = "evaluator.run_lfp" if expect.value is not None else "evaluator.diverge"
        with tr.span(name):
            return run_lfp(program, fun, args, heap, cap)

    def check(out, exp, tr):
        if exp.value is None:
            return check_diverged(out, exp, cap)
        return check_terminating(out, exp, program, fun, args, heap, tr,
                                 read_only=True)

    def probe(tr):
        heap_probes(heap, random.Random(len(heap.cells)), tr)
        if list_len is not None:
            cons_probe(list_len, program, tr)

    return Op(family, run, expect, check, probe if heap.cells else None)


def _cli_op(argv, code, out):
    def check(res, want, tr):
        return [] if res == want else [f"mfx eval gave {res!r}, expected {want!r}"]
    return Op("cli-eval", lambda tr: cli(argv, tr), (code, out), check)


def setup(seed: int, smoke: bool, tr) -> Workload:
    size = dict(TRAVERSE_N=TRAVERSE_N, CYCLE_LEN=CYCLE_LEN, DIVERGE_CAP=DIVERGE_CAP,
                OCCURS_DEPTH=OCCURS_DEPTH, OCCURS_POOL=OCCURS_POOL,
                CYCLIC_DEPTH=CYCLIC_DEPTH, OCCURS_CAP=OCCURS_CAP, TRACE_BITS=TRACE_BITS, CLI_CAP=CLI_CAP)
    if smoke:
        size.update(SMOKE)
    rng = random.Random(f"lfp-read:{seed}")
    traverse, occurs, trace = (load_program(n) for n in ("traverse", "occurs", "trace"))
    ops = []
    for family in ROUND:
        if family.startswith("traverse"):
            n = size["TRAVERSE_N"] if family == "traverse" else size["CYCLE_LEN"]
            ids = list(range(n))
            rng.shuffle(ids)
            cells: dict = {}
            cyclic_to = rng.randrange(n) if family == "traverse-cyc" else None
            first = gen.linked_list(rng, n, cells, ids, cyclic_to)
            expect = reference.traverse(cells, n, first)
            heap = load_heap(cells, n, traverse, tr)
            cap = DEFAULT_FUEL_CAP if cyclic_to is None else size["DIVERGE_CAP"]
            ops.append(_lfp_op(family, traverse, "traverse", (value(first),), heap,
                               expect, cap, list_len=n))
        elif family.startswith("occurs"):
            cyclic = family == "occurs-cyc"
            depth = size["CYCLIC_DEPTH" if cyclic else "OCCURS_DEPTH"]
            cells, next_id, root, target, outsider = gen.occurs_term(
                rng, depth, size["OCCURS_POOL"], cyclic)
            r1 = outsider if cyclic or rng.random() < 0.5 else target
            expect = reference.occurs(cells, next_id, r1, root)
            heap = load_heap(cells, next_id, occurs, tr)
            cap = size["OCCURS_CAP"] if cyclic else DEFAULT_FUEL_CAP
            ops.append(_lfp_op(family, occurs, "occurs", (value(ref(r1)), value(ref(root))),
                               heap, expect, cap))
        else:
            n = gen.big_natural(rng, size["TRACE_BITS"])
            expect = reference.trace(n)
            ops.append(_lfp_op(family, trace, "trace", (value(nat(n)),),
                               load_heap({}, 0, trace, tr), expect, DEFAULT_FUEL_CAP))

    cap = str(size["CLI_CAP"])
    cells, next_id = _corpus_heap("acyclic")
    acyclic = reference.traverse(cells, next_id, node(1, 0))
    if reference.traverse(*_corpus_heap("cyclic"), node(7, 0)).value is not None \
            or reference.occurs(*_corpus_heap("cyclic_term"), 0, 1).value is not None:
        raise RuntimeError("a corpus cyclic heap no longer diverges")
    ops += [
        _cli_op(["eval", corpus_file("traverse.mfx"), "--args", "Node(7, ref0)",
                 "--heap", corpus_file("cyclic.heap"), "--fuel", cap],
                2, f"Diverged({cap})\n"),
        _cli_op(["eval", corpus_file("occurs.mfx"), "--args", "ref0 ref1",
                 "--heap", corpus_file("cyclic_term.heap"), "--fuel", cap],
                2, f"Diverged({cap})\n"),
        _cli_op(["eval", corpus_file("traverse.mfx"), "--args", "Node(1, ref0)",
                 "--heap", corpus_file("acyclic.heap")], 0, _ok_text(acyclic)),
    ]
    rng.shuffle(ops)
    return Workload(ops, layer_probe)

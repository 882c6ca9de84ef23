"""lfp-write: the benchmark's own heap program (lfp_write.mfx) through
run_lfp, on heaps padded with PADDING unrelated cells.

Families (sizes fixed, contents and cell ids seeded):
  build   allocate a BUILD_N-cell list with ``ref``
  bump    rewrite every cell of a BUMP_N-cell list in place with ``:=``
  count   increment one counter cell COUNT_N times
Every size is chosen so that one operation takes about the same time.
"""

from __future__ import annotations

import random
from pathlib import Path

from mfx.domain import heap_closed
from mfx.evaluator import run_lfp
from mfx.syntax import parse_program

import reference
from gen import NIL, cons, nat, ref
from harness import Op, Workload
from workloads.common import (check_terminating, heap_probes, layer_probe,
                              load_heap, value)

PADDING = 100
BUILD_N, BUMP_N, COUNT_N = 72, 50, 56
SMOKE = dict(PADDING=5, BUILD_N=4, BUMP_N=3, COUNT_N=4)
ROUND = ["build"] * 4 + ["bump"] * 4 + ["count"] * 4

PROGRAM = Path(__file__).resolve().parent.parent / "lfp_write.mfx"


def _padding(rng: random.Random, ids: list[int]) -> dict:
    """Unrelated cells: naturals, empty lists and lists into the padding."""
    cells = {}
    for i in ids:
        roll = rng.random()
        if roll < 0.4:
            cells[i] = nat(rng.randint(0, 999))
        elif roll < 0.6 or i == ids[0]:
            cells[i] = NIL
        else:
            cells[i] = cons(rng.randint(0, 99), rng.choice(ids[:ids.index(i)]))
    return cells


def _op(family, program, fun, args, heap, expect, pad_ids):
    def run(tr):
        with tr.span("evaluator.run_lfp"):
            return run_lfp(program, fun, args, heap)

    def check(out, exp, tr):
        problems = check_terminating(out, exp, program, fun, args, heap, tr,
                                     read_only=False)
        if problems:
            return problems
        after = {i: v for i, v in out.heap.cells}
        before = {i: v for i, v in heap.cells}
        if any(after.get(i) != before[i] for i in pad_ids):
            problems.append("a padding cell changed (frame property)")
        if not heap_closed(out.heap, out.value):
            problems.append("the final heap has a dangling reference")
        allocated = out.heap.next_id - heap.next_id
        if allocated != len(out.heap.cells) - len(heap.cells) \
                or exp.next_id - heap.next_id != allocated:
            problems.append(f"next_id moved by {allocated}, not by the "
                            "number of allocations")
        return problems

    def probe(tr):
        heap_probes(heap, random.Random(len(heap.cells)), tr)

    return Op(family, run, expect, check, probe)


def setup(seed: int, smoke: bool, tr) -> Workload:
    size = dict(PADDING=PADDING, BUILD_N=BUILD_N, BUMP_N=BUMP_N, COUNT_N=COUNT_N)
    if smoke:
        size.update(SMOKE)
    rng = random.Random(f"lfp-write:{seed}")
    program = parse_program(PROGRAM.read_text(encoding="utf-8"))
    ops = []
    for family in ROUND:
        if family == "build":
            n_cells = size["PADDING"]
            ids = list(range(n_cells))
            cells = _padding(rng, ids)
            pad_ids = ids
            n = size["BUILD_N"]
            args = (nat(n), NIL)
            expect = reference.build(cells, n_cells, n, NIL)
        elif family == "bump":
            n = size["BUMP_N"]
            n_cells = size["PADDING"] + n
            ids = list(range(n_cells))
            rng.shuffle(ids)
            list_ids, pad_ids = ids[:n], sorted(ids[n:])
            cells = _padding(rng, pad_ids)
            for k, i in enumerate(list_ids):
                cells[i] = cons(rng.randint(0, 99), list_ids[k + 1]) \
                    if k + 1 < n else NIL
            args = (ref(list_ids[0]),)
            expect = reference.bump(cells, n_cells, list_ids[0])
        else:
            n_cells = size["PADDING"] + 1
            ids = list(range(n_cells))
            counter = rng.choice(ids)
            pad_ids = [i for i in ids if i != counter]
            cells = _padding(rng, pad_ids)
            cells[counter] = nat(rng.randint(0, 999))
            n = size["COUNT_N"]
            args = (ref(counter), nat(n))
            expect = reference.count(cells, n_cells, counter, n)
        heap = load_heap(cells, n_cells, program, tr)
        ops.append(_op(family, program, family, tuple(value(a) for a in args),
                       heap, expect, pad_ids))
    rng.shuffle(ops)
    return Workload(ops, layer_probe)

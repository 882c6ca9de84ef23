"""Reference computations in plain Python, independent of mfx.evaluator.

Every function works on the generator's value encoding (see ``gen.py``) and
a heap given as ``{id: value}``.  Each returns what the corresponding mfx
run must produce, plus the figures the benchmark reports next to it: the
number of recursive unfoldings and the stabilization index, i.e. the least
fuel at which the Kleene chain leaves bottom (the deepest call, counting
the outermost one as 1).  ``None`` as a result means the run diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import EMPTY, NIL, cons, nat


@dataclass(frozen=True)
class Expect:
    value: object          # plain value, or None when the run diverges
    heap: dict | None      # final heap (heap monad), None for the option monad
    next_id: int | None
    unfoldings: int        # recursive calls made by a terminating run
    index: int             # stabilization index of a terminating run


def trace(n: int) -> Expect:
    """Even values seen while iterating n -> n div 2 down to zero."""
    evens, calls = [], 1
    while n != 0:
        if n % 2 == 0:
            evens.append(nat(n))
        n //= 2
        calls += 1
    return Expect(("list", tuple(evens)), None, None, calls, calls)


def walk_list(cells: dict, first) -> list | None:
    """The elements of a linked list; None when the pointers form a cycle."""
    out, seen, v = [], set(), first
    while v != EMPTY:
        _, _, (x, r) = v
        if r[1] in seen:
            return None
        seen.add(r[1])
        out.append(x)
        v = cells[r[1]]
    return out


def traverse(cells: dict, next_id: int, first) -> Expect:
    xs = walk_list(cells, first)
    if xs is None:
        return Expect(None, None, None, 0, 0)
    return Expect(("list", tuple(xs)), dict(cells), next_id, len(xs) + 1,
                  len(xs) + 1)


def reachable(cells: dict, start: int) -> set[int]:
    """Cells reachable from ``start`` through instantiated variables and
    application children."""
    seen, stack = set(), [start]
    while stack:
        r = stack.pop()
        if r in seen:
            continue
        seen.add(r)
        _, name, args = cells[r]
        if name == "Var" and args[1][0] == "some":
            stack.append(args[1][1][1])
        elif name == "App":
            stack.extend(a[1] for a in args)
    return seen


class _Loops(Exception):
    pass


def occurs(cells: dict, next_id: int, r1: int, r2: int) -> Expect:
    """A left-first transcription of occurs.  The heap is read-only, so a
    call that meets a cell already on its own call path repeats forever:
    that is reported as divergence."""
    calls = deepest = 0

    def go(r: int, path: frozenset) -> bool:
        nonlocal calls, deepest
        if r in path:
            raise _Loops
        calls += 1
        deepest = max(deepest, len(path) + 1)
        _, name, args = cells[r]
        if name == "Var":
            if r1 == r:
                return True
            if args[1][0] == "none":
                return False
            return go(args[1][1][1], path | {r})
        if name == "Const":
            return False
        return go(args[0][1], path | {r}) or go(args[1][1], path | {r})

    try:
        found = go(r2, frozenset())
    except _Loops:
        return Expect(None, None, None, 0, 0)
    # Cross-check against plain reachability: a terminating run finds r1
    # exactly when r1 is a variable cell reachable from r2.
    if found != (cells[r1][1] == "Var" and r1 in reachable(cells, r2)):
        raise AssertionError("occurs transcription disagrees with reachability")
    return Expect(("bool", found), dict(cells), next_id, calls, deepest)


# ---------------------------------------------------------------------------
# The lfp-write program (lfp_write.mfx)
# ---------------------------------------------------------------------------


def build(cells: dict, next_id: int, n: int, acc) -> Expect:
    cells = dict(cells)
    for k in range(n, 0, -1):
        cells[next_id] = acc
        acc = cons(k, next_id)
        next_id += 1
    return Expect(acc, cells, next_id, n + 1, n + 1)


def bump(cells: dict, next_id: int, r: int) -> Expect:
    cells = dict(cells)
    calls = 1
    while cells[r] != NIL:
        _, _, (x, nx) = cells[r]
        cells[r] = cons(x[1] + 1, nx[1])
        r = nx[1]
        calls += 1
    return Expect(("unit",), cells, next_id, calls, calls)


def count(cells: dict, next_id: int, c: int, n: int) -> Expect:
    cells = dict(cells)
    final = nat(cells[c][1] + n)
    cells[c] = final
    return Expect(final, cells, next_id, n + 1, n + 1)

"""Seeded input generators.  Plain Python: nothing here imports mfx.

Programs are produced as DSL source text together with the facts the
benchmark checks them against (definition names, control-flow path counts,
continuity derivation sizes), all computed on the generator's own tree.
Heaps are produced as plain ``{id: value}`` maps whose values are nested
tuples; ``heap_text`` renders one in the heap file format.

Value encoding (shared with ``reference.py``):
  ("nat", n)  ("ref", id)  ("none",)  ("some", v)  ("ctor", name, (args...))
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

EMPTY = ("ctor", "Empty", ())
NIL = ("ctor", "Nil", ())


def nat(n: int):
    return ("nat", n)


def ref(i: int):
    return ("ref", i)


def node(x: int, r: int):
    return ("ctor", "Node", (nat(x), ref(r)))


def cons(x: int, r: int):
    return ("ctor", "Cons", (nat(x), ref(r)))


def value_text(v) -> str:
    kind = v[0]
    if kind == "nat":
        return str(v[1])
    if kind == "ref":
        return f"ref{v[1]}"
    if kind == "none":
        return "None"
    if kind == "some":
        return f"Some({value_text(v[1])})"
    name, args = v[1], v[2]
    if not args:
        return name
    return name + "(" + ", ".join(value_text(a) for a in args) + ")"


def heap_text(cells: dict, next_id: int) -> str:
    lines = [f"{i} ↦ {value_text(v)}" for i, v in sorted(cells.items())]
    lines.append(f"next={next_id}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Linked lists, terms and numbers for lfp-read
# ---------------------------------------------------------------------------


def linked_list(rng: random.Random, length: int, cells: dict, ids: list[int],
                cyclic_to: int | None = None):
    """Store a ``length``-cell list in ``cells`` at the given ids (in list
    order) and return its first node.  With ``cyclic_to`` = k the last cell
    points back at the k-th cell instead of holding Empty."""
    assert len(ids) == length >= 1
    xs = [rng.randint(0, 99) for _ in range(length + 1)]
    for k in range(length - 1):
        cells[ids[k]] = node(xs[k + 1], ids[k + 1])
    last = EMPTY if cyclic_to is None else node(xs[length], ids[cyclic_to])
    cells[ids[length - 1]] = last
    return node(xs[0], ids[0])


def occurs_term(rng: random.Random, depth: int, pool_size: int, cyclic: bool):
    """A deep term for occurs, with shared subterms.

    The spine has ``depth`` levels.  Each level is an application whose left
    child is one of ``pool_size`` small shared subterms (constants,
    unassigned variables, and instantiated variables pointing into the pool)
    and whose right child is the next level, or an instantiated variable
    forwarding to it.  The spine ends in an unassigned variable ``target``.
    With ``cyclic`` the root is wrapped as App(old root, v) where the
    variable v is instantiated to the new root itself: a search for a
    variable that is not in the term walks the whole term, then loops.

    Returns (cells, next_id, root, target, outsider): ``outsider`` is an
    unassigned variable that occurs nowhere in the term.
    """
    cells: dict = {}
    fresh = itertools.count()
    outsider = next(fresh)
    cells[outsider] = ("ctor", "Var", (nat(0), ("none",)))
    pool = []
    for k in range(pool_size):
        i = next(fresh)
        roll = rng.random()
        if roll < 0.4 or not pool:
            cells[i] = ("ctor", "Const", (nat(rng.randint(0, 9)),))
        elif roll < 0.7:
            cells[i] = ("ctor", "Var", (nat(rng.randint(1, 9)), ("none",)))
        else:
            cells[i] = ("ctor", "Var", (nat(rng.randint(1, 9)),
                                        ("some", ref(rng.choice(pool)))))
        pool.append(i)
    target = next(fresh)
    cells[target] = ("ctor", "Var", (nat(1), ("none",)))
    below = target
    for _ in range(depth):
        i = next(fresh)
        if rng.random() < 0.25:
            cells[i] = ("ctor", "Var", (nat(rng.randint(1, 9)), ("some", ref(below))))
        else:
            cells[i] = ("ctor", "App", (ref(rng.choice(pool)), ref(below)))
        below = i
    root = below
    if cyclic:
        loop, top = next(fresh), next(fresh)
        cells[loop] = ("ctor", "Var", (nat(2), ("some", ref(top))))
        cells[top] = ("ctor", "App", (ref(root), ref(loop)))
        root = top
    return cells, next(fresh), root, target, outsider


def big_natural(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1))


# ---------------------------------------------------------------------------
# Programs for the frontend
# ---------------------------------------------------------------------------


@dataclass
class GenProgram:
    """A generated program and the facts the benchmark checks it against."""

    text: str
    fun_names: list[str]
    paths: dict[str, int]          # refined obligations expected per function
    derivation_size: dict[str, int]  # continuity rule applications, Lam included
    n_defs: int                    # data + pure + fun definitions


@dataclass
class _Fun:
    name: str
    monad: str


@dataclass
class _Ctx:
    rng: random.Random
    fun: _Fun
    earlier: list[_Fun]
    pures: list[str]
    fresh: itertools.count = field(default_factory=itertools.count)


# Computation nodes of the generator's own tree:
#   ("ret", p) ("bind", x, head, body) ("if", c, then, els)
#   ("case", then_a, y, then_b) ("self", args) ("ext", name, args)
#   ("get", r) ("set", r, p) ("new", p)


def _nat_expr(ctx: _Ctx, nats: list[str], depth: int = 0) -> str:
    rng = ctx.rng
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        if nats and rng.random() < 0.6:
            return rng.choice(nats)
        return str(rng.randint(0, 9))
    if roll < 0.5 and ctx.pures:
        return f"{rng.choice(ctx.pures)}({_nat_expr(ctx, nats, depth + 1)})"
    op = rng.choice(["+", "-", "div", "mod"])
    return f"({_nat_expr(ctx, nats, depth + 1)} {op} {_nat_expr(ctx, nats, depth + 1)})"


def _bool_expr(ctx: _Ctx, nats: list[str]) -> str:
    rng = ctx.rng
    roll = rng.random()
    base = f"({_nat_expr(ctx, nats, 1)} {rng.choice(['=', '≠', '<'])} {_nat_expr(ctx, nats, 1)})"
    if roll < 0.6:
        return base
    if roll < 0.8:
        return f"(not {base})"
    other = f"({_nat_expr(ctx, nats, 1)} < {_nat_expr(ctx, nats, 1)})"
    return f"({base} {rng.choice(['and', 'or'])} {other})"


def _call_args(ctx: _Ctx, nats: list[str], refs: list[str]) -> str:
    if ctx.fun.monad == "option":
        d = ctx.rng.choice(["A", "d", f"B({_nat_expr(ctx, nats)})"])
        return f"{_nat_expr(ctx, nats)}, {d}"
    return f"{ctx.rng.choice(refs)}, {_nat_expr(ctx, nats)}"


def _leaf(ctx: _Ctx, nats, refs) -> tuple:
    rng = ctx.rng
    roll = rng.random()
    if roll < 0.4:
        return ("ret", _nat_expr(ctx, nats))
    if roll < 0.6:
        return ("self", _call_args(ctx, nats, refs))
    callees = [f for f in ctx.earlier if f.monad == ctx.fun.monad]
    if roll < 0.75 and callees:
        return ("ext", rng.choice(callees).name, _call_args(ctx, nats, refs))
    if ctx.fun.monad == "heap":
        return ("get", rng.choice(refs))
    return ("ret", _nat_expr(ctx, nats))


def _comp(ctx: _Ctx, budget: int, nats: list[str], refs: list[str]) -> tuple:
    rng = ctx.rng
    if budget <= 1:
        return _leaf(ctx, nats, refs)
    roll = rng.random()
    rest = budget - 1
    if roll < 0.45:
        split = rng.randint(1, rest - 1) if rest > 1 else 1
        hb, bb = split, max(rest - split, 1)
        heap = ctx.fun.monad == "heap"
        if heap and rng.random() < 0.2:
            return ("bind", "_", ("set", rng.choice(refs), _nat_expr(ctx, nats)),
                    _comp(ctx, rest, nats, refs))
        x = f"x{next(ctx.fresh)}"
        if heap and rng.random() < 0.2:
            return ("bind", x, ("new", _nat_expr(ctx, nats)),
                    _comp(ctx, rest, nats, refs + [x]))
        return ("bind", x, _comp(ctx, hb, nats, refs),
                _comp(ctx, bb, nats + [x], refs))
    if roll < 0.7:
        split = rng.randint(1, rest - 1) if rest > 1 else 1
        return ("if", _bool_expr(ctx, nats), _comp(ctx, split, nats, refs),
                _comp(ctx, max(rest - split, 1), nats, refs))
    if roll < 0.85 and ctx.fun.monad == "option":
        y = f"y{next(ctx.fresh)}"
        split = rng.randint(1, rest - 1) if rest > 1 else 1
        return ("case", _comp(ctx, split, nats, refs), y,
                _comp(ctx, max(rest - split, 1), nats + [y], refs))
    return _comp(ctx, budget - 1, nats, refs) if budget > 2 else _leaf(ctx, nats, refs)


def _render(e: tuple, fname: str, nested: bool = True) -> str:
    kind = e[0]
    if kind == "ret":
        return f"return {e[1]}"
    if kind == "self":
        return f"{fname}({e[1]})"
    if kind == "ext":
        return f"{e[1]}({e[2]})"
    if kind == "get":
        return f"!{e[1]}"
    if kind == "new":
        return f"ref ({e[1]})"
    if kind == "set":
        return f"{e[1]} := {e[2]}"
    if kind == "bind":
        head = _render(e[2], fname)
        body = _render(e[3], fname, nested=False)
        if e[1] == "_":
            return f"do {head}; {body} done"
        return f"do {e[1]} ← {head}; {body} done"
    if kind == "if":
        text = f"if {e[1]} then {_render(e[2], fname)} else {_render(e[3], fname)}"
    else:
        text = (f"case d of A ⇒ {_render(e[1], fname)} "
                f"| B({e[2]}) ⇒ {_render(e[3], fname)}")
    return f"({text})" if nested else text


def count_paths(e: tuple) -> int:
    """Control-flow paths: Bind multiplies, If and Case add."""
    kind = e[0]
    if kind == "bind":
        return count_paths(e[2]) * count_paths(e[3])
    if kind == "if":
        return count_paths(e[2]) + count_paths(e[3])
    if kind == "case":
        return count_paths(e[1]) + count_paths(e[3])
    return 1


def _has_self(e: tuple) -> bool:
    kind = e[0]
    if kind == "self":
        return True
    if kind == "bind":
        return _has_self(e[2]) or _has_self(e[3])
    if kind == "if":
        return _has_self(e[2]) or _has_self(e[3])
    if kind == "case":
        return _has_self(e[1]) or _has_self(e[3])
    return False


def derivation_size(e: tuple) -> int:
    """Nodes of the continuity derivation below the Lam root: a subterm
    without a recursive call closes with one Const node."""
    if not _has_self(e):
        return 1
    kind = e[0]
    if kind == "self":
        return 1
    if kind == "bind":
        return 1 + derivation_size(e[2]) + derivation_size(e[3])
    if kind == "if":
        return 1 + derivation_size(e[2]) + derivation_size(e[3])
    return 1 + derivation_size(e[1]) + derivation_size(e[3])


def gen_program(rng: random.Random, n_funs: int, n_pures: int = 4,
                body_budget: int = 9, max_paths: int = 12) -> GenProgram:
    """A program of one datatype, ``n_pures`` pure and ``n_funs`` monadic
    definitions (alternating option and heap).  Bodies have exactly
    ``body_budget`` generator steps and at most ``max_paths`` control-flow
    paths, so every definition costs about the same to process."""
    chunks = ["datatype D = A | B nat"]
    pures = []
    for k in range(n_pures):
        name = f"p{k}"
        ctx = _Ctx(rng, _Fun(name, "pure"), [], list(pures))
        chunks.append(f"pure fun {name}(x : nat) : nat = {_nat_expr(ctx, ['x'])}")
        pures.append(name)
    funs: list[_Fun] = []
    paths, sizes = {}, {}
    for k in range(n_funs):
        monad = "option" if k % 2 == 0 else "heap"
        f = _Fun(f"f{k}" if monad == "option" else f"g{k}", monad)
        while True:
            ctx = _Ctx(rng, f, list(funs), pures)
            if monad == "option":
                body = _comp(ctx, body_budget, ["a"], [])
            else:
                body = _comp(ctx, body_budget, ["a"], ["r"])
            if _has_self(body) and count_paths(body) <= max_paths:
                break
        funs.append(f)
        params = "a : nat, d : D" if monad == "option" else "r : ref nat, a : nat"
        chunks.append(f"{monad} fun {f.name}({params}) : nat =\n  "
                      f"{_render(body, f.name, nested=False)}")
        paths[f.name] = count_paths(body)
        sizes[f.name] = 1 + derivation_size(body)
    return GenProgram("\n\n".join(chunks) + "\n", [f.name for f in funs],
                      paths, sizes, 1 + n_pures + n_funs)

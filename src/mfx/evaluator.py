"""Denotational evaluator: Kleene approximants and the fuel-bounded semantics.

The i-th approximant of a recursive definition is evaluation with a
recursion-depth budget of i: at fuel 0 the approximant is bottom everywhere,
and at fuel i+1 the body runs with recursive calls evaluated at fuel i.
At a fixed input the chain of approximants is flat: it leaves bottom at
most once, at the stabilization index s, and stays at one value from there
on.  So if any approximant up to a cap is defined, the approximant at the
cap is that value and it is the least upper bound; the least fixed point is
read off one evaluation at the cap.  A terminating run does the same work
at the cap as at s, so for a recursion with one self-call per unfolding the
cost is linear in s, or in the cap when the run diverges.  A bottom result
at the cap is reported as Diverged, which is a result kind, not an error.

Calls of previously defined functions run at the caller's current fuel:
earlier definitions are already their own fixed points, so giving them the
whole remaining budget preserves the no-mutual-recursion layering while
keeping a single cap.

Option-monad runs never touch the heap argument and yield OkPure outcomes;
heap-monad runs thread a persistent heap and yield Ok(value, heap).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .domain import (BOTTOM, Chain, Heap, Ok, OkPure, Outcome, UNIT_V,
                     VBool, VCtor, VList, VNat, VNone, VRef, VSome, Value,
                     heap_alloc, heap_get, heap_set, outcome_le)
from .errors import ChainViolation, DslTypeError, TooDeep
from .syntax import (Bind, Case, Expr, ExtCall, FunDef, If, PBin, PCall,
                     PCons, PCtor, PExpr, PNat, PNil, PNone, PNot, PBool,
                     PRefLit, Program, PSome, PUnit, PVar, RefGet, RefNew,
                     RefSet, Return, SelfCall)

# Deep fuel values nest one Python frame set per unfolding; raise the
# interpreter limit so a divergence probe at the default cap cannot blow
# the stack before reporting Diverged.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 150_000))

DEFAULT_FUEL_CAP = 1000


@dataclass(frozen=True)
class Approximant:
    """The fuel-indexed iterate of a recursive definition."""

    program: Program
    fun_name: str
    fuel: int


@dataclass(frozen=True)
class Diverged:
    """No stabilization within the fuel cap; the honest answer for a
    partial function that did not terminate within budget."""

    fuel_cap: int

    def __str__(self):
        return f"Diverged({self.fuel_cap})"


# ---------------------------------------------------------------------------
# Pure evaluation (total)
# ---------------------------------------------------------------------------


def eval_pure(p: PExpr, env: dict[str, Value], program: Program) -> Value:
    """Evaluate a pure expression or an induction-rule term.

    div and mod by zero yield 0, and natural subtraction truncates at zero,
    mirroring totalized arithmetic.  Both operands of ``and`` and ``or`` are
    evaluated.  Rule terms may bind variables to heaps and apply the
    reserved ``get_ref(r, h)`` and ``set_ref(r, v, h)``, which evaluate with
    heap_get and heap_set and raise DanglingRef on an unallocated id; every
    other expression is total on well-typed inputs.
    """
    if isinstance(p, PVar):
        return env[p.name]
    if isinstance(p, PNat):
        return VNat(p.value)
    if isinstance(p, PBool):
        return VBool(p.value)
    if isinstance(p, PUnit):
        return UNIT_V
    if isinstance(p, PNil):
        return VList(())
    if isinstance(p, PCons):
        head = eval_pure(p.head, env, program)
        tail = eval_pure(p.tail, env, program)
        assert isinstance(tail, VList)
        return VList((head,) + tail.items)
    if isinstance(p, PNone):
        return VNone()
    if isinstance(p, PSome):
        return VSome(eval_pure(p.arg, env, program))
    if isinstance(p, PCtor):
        return VCtor(p.name, tuple(eval_pure(a, env, program) for a in p.args))
    if isinstance(p, PCall):
        args = [eval_pure(a, env, program) for a in p.args]
        if p.name == "get_ref":
            return heap_get(args[1], args[0])
        if p.name == "set_ref":
            return heap_set(args[2], args[0], args[1])
        d = program.pure_def(p.name)
        return eval_pure(d.body, {name: v for (name, _), v in zip(d.params, args)},
                         program)
    if isinstance(p, PRefLit):
        return VRef(p.rid)
    if isinstance(p, PNot):
        v = eval_pure(p.arg, env, program)
        assert isinstance(v, VBool)
        return VBool(not v.value)
    if isinstance(p, PBin):
        lhs = eval_pure(p.lhs, env, program)
        rhs = eval_pure(p.rhs, env, program)
        if p.op == "=":
            return VBool(lhs == rhs)
        if p.op == "≠":
            return VBool(lhs != rhs)
        a, b = lhs.value, rhs.value
        if p.op == "and":
            return VBool(a and b)
        if p.op == "or":
            return VBool(a or b)
        assert isinstance(lhs, VNat) and isinstance(rhs, VNat)
        if p.op == "+":
            return VNat(a + b)
        if p.op == "-":
            return VNat(max(a - b, 0))
        if p.op == "div":
            return VNat(a // b if b else 0)
        if p.op == "mod":
            return VNat(a % b if b else 0)
        if p.op == "<":
            return VBool(a < b)
    raise AssertionError(p)


def _match(pat_ctor: str, pat_vars: tuple[str, ...], v: Value):
    if pat_ctor == "None":
        return {} if isinstance(v, VNone) else None
    if pat_ctor == "Some":
        return {pat_vars[0]: v.value} if isinstance(v, VSome) else None
    if isinstance(v, VCtor) and v.name == pat_ctor:
        return dict(zip(pat_vars, v.args))
    return None


# ---------------------------------------------------------------------------
# Monadic evaluation
# ---------------------------------------------------------------------------


def _check_args(fundef: FunDef, args: tuple[Value, ...]):
    if len(args) != len(fundef.params):
        raise DslTypeError(
            f"{fundef.name!r} expects {len(fundef.params)} argument(s), "
            f"got {len(args)}")


def eval_approx(a: Approximant, args: tuple[Value, ...], h: Heap) -> Outcome:
    """The value of the fuel-indexed iterate at (args, h).

    At fuel 0 the result is Bottom without looking at the body.  Option
    functions ignore the heap and return OkPure or Bottom.
    """
    fundef = a.program.fun_def(a.fun_name)
    _check_args(fundef, tuple(args))
    if a.fuel <= 0:
        return BOTTOM
    env = {name: v for (name, _), v in zip(fundef.params, args)}
    return _eval_body(a.program, fundef, env, h, a.fuel - 1)


def unfold_once(program: Program, fun_name: str, args: tuple[Value, ...],
                h: Heap, fuel: int) -> Outcome:
    """Evaluate the body once with recursive calls run at the given fuel.

    This is the functional applied to the fuel-indexed iterate; at a
    stabilization point it must reproduce the stabilized outcome (the
    fixed-point equation at desk scale).
    """
    fundef = program.fun_def(fun_name)
    _check_args(fundef, tuple(args))
    env = {name: v for (name, _), v in zip(fundef.params, args)}
    return _eval_body(program, fundef, env, h, fuel)


def _eval_body(program: Program, fundef: FunDef, env: dict[str, Value],
               h: Heap, fuel: int) -> Outcome:
    is_heap = fundef.monad == "heap"

    def go(e: Expr, env: dict[str, Value], h: Heap) -> Outcome:
        if isinstance(e, Return):
            v = eval_pure(e.value, env, program)
            return Ok(v, h) if is_heap else OkPure(v)
        if isinstance(e, Bind):
            out = go(e.head, env, h)
            if out == BOTTOM:
                return BOTTOM
            if is_heap:
                return go(e.body, {**env, e.var: out.value}, out.heap)
            return go(e.body, {**env, e.var: out.value}, h)
        if isinstance(e, If):
            c = eval_pure(e.cond, env, program)
            assert isinstance(c, VBool)
            return go(e.then if c.value else e.els, env, h)
        if isinstance(e, Case):
            scrut = eval_pure(e.scrutinee, env, program)
            for pat, body in e.branches:
                binds = _match(pat.ctor, pat.vars, scrut)
                if binds is not None:
                    return go(body, {**env, **binds}, h)
            raise AssertionError(f"no branch matched {scrut}")
        if isinstance(e, SelfCall):
            if fuel <= 0:
                return BOTTOM
            vals = tuple(eval_pure(a, env, program) for a in e.args)
            inner = {name: v for (name, _), v in zip(fundef.params, vals)}
            return _eval_body(program, fundef, inner, h, fuel - 1)
        if isinstance(e, ExtCall):
            callee = program.fun_def(e.name)
            vals = tuple(eval_pure(a, env, program) for a in e.args)
            # Earlier definitions get the whole remaining budget: at fuel f
            # the callee's own iterate runs at index f.
            return eval_approx(Approximant(program, e.name, fuel + 1), vals, h)
        if isinstance(e, RefNew):
            v = eval_pure(e.value, env, program)
            r, h2 = heap_alloc(h, v)
            return Ok(r, h2)
        if isinstance(e, RefGet):
            r = eval_pure(e.ref, env, program)
            assert isinstance(r, VRef)
            return Ok(heap_get(h, r), h)
        if isinstance(e, RefSet):
            r = eval_pure(e.ref, env, program)
            assert isinstance(r, VRef)
            v = eval_pure(e.value, env, program)
            return Ok(UNIT_V, heap_set(h, r, v))
        raise AssertionError(e)

    return go(fundef.body, env, h)


# ---------------------------------------------------------------------------
# Chains, least fixed points, and the semantics relation
# ---------------------------------------------------------------------------


def approx_chain(program: Program, fun_name: str, args, h: Heap,
                 max_fuel: int) -> Chain:
    """The outcomes of the iterates at fuels 0..max_fuel, as a chain.

    The chain condition is asserted, not assumed: a violation means the
    evaluator or the continuity checker is broken.
    """
    if max_fuel < 1:
        raise ValueError("max_fuel must be at least 1")
    elems = tuple(
        eval_approx(Approximant(program, fun_name, i), tuple(args), h)
        for i in range(max_fuel + 1))
    for i in range(max_fuel):
        if not outcome_le(elems[i], elems[i + 1]):
            raise ChainViolation(
                f"{fun_name}: approximant {i} ⋢ approximant {i + 1}")
    return Chain(elems)


def run_lfp(program: Program, fun_name: str, args, h: Heap,
            fuel_cap: int = DEFAULT_FUEL_CAP) -> Outcome | Diverged:
    """The least fixed point at (args, h), or Diverged(fuel_cap).

    The per-input chain is flat in both monads, so the approximant at the
    cap equals the first non-Bottom approximant whenever one exists at or
    below the cap: one evaluation at the cap yields the lub.  For a
    recursion with one self-call per unfolding the cost is linear in the
    stabilization index, or in the cap when the run diverges.
    Raises TooDeep when the cap lets the run nest deeper than Python's
    recursion limit.
    """
    try:
        out = eval_approx(Approximant(program, fun_name, fuel_cap), tuple(args), h)
    except RecursionError:
        raise TooDeep(f"fuel cap {fuel_cap} nests the run deeper than the "
                      "evaluator can go; use a smaller cap") from None
    return Diverged(fuel_cap) if out == BOTTOM else out


def in_semantics(program: Program, t_fun: str, args, h: Heap, h2: Heap,
                 y: Value, fuel_cap: int = DEFAULT_FUEL_CAP) -> bool:
    """Fuel-bounded membership in the semantics relation of an applied call.

    True means the run terminates on h without failure, producing exactly
    the heap h2 and value y.  False may also mean "not within cap".
    """
    out = run_lfp(program, t_fun, args, h, fuel_cap)
    fundef = program.fun_def(t_fun)
    if fundef.monad == "heap":
        return out == Ok(y, h2)
    return isinstance(out, OkPure) and out.value == y

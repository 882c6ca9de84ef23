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
heap-monad runs yield Ok(value, heap).  The heap monad threads its heap
linearly (bottom carries no heap, a bind passes the heap on, and no branch
goes back to an earlier one), so a run owns one mutable store, as in
Imperative HOL: the run copies the input heap into an id -> value dict once,
reads, writes and allocates in that dict in O(1), and freezes it into the
result heap once.  Bottom and a dangling reference just drop the store, and
the input heap is never changed.

Every definition is compiled once per Program object, on first use, and
the code is kept in ``Program.compiled``.  Pure expressions and rule terms
become closures from an environment to a value (closure generation).  Pure
code cannot recurse, so its nesting is bounded by the program text.  A
monadic body becomes a step function, and one loop runs the steps over an
explicit stack of pending binds: the CEK machine obtained by
defunctionalizing a direct-style evaluator.  A recursive call is a jump of
that loop, not a Python call, so the depth of a run is bounded by memory
alone.  Bottom propagates through every bind of both monads, so a self-call
at fuel 0 ends the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .domain import (BOTTOM, FALSE, TRUE, Chain, Heap, Ok, OkPure, Outcome,
                     UNIT_V, VCtor, VNat, VNone, VRef, VSome, Value, cons,
                     dangling, heap_get, heap_set, outcome_le, pexpr_to_value)
from .errors import ChainViolation, DslTypeError
from .syntax import (Bind, Case, Expr, ExtCall, If, PBin, PCall, PCons,
                     PCtor, PExpr, PNat, PNil, PNone, PNot, PBool, PRefLit,
                     Program, PSome, PUnit, PVar, RefGet, RefNew, RefSet,
                     Return, SelfCall)

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
# Pure code (total): closures from an environment to a value
# ---------------------------------------------------------------------------

if TYPE_CHECKING:  # a runtime alias would pin Value in typing's cache
    PureCode = Callable[[dict], Value]
    Step = Callable[..., tuple]


def _div(a: int, b: int) -> VNat:
    return VNat(a // b if b else 0)


def _mod(a: int, b: int) -> VNat:
    return VNat(a % b if b else 0)


# Operator -> closure over the compiled operands.  Both operands of ``and``
# and ``or`` are evaluated (``&`` and ``|`` on bools do not short-circuit).
_BINOPS = {
    "=": lambda l, r: lambda env: TRUE if l(env) == r(env) else FALSE,
    "≠": lambda l, r: lambda env: FALSE if l(env) == r(env) else TRUE,
    "and": lambda l, r: lambda env: TRUE if l(env).value & r(env).value else FALSE,
    "or": lambda l, r: lambda env: TRUE if l(env).value | r(env).value else FALSE,
    "<": lambda l, r: lambda env: TRUE if l(env).value < r(env).value else FALSE,
    "+": lambda l, r: lambda env: VNat(l(env).value + r(env).value),
    "-": lambda l, r: lambda env: VNat(max(l(env).value - r(env).value, 0)),
    "div": lambda l, r: lambda env: _div(l(env).value, r(env).value),
    "mod": lambda l, r: lambda env: _mod(l(env).value, r(env).value),
}

_LITERALS = (PNat, PBool, PUnit, PNil, PNone, PRefLit)


def _binder(names: tuple[str, ...], args: tuple[PureCode, ...]) -> PureCode:
    """A closure from the caller's environment to a callee's, which binds
    each parameter to its evaluated argument, left to right."""
    if len(names) == len(args) == 1:
        (name,), (arg,) = names, args
        return lambda env: {name: arg(env)}
    pairs = tuple(zip(names, args))
    return lambda env: {name: arg(env) for name, arg in pairs}


def compile_pure(p: PExpr, program: Program) -> PureCode:
    """Compile a pure expression or an induction-rule term to a closure
    from an environment to its value.

    div and mod by zero yield 0, and natural subtraction truncates at zero,
    mirroring totalized arithmetic.  Both operands of ``and`` and ``or`` are
    evaluated.  Rule terms may bind variables to heaps and apply the
    reserved ``get_ref(r, h)`` and ``set_ref(r, v, h)``, which evaluate with
    heap_get and heap_set and raise DanglingRef on an unallocated id; every
    other expression is total on well-typed inputs.  A call of a pure
    definition calls that definition's code, compiled once per program.
    """
    if isinstance(p, PVar):
        return itemgetter(p.name)
    if isinstance(p, _LITERALS) or isinstance(p, PCtor) and not p.args:
        v = pexpr_to_value(p)
        return lambda env: v
    if isinstance(p, PBin):
        return _BINOPS[p.op](compile_pure(p.lhs, program),
                             compile_pure(p.rhs, program))
    if isinstance(p, PCons):
        head, tail = compile_pure(p.head, program), compile_pure(p.tail, program)
        return lambda env: cons(head(env), tail(env))
    if isinstance(p, PSome):
        arg = compile_pure(p.arg, program)
        return lambda env: VSome(arg(env))
    if isinstance(p, PNot):
        arg = compile_pure(p.arg, program)
        return lambda env: FALSE if arg(env).value else TRUE
    args = tuple(compile_pure(a, program) for a in p.args)
    if isinstance(p, PCtor):
        name = p.name
        return lambda env: VCtor(name, tuple([a(env) for a in args]))
    if isinstance(p, PCall):
        if p.name == "get_ref":
            r, h = args
            return lambda env: heap_get(h(env), r(env))
        if p.name == "set_ref":
            r, v, h = args
            return lambda env: heap_set(h(env), r(env), v(env))
        body, params = _pure_def(program, p.name)
        bind = _binder(params, args)
        return lambda env: body(bind(env))
    raise AssertionError(p)


def _pure_def(program: Program, name: str) -> tuple[PureCode, tuple[str, ...]]:
    """The compiled body and the parameter names of a pure definition."""
    key = ("pure", name)
    code = program.compiled.get(key)
    if code is None:
        d = program.pure_def(name)
        code = program.compiled[key] = (compile_pure(d.body, program),
                                        tuple(n for n, _ in d.params))
    return code


def eval_pure(p: PExpr, env: dict[str, Value], program: Program) -> Value:
    """Evaluate a pure expression or an induction-rule term once.

    Compiles ``p`` with compile_pure and applies the code to ``env``; a
    caller that evaluates one term many times should compile it once.
    """
    return compile_pure(p, program)(env)


# ---------------------------------------------------------------------------
# Monadic code: steps run by one loop over an explicit stack
# ---------------------------------------------------------------------------
#
# A step is called as step(push, env, store, fuel, fn) and returns the next
# machine state (code, x, fuel, fn).  store is the run's mutable heap (None
# in an option-monad run), fn is the body of the function being run, which
# a self-call re-enters, and fuel is the budget left for its recursive
# calls.  When code is None, x is the value just returned; otherwise x is
# the environment that code runs in.  A bind calls push to save its pending
# body as the frame (body, var, env, fuel, fn), and the loop resumes the
# innermost frame with each returned value.  If and case call their branch
# directly, and a bind its head: that nesting is bounded by the program
# text.  Code refers to its own function only through fn, so compiled code
# holds no reference cycle.


class _Fun(NamedTuple):
    """A compiled monadic definition."""

    body: Step
    params: tuple[str, ...]
    is_heap: bool


class _Bottom(Exception):
    """A self-call at fuel 0: bottom, which ends the whole run."""


class _Store:
    """The heap of one heap-monad run: an id -> value dict that the run
    owns, and the next id to allocate."""

    __slots__ = ("cells", "next_id")

    def __init__(self, h: Heap):
        self.cells = h.as_dict().copy()
        self.next_id = h.next_id

    def freeze(self) -> Heap:
        """The store as a heap; the store must not be used afterwards.
        Allocation takes ids in ascending order, so the dict stays sorted."""
        return Heap.of_dict(self.cells, self.next_id)


def _fun(program: Program, name: str) -> _Fun:
    """The compiled code of a monadic definition."""
    key = ("fun", name)
    f = program.compiled.get(key)
    if f is None:
        d = program.fun_def(name)
        params = tuple(n for n, _ in d.params)
        f = program.compiled[key] = _Fun(_compile_expr(d.body, params, program),
                                         params, d.monad == "heap")
    return f


def _constructor(v: Value) -> tuple[str | None, tuple[Value, ...]]:
    """The constructor name and the arguments of a value a case splits on."""
    t = type(v)
    if t is VCtor:
        return v.name, v.args
    if t is VSome:
        return "Some", (v.value,)
    return ("None" if t is VNone else None), ()


def _compile_expr(e: Expr, params: tuple[str, ...], program: Program) -> Step:
    """Compile a monadic body whose function has the given parameters."""
    def pure(p: PExpr) -> PureCode:
        return compile_pure(p, program)

    def comp(sub: Expr) -> Step:
        return _compile_expr(sub, params, program)

    if isinstance(e, Return):
        v = pure(e.value)
        return lambda push, env, store, fuel, fn: (None, v(env), fuel, fn)
    if isinstance(e, Bind):
        var, head, body = e.var, comp(e.head), comp(e.body)

        def bind(push, env, store, fuel, fn):
            push((body, var, env, fuel, fn))
            return head(push, env, store, fuel, fn)
        return bind
    if isinstance(e, If):
        cond, then, els = pure(e.cond), comp(e.then), comp(e.els)
        return lambda push, env, store, fuel, fn: \
            (then if cond(env).value else els)(push, env, store, fuel, fn)
    if isinstance(e, Case):
        scrut = pure(e.scrutinee)
        branches: dict[str, tuple[tuple[str, ...], Step]] = {}
        for pat, body in e.branches:
            branches.setdefault(pat.ctor, (pat.vars, comp(body)))

        def case(push, env, store, fuel, fn):
            v = scrut(env)
            ctor, args = _constructor(v)
            if ctor not in branches:
                raise AssertionError(f"no branch matched {v}")
            names, body = branches[ctor]
            if names:
                env = env.copy()
                env.update(zip(names, args))
            return body(push, env, store, fuel, fn)
        return case
    if isinstance(e, SelfCall):
        bind_args = _binder(params, tuple(map(pure, e.args)))

        def self_call(push, env, store, fuel, fn):
            if fuel <= 0:
                raise _Bottom
            return fn, bind_args(env), fuel - 1, fn
        return self_call
    if isinstance(e, ExtCall):
        # Earlier definitions get the whole remaining budget: at fuel f
        # the callee's own iterate runs at index f + 1.
        callee = _fun(program, e.name)
        callee_body = callee.body
        bind_args = _binder(callee.params, tuple(map(pure, e.args)))
        return lambda push, env, store, fuel, fn: \
            (callee_body, bind_args(env), fuel, callee_body)
    if isinstance(e, RefNew):
        v = pure(e.value)

        def ref_new(push, env, store, fuel, fn):
            rid = store.next_id
            store.cells[rid] = v(env)
            store.next_id = rid + 1
            return None, VRef(rid), fuel, fn
        return ref_new
    if isinstance(e, RefGet):
        ref = pure(e.ref)

        def ref_get(push, env, store, fuel, fn):
            r = ref(env)
            try:
                return None, store.cells[r.rid], fuel, fn
            except KeyError:
                raise dangling(r.rid) from None
        return ref_get
    if isinstance(e, RefSet):
        ref, v = pure(e.ref), pure(e.value)

        def ref_set(push, env, store, fuel, fn):
            r, value, cells = ref(env), v(env), store.cells
            if r.rid not in cells:
                raise dangling(r.rid)
            cells[r.rid] = value
            return None, UNIT_V, fuel, fn
        return ref_set
    raise AssertionError(e)


def _run(f: _Fun, args: tuple[Value, ...], h: Heap, fuel: int) -> Outcome:
    """Run f's body on args and h, with recursive calls at the given fuel."""
    stack: list[tuple] = []
    push, pop = stack.append, stack.pop
    store = _Store(h) if f.is_heap else None
    code = fn = f.body
    x = dict(zip(f.params, args))
    try:
        while True:
            code, x, fuel, fn = code(push, x, store, fuel, fn)
            if code is None:
                if not stack:
                    break
                code, var, env, fuel, fn = pop()
                x = {**env, var: x}
    except _Bottom:
        return BOTTOM
    return Ok(x, store.freeze()) if f.is_heap else OkPure(x)


def _entry(program: Program, fun_name: str, args: tuple[Value, ...]) -> _Fun:
    f = _fun(program, fun_name)
    if len(args) != len(f.params):
        raise DslTypeError(
            f"{fun_name!r} expects {len(f.params)} argument(s), "
            f"got {len(args)}")
    return f


def eval_approx(a: Approximant, args: tuple[Value, ...], h: Heap) -> Outcome:
    """The value of the fuel-indexed iterate at (args, h).

    At fuel 0 the result is Bottom without looking at the body.  Option
    functions ignore the heap and return OkPure or Bottom.
    """
    args = tuple(args)
    f = _entry(a.program, a.fun_name, args)
    if a.fuel <= 0:
        return BOTTOM
    return _run(f, args, h, a.fuel - 1)


def unfold_once(program: Program, fun_name: str, args: tuple[Value, ...],
                h: Heap, fuel: int) -> Outcome:
    """Evaluate the body once with recursive calls run at the given fuel.

    This is the functional applied to the fuel-indexed iterate; at a
    stabilization point it must reproduce the stabilized outcome (the
    fixed-point equation at desk scale).
    """
    args = tuple(args)
    return _run(_entry(program, fun_name, args), args, h, fuel)


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
    stabilization index, or in the cap when the run diverges.  Pending
    binds live on the evaluator's own stack, so any cap runs; a large one
    costs only time and memory.
    """
    out = eval_approx(Approximant(program, fun_name, fuel_cap), tuple(args), h)
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

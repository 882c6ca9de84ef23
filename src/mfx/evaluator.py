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
the code is kept in ``Program.compiled``.  As Imperative HOL runs heap
programs as generated code, compiling generates Python source and compiles
it with ``compile()``.  A monadic body becomes one function per segment,
the code between two call points, and one loop runs the segments over an
explicit stack of pending binds: the CEK machine obtained by
defunctionalizing a direct-style evaluator.  A call is a jump of that
loop, not a Python call, so the depth of a run is bounded by memory alone.
A bind whose head cannot call (``return``, ``!r``, ``r := e``, ``ref e``,
and ``if``/``case`` over those) runs in place with its binder in a Python
local.  Bottom propagates through every bind of both monads, so a
self-call at fuel 0 ends the whole run.

Pure code and rule terms are emitted in three-address form, one line per
node, and list spines by a loop.  An ``if`` or ``case`` nested deeper than a
fixed depth becomes a function of its own, within Python's nesting limits.
Code is cached by its source text in one bounded cache, as the CLI parses
its file on every call.  A rule term's code is also kept in
``Program.compiled`` under the term, as audits compile the same rule terms
every time; a rule term that is a variable or a literal needs no source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from types import CodeType
from typing import TYPE_CHECKING, Callable, NamedTuple

from .domain import (BOTTOM, FALSE, TRUE, Chain, Heap, Ok, OkPure, Outcome,
                     UNIT_V, VCtor, VNat, VNone, VRef, VSome, Value, cons,
                     dangling, heap_get, heap_set, outcome_le, pexpr_to_value)
from .errors import ChainViolation, DslTypeError
from .syntax import (Bind, Case, Expr, ExtCall, If, PBin, PCons, PCtor, PExpr,
                     PNat, PNil, PNone, PNot, PBool, PRefLit, Program, PSome,
                     PUnit, PVar, RefGet, RefNew, RefSet, Return, SelfCall,
                     _expr_children, free_vars)

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
# Code generation
# ---------------------------------------------------------------------------
#
# A segment is called as seg(push, env, x, store, fuel, fn), with env the
# variables it reads from outside and store the run's heap (None in the
# option monad), and returns the next state (code, env, x, fuel, fn), where
# x is the value returned when code is None.  A bind whose head may call
# pushes the frame (segment, env, fuel, fn) of its body, which the loop
# resumes with the returned value as x.

if TYPE_CHECKING:  # a runtime alias would pin Value in typing's cache
    PureCode = Callable[[dict], Value]
    Step = Callable[..., tuple]

_LITERALS = (PNat, PBool, PUnit, PNil, PNone, PRefLit)
_MAX_NESTING = 16          # blocks nested in one generated function
_CODE_CACHE_SIZE = 256     # compiled sources kept, keyed by their text

# One line per operator.  Both operands of ``and`` and ``or`` are
# evaluated, div and mod by 0 give 0, and ``-`` truncates at 0.
_OPS = {
    "=": "TRUE if {0} == {1} else FALSE",
    "≠": "FALSE if {0} == {1} else TRUE",
    "<": "TRUE if {0}.value < {1}.value else FALSE",
    "and": "TRUE if {0}.value & {1}.value else FALSE",
    "or": "TRUE if {0}.value | {1}.value else FALSE",
    "+": "VNat({0}.value + {1}.value)",
    "-": "VNat(max({0}.value - {1}.value, 0))",
    "div": "VNat({0}.value // {1}.value if {1}.value else 0)",
    "mod": "VNat({0}.value % {1}.value if {1}.value else 0)",
}
_SIGNATURES = {"seg": "push, env, x, store, fuel, fn", "val": "env, store",
               "term": "env"}


class _Bottom(Exception):
    """A self-call at fuel 0: bottom, which ends the whole run."""


# The globals of generated code besides its constants k<n>.
_RUNTIME = {"VNat": VNat, "VSome": VSome, "VNone": VNone, "VCtor": VCtor,
            "VRef": VRef, "TRUE": TRUE, "FALSE": FALSE, "UNIT": UNIT_V,
            "cons": cons, "heap_get": heap_get, "heap_set": heap_set,
            "dangling": dangling, "Bottom": _Bottom}


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> CodeType:
    return compile(source, "<mfx>", "exec")


def _may_call(e: Expr) -> bool:
    """Whether running e may call a function, so a bind on it pushes."""
    return isinstance(e, (SelfCall, ExtCall)) or \
        any(_may_call(sub) for _, sub in _expr_children(e)[1])


class _Emitter:
    """The source of one definition or rule term, and its constants.

    A DSL variable is a local t<n> or, when bound outside the function, a
    key of env; values, constructor names and callee code are constants
    k<n> of the globals.  The functions f<n> are defined in one factory,
    mk, which returns f0.  The globals do not keep mk, and code reaches its
    own function only through fn, so compiled code holds no cycle.
    """

    def __init__(self, program: Program, params: tuple[str, ...] = ()):
        self.program, self.params = program, params
        self.consts: dict[str, object] = {}
        self.todo: list[tuple[str, str, Expr | PExpr, str | None]] = []
        self.src = ["def mk():"]
        self.temps = self.indent = 0
        self.scope: dict[str, str] = {}   # DSL name -> atom holding it
        self.locals: set[str] = set()     # names bound in this function

    @staticmethod
    def quote(name: str) -> str:
        """The one way DSL text enters the source: a name as a str literal."""
        if type(name) is not str:
            raise TypeError(f"not a name: {name!r}")
        return repr(name)

    def load(self, kind: str, e: Expr | PExpr):
        """Emit e as f0, a seg, a term or a pure definition's body, and
        the functions it needs; compile the source and run the factory."""
        self.later(kind, e)
        for name, kind, e, var in self.todo:  # grows as segments are found
            self.scope, self.locals = {}, set()
            sig = ", ".join(self.bind(p, self.new()) for p in self.params) \
                if kind == "pure" else _SIGNATURES[kind]
            self.src.append(f"    def {name}({sig}):")
            self.indent = 2
            if var is not None:
                self.bind(var, "x")
            if kind == "seg":
                self.tail(e)
            else:
                self.line(f"return {self.value(e) if kind == 'val' else self.pure(e)}")
        self.src.append("    return f0")
        g = {**_RUNTIME, **self.consts}
        exec(_code("\n".join(self.src)), g)
        return g.pop("mk")()

    def later(self, kind: str, e, var: str | None = None) -> str:
        self.todo.append((f"f{len(self.todo)}", kind, e, var))
        return self.todo[-1][0]

    def line(self, text: str):
        self.src.append("    " * self.indent + text)

    def new(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def let(self, rhs: str) -> str:
        t = self.new()
        self.line(f"{t} = {rhs}")
        return t

    def const(self, v) -> str:
        k = f"k{len(self.consts)}"
        self.consts[k] = v
        return k

    def bind(self, name: str, atom: str) -> str:
        self.scope[name] = atom
        self.locals.add(name)
        return atom

    def var(self, name: str) -> str:
        if name not in self.scope:
            self.scope[name] = self.let(f"env[{self.quote(name)}]")
        return self.scope[name]

    def env(self, names, atoms) -> str:
        return "{%s}" % ", ".join(f"{self.quote(n)}: {a}" for n, a in zip(names, atoms))

    def env_of(self, names: set[str]) -> str:
        """An environment holding names: env itself when none is local."""
        if not names & self.locals:
            return "env"
        names = sorted(names)
        return self.env(names, [self.var(n) for n in names])

    def pure(self, p: PExpr) -> str:
        """Emit p, one line per node, and return the atom holding its value."""
        if isinstance(p, PVar):
            return self.var(p.name)
        if isinstance(p, _LITERALS) or isinstance(p, PCtor) and not p.args:
            return self.const(pexpr_to_value(p))
        if isinstance(p, PCons):
            heads = []
            while isinstance(p, PCons):
                heads.append(self.pure(p.head))
                p = p.tail
            out = self.pure(p)
            for head in reversed(heads):
                out = self.let(f"cons({head}, {out})")
            return out
        if isinstance(p, PBin):
            lhs = self.pure(p.lhs)
            return self.let(_OPS[p.op].format(lhs, self.pure(p.rhs)))
        if isinstance(p, PSome):
            return self.let(f"VSome({self.pure(p.arg)})")
        if isinstance(p, PNot):
            return self.let(f"FALSE if {self.pure(p.arg)}.value else TRUE")
        args = [self.pure(a) for a in p.args]
        if isinstance(p, PCtor):
            return self.let(f"VCtor({self.const(p.name)}, "
                            f"({''.join(a + ', ' for a in args)}))")
        if p.name == "get_ref":
            return self.let(f"heap_get({args[1]}, {args[0]})")
        if p.name == "set_ref":
            return self.let(f"heap_set({args[2]}, {args[0]}, {args[1]})")
        code = self.const(_pure_def(self.program, p.name))
        return self.let(f"{code}({', '.join(args)})")

    def tail(self, e: Expr):
        """Emit e in tail position: code that returns the next state."""
        while isinstance(e, Bind):
            if _may_call(e.head):
                seg = self.later("seg", e.body, e.var)
                env = self.env_of(free_vars(e.body) - {e.var})
                self.line(f"push(({seg}, {env}, fuel, fn))")
                e = e.head
            else:
                self.bind(e.var, self.value(e.head))
                e = e.body
        if isinstance(e, (If, Case)):
            self.branches(e, None)
        elif isinstance(e, SelfCall):
            self.line("if fuel <= 0:")
            self.line("    raise Bottom")
            env = self.env(self.params, [self.pure(a) for a in e.args])
            self.line(f"return fn, {env}, None, fuel - 1, fn")
        elif isinstance(e, ExtCall):
            # Earlier definitions get the whole remaining budget: at fuel
            # f the callee's own iterate runs at index f + 1.
            callee = _fun(self.program, e.name)
            code = self.const(callee.body)
            env = self.env(callee.params, [self.pure(a) for a in e.args])
            self.line(f"return {code}, {env}, None, fuel, {code}")
        else:
            self.line(f"return None, None, {self.value(e)}, fuel, fn")

    def value(self, e: Expr) -> str:
        """Emit the call-free e and return the atom holding its value."""
        while isinstance(e, Bind):
            self.bind(e.var, self.value(e.head))
            e = e.body
        if isinstance(e, Return):
            return self.pure(e.value)
        if isinstance(e, (If, Case)):
            return self.branches(e, self.new())
        if isinstance(e, RefNew):
            v = self.pure(e.value)
            rid = self.let("store.next_id")
            self.line(f"store.cells[{rid}] = {v}")
            self.line(f"store.next_id = {rid} + 1")
            return self.let(f"VRef({rid})")
        ref = self.pure(e.ref)
        if isinstance(e, RefGet):
            out = self.let(f"store.cells.get({ref}.rid)")
            self.line(f"if {out} is None:")
        else:
            v, out = self.pure(e.value), "UNIT"
            self.line(f"if {ref}.rid not in store.cells:")
        self.line(f"    raise dangling({ref}.rid)")
        if isinstance(e, RefSet):
            self.line(f"store.cells[{ref}.rid] = {v}")
        return out

    def branches(self, e: If | Case, target: str | None) -> str | None:
        """Emit an if or a case whose branches return the next state or,
        given a target, assign their value to it.  Past _MAX_NESTING the
        whole if or case becomes a function of its own."""
        if self.indent - 2 >= _MAX_NESTING:
            env = self.env_of(free_vars(e))
            if target is None:
                self.line(f"return {self.later('seg', e)}, {env}, None, fuel, fn")
            else:
                self.line(f"{target} = {self.later('val', e)}({env}, store)")
            return target
        if isinstance(e, If):
            arms = [(f"if {self.pure(e.cond)}.value:", (), e.then),
                    ("else:", (), e.els)]
        else:
            s = self.pure(e.scrutinee)
            option = any(pat.ctor in ("Some", "None") for pat, _ in e.branches)
            tag = self.let(f"{s}.__class__" if option else
                           f"{s}.name if {s}.__class__ is VCtor else None")
            arms, seen = [], set()
            for pat, body in e.branches:
                if pat.ctor not in seen:  # the first branch of a ctor wins
                    seen.add(pat.ctor)
                    k = self.const({"Some": VSome, "None": VNone}[pat.ctor]
                                   if option else pat.ctor)
                    fields = [f"{s}.value"] if option else \
                        [f"{s}.args[{i}]" for i in range(len(pat.vars))]
                    arms.append((f"{'elif' if arms else 'if'} {tag} == {k}:",
                                 tuple(zip(pat.vars, fields)), body))
            arms.append(("else:", (), None))
        for head, fields, body in arms:
            saved = self.scope.copy(), self.locals.copy()
            self.line(head)
            self.indent += 1
            for name, field in fields:
                self.bind(name, field)
            if body is None:
                self.line(f"raise AssertionError(f'no branch matched {{{s}}}')")
            elif target is None:
                self.tail(body)
            else:
                self.line(f"{target} = {self.value(body)}")
            self.indent -= 1
            self.scope, self.locals = saved
        return target


def compile_pure(p: PExpr, program: Program) -> PureCode:
    """Compile a pure expression or an induction-rule term to a function
    from an environment to its value.

    div and mod by zero yield 0, and natural subtraction truncates at zero,
    mirroring totalized arithmetic.  Both operands of ``and`` and ``or`` are
    evaluated.  Rule terms may bind variables to heaps and apply the
    reserved ``get_ref(r, h)`` and ``set_ref(r, v, h)``, which evaluate with
    heap_get and heap_set and raise DanglingRef on an unallocated id; every
    other expression is total on well-typed inputs.  A call of a pure
    definition calls that definition's code, compiled once per program.
    The code of a term is kept in ``program.compiled`` under the term, which
    compares and hashes without positions, so an equal term is emitted once.
    """
    if isinstance(p, PVar):
        return itemgetter(p.name)
    if isinstance(p, _LITERALS) or isinstance(p, PCtor) and not p.args:
        v = pexpr_to_value(p)
        return lambda env: v
    key = ("term", p)
    code = program.compiled.get(key)
    if code is None:
        code = program.compiled[key] = _Emitter(program).load("term", p)
    return code


def _pure_def(program: Program, name: str) -> Callable[..., Value]:
    """The code of a pure definition: a function of its arguments."""
    key = ("pure", name)
    code = program.compiled.get(key)
    if code is None:
        d = program.pure_def(name)
        code = program.compiled[key] = _Emitter(
            program, tuple(n for n, _ in d.params)).load("pure", d.body)
    return code


def eval_pure(p: PExpr, env: dict[str, Value], program: Program) -> Value:
    """Evaluate a pure expression or an induction-rule term once.

    Compiles ``p`` with compile_pure and applies the code to ``env``; a
    caller that evaluates one term many times should compile it once.
    """
    return compile_pure(p, program)(env)


# ---------------------------------------------------------------------------
# Monadic code: segments run by one loop over an explicit stack
# ---------------------------------------------------------------------------


class _Fun(NamedTuple):
    """A compiled monadic definition."""

    body: Step
    params: tuple[str, ...]
    is_heap: bool


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
        f = program.compiled[key] = _Fun(
            _Emitter(program, params).load("seg", d.body), params,
            d.monad == "heap")
    return f


def _run(f: _Fun, args: tuple[Value, ...], h: Heap, fuel: int) -> Outcome:
    """Run f's body on args and h, with recursive calls at the given fuel."""
    stack: list[tuple] = []
    push, pop = stack.append, stack.pop
    store = _Store(h) if f.is_heap else None
    code = fn = f.body
    env, x = dict(zip(f.params, args)), None
    try:
        while True:
            code, env, x, fuel, fn = code(push, env, x, store, fuel, fn)
            if code is None:
                if not stack:
                    break
                code, env, fuel, fn = pop()
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

"""Independent reference implementations used to freeze expected values.

Each oracle is written directly against the mathematical description, not
against the evaluator: trace as the plain recursion over step n = n div 2,
traverse as a pure walk over the finite heap map, and occurs as graph
reachability.  Divergence is represented by None.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

from mfx.corpus import corpus_path, load_program
from mfx.domain import (Heap, Ok, OkPure, VBool, VCtor, VList, VNat, VNone,
                        VRef, VSome, VUnit, Value, parse_heap)
from mfx.errors import DanglingRef, MfxError
from mfx.syntax import (Bind, Case, Expr, ExtCall, If, PBin, PBool, PCall,
                        PCons, PCtor, PExpr, PNat, PNil, PNone, PNot,
                        PRefLit, Program, PSome, PUnit, PVar, RefGet, RefNew,
                        Return, SelfCall, parse_pexpr, parse_program,
                        pretty_program, tokenize)


def bench_gen():
    """bench/gen.py, the seeded program generator (it imports no mfx)."""
    path = Path(__file__).parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("mfx_bench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def trace_ref(n: int) -> list[int]:
    """Even values seen while iterating n -> n div 2 down to zero."""
    if n == 0:
        return []
    rest = trace_ref(n // 2)
    return [n] + rest if n % 2 == 0 else rest


def trace_value(n: int) -> VList:
    return VList(tuple(VNat(i) for i in trace_ref(n)))


def walk_list(h: Heap, node: Value, limit: int = 10_000) -> list[Value] | None:
    """Pure walk of a linked list; None when the chain does not reach Empty."""
    out: list[Value] = []
    seen: set[int] = set()
    while True:
        if node == VCtor("Empty", ()):
            return out
        if not (isinstance(node, VCtor) and node.name == "Node"):
            return None
        x, r = node.args
        if r.rid in seen or len(out) > limit:
            return None
        seen.add(r.rid)
        out.append(x)
        node = h.lookup(r.rid)


def reachable(h: Heap, r2: int) -> set[int]:
    """Ids reachable from r2 following instantiated variables and
    application children."""
    seen: set[int] = set()
    stack = [r2]
    while stack:
        r = stack.pop()
        if r in seen:
            continue
        seen.add(r)
        cell = h.lookup(r)
        if cell.name == "Var" and isinstance(cell.args[1], VSome):
            stack.append(cell.args[1].value.rid)
        elif cell.name == "App":
            stack.extend(a.rid for a in cell.args)
    return seen


def occurs_in(h: Heap, r1: int, r2: int) -> bool:
    return r1 in reachable(h, r2)


# ---------------------------------------------------------------------------
# Structured random generators (seeded by the caller)
# ---------------------------------------------------------------------------


def random_node_heap(rng: random.Random, max_cells: int = 6) -> Heap:
    """A heap of node cells; may be cyclic."""
    k = rng.randint(0, max_cells)
    cells = []
    for i in range(k):
        if rng.random() < 0.3:
            cells.append((i, VCtor("Empty", ())))
        else:
            cells.append((i, VCtor("Node", (VNat(rng.randint(0, 9)),
                                            VRef(rng.randrange(k))))))
    return Heap(tuple(cells), k)


def random_node_arg(rng: random.Random, h: Heap) -> Value:
    if not h.cells or rng.random() < 0.2:
        return VCtor("Empty", ())
    return VCtor("Node", (VNat(rng.randint(0, 9)),
                          VRef(rng.randrange(h.next_id))))


def acyclic_list_heap(rng: random.Random, length: int) -> tuple[Value, Heap]:
    """A well-formed linked list of the given length plus its first node."""
    cells = []
    nxt = VCtor("Empty", ())
    ids = list(range(length))
    rng.shuffle(ids)
    # Build back to front so every ref points at an existing cell.
    for i in range(length):
        rid = ids[i]
        cells.append((rid, nxt))
        nxt = VCtor("Node", (VNat(rng.randint(0, 99)), VRef(rid)))
    cells.sort()
    return nxt, Heap(tuple(cells), length)


def random_rtrm_heap(rng: random.Random, max_cells: int = 5) -> Heap:
    """A heap of rtrm cells; may contain cycles and sharing."""
    k = rng.randint(1, max_cells)
    cells = []
    for i in range(k):
        roll = rng.random()
        if roll < 0.4:
            sigma = VNone() if rng.random() < 0.5 \
                else VSome(VRef(rng.randrange(k)))
            cells.append((i, VCtor("Var", (VNat(rng.randint(0, 3)), sigma))))
        elif roll < 0.6:
            cells.append((i, VCtor("Const", (VNat(rng.randint(0, 3)),))))
        else:
            cells.append((i, VCtor("App", (VRef(rng.randrange(k)),
                                           VRef(rng.randrange(k))))))
    return Heap(tuple(cells), k)


# ---------------------------------------------------------------------------
# A definitional interpreter of the DSL
# ---------------------------------------------------------------------------
#
# Direct style and fuel-indexed, by the equations of the semantics: the
# iterate of a definition at index 0 is bottom, and at index i + 1 its body
# runs with self-calls at index i and calls of earlier definitions at index
# i + 1.  A heap is an id -> value dict with the next id, copied on write.


class _Bottom(Exception):
    """An iterate at index 0 was applied."""


_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: max(a - b, 0),
          "div": lambda a, b: a // b if b else 0,
          "mod": lambda a, b: a % b if b else 0}
_LOGIC = {"<": lambda a, b: a < b, "and": lambda a, b: a and b,
          "or": lambda a, b: a or b}


def ref_pure(p: PExpr, env: dict, program: Program) -> Value:
    """The value of a pure expression in env."""
    if isinstance(p, PVar):
        return env[p.name]
    if isinstance(p, (PNat, PBool, PUnit, PNil, PNone, PRefLit)):
        return {PNat: lambda: VNat(p.value), PBool: lambda: VBool(p.value),
                PUnit: VUnit, PNil: lambda: VList(()), PNone: VNone,
                PRefLit: lambda: VRef(p.rid)}[type(p)]()
    if isinstance(p, PCons):
        tail = ref_pure(p.tail, env, program)
        return VList((ref_pure(p.head, env, program),) + tail.items)
    if isinstance(p, PSome):
        return VSome(ref_pure(p.arg, env, program))
    if isinstance(p, PNot):
        return VBool(not ref_pure(p.arg, env, program).value)
    args = [ref_pure(a, env, program) for a in _pexpr_args(p)]
    if isinstance(p, PCtor):
        return VCtor(p.name, tuple(args))
    if isinstance(p, PCall):
        d = program.pure_def(p.name)
        return ref_pure(d.body, dict(zip((n for n, _ in d.params), args)),
                        program)
    a, b = args
    if p.op == "=":
        return VBool(a == b)
    if p.op == "≠":
        return VBool(a != b)
    if p.op in _ARITH:
        return VNat(_ARITH[p.op](a.value, b.value))
    return VBool(_LOGIC[p.op](a.value, b.value))


def _pexpr_args(p: PExpr) -> tuple:
    return (p.lhs, p.rhs) if isinstance(p, PBin) else p.args


def _ref_comp(e: Expr, env: dict, heap: tuple, program: Program, name: str,
              index: int) -> tuple:
    """(value, heap) of e in the body of name run at the given index."""
    cells, nxt = heap
    if isinstance(e, Return):
        return ref_pure(e.value, env, program), heap
    if isinstance(e, Bind):
        v, heap = _ref_comp(e.head, env, heap, program, name, index)
        return _ref_comp(e.body, {**env, e.var: v}, heap, program, name, index)
    if isinstance(e, If):
        branch = e.then if ref_pure(e.cond, env, program).value else e.els
        return _ref_comp(branch, env, heap, program, name, index)
    if isinstance(e, Case):
        v = ref_pure(e.scrutinee, env, program)
        for pat, body in e.branches:
            if pat.ctor == "None" and isinstance(v, VNone):
                fields = ()
            elif pat.ctor == "Some" and isinstance(v, VSome):
                fields = (v.value,)
            elif isinstance(v, VCtor) and v.name == pat.ctor:
                fields = v.args
            else:
                continue
            return _ref_comp(body, {**env, **dict(zip(pat.vars, fields))},
                             heap, program, name, index)
        raise AssertionError(f"no branch matched {v}")
    if isinstance(e, (SelfCall, ExtCall)):
        args = [ref_pure(a, env, program) for a in e.args]
        if isinstance(e, SelfCall):
            return _ref_apply(program, name, args, heap, index - 1)
        return _ref_apply(program, e.name, args, heap, index)
    if isinstance(e, RefNew):
        v = ref_pure(e.value, env, program)
        return VRef(nxt), ({**cells, nxt: v}, nxt + 1)
    rid = ref_pure(e.ref, env, program).rid
    if rid not in cells:
        raise DanglingRef(f"ref{rid} is not allocated")
    if isinstance(e, RefGet):
        return cells[rid], heap
    return VUnit(), ({**cells, rid: ref_pure(e.value, env, program)}, nxt)


def _ref_apply(program: Program, name: str, args, heap: tuple,
               index: int) -> tuple:
    if index <= 0:
        raise _Bottom
    d = program.fun_def(name)
    env = dict(zip((n for n, _ in d.params), args))
    return _ref_comp(d.body, env, heap, program, name, index)


def ref_run(program: Program, name: str, args, h: Heap, index: int):
    """The iterate of name at index on (args, h): Ok(value, heap) for a
    heap function, OkPure(value) for an option function, or None for
    bottom.  An unallocated reference raises DanglingRef."""
    try:
        v, (cells, nxt) = _ref_apply(program, name, tuple(args),
                                     (h.as_dict(), h.next_id), index)
    except _Bottom:
        return None
    if program.fun_def(name).monad == "option":
        return OkPure(v)
    return Ok(v, Heap(tuple(sorted(cells.items())), nxt))


# ---------------------------------------------------------------------------
# What the frontend produces, pinned by digest
# ---------------------------------------------------------------------------
#
# ``frontend_digests`` reads the corpus, seeded bench programs and heaps, and
# every operator pair through the scanner and parser and hashes what comes
# out; the expected digests were computed with the character-at-a-time
# scanner and the seven-method operator ladder that came before the compiled
# scanner and the precedence table.

BINARY_OPS = ("or", "and", "=", "≠", "<", "#", "+", "-", "div", "mod")


def dump(x) -> str:
    """Canonical text of a syntax tree, value or heap; unlike ``repr`` and
    ``==`` it includes every node's source position."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = (f"{f.name}={dump(getattr(x, f.name))}"
                  for f in dataclasses.fields(x) if f.init)
        return f"{type(x).__name__}({', '.join(fields)})"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(dump(y) for y in x) + ")"
    if isinstance(x, Heap):
        return f"Heap({dump(x.cells)}, next={x.next_id})"
    return repr(x)


def dump_tokens(source: str) -> str:
    return "\n".join(f"{t.kind} {t.text!r} {t.line} {t.col}"
                     for t in tokenize(source))


def _outcome(parse, text: str) -> str:
    """The dump of ``parse(text)``, or its error with the position."""
    try:
        return dump(parse(text))
    except MfxError as e:
        return f"{type(e).__name__}: {e}"


# Sources at the scanner's edges: nested block comments across lines, a
# line comment inside a block comment, CRLF and other whitespace, non-ASCII
# words, ASCII aliases, primes, and characters that start no token.
LEXER_SOURCES = (
    "a (* one (* two\n *) -- still\n three *) b\n  c",
    "(*)", "(* (* *)", "x(**)y", "a--b\nc -- d",
    "f(x) \r\n\t= g(x'' , _y)\x0c\u2028z",
    "λx ↦ x² ⇒ ←", "|-> <- => != := ← ⇒ ↦ ≠ |", "::= !:= -> |-",
    "done' do_ x1y 007 ٣", "²x", "a @ b", "x\n\n   ½",
)


def operator_sources() -> list[str]:
    """Every pair of binary operators over three literals, unbracketed and
    in both nestings, each also with ``not`` in front."""
    out = []
    for a in BINARY_OPS:
        for b in BINARY_OPS:
            for form in (f"1 {a} 2 {b} 3", f"(1 {a} 2) {b} 3", f"1 {a} (2 {b} 3)"):
                out += [form, "not " + form]
    return out


def frontend_digests() -> dict[str, str]:
    """SHA-256 of the token stream and the AST (with positions) of each
    corpus program, of ``bench/gen.py`` programs of seeds 0-9 and of their
    pretty-printed forms; of the parsed corpus heaps and seeded heap files;
    and of the outcomes of ``operator_sources`` and of scanning
    ``LEXER_SOURCES``."""
    gen = bench_gen()
    corpus = corpus_path("trace.mfx").parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(corpus.glob("*.mfx"))}
    for seed in range(10):
        sources[f"gen seed {seed}"] = gen.gen_program(random.Random(seed), 36).text
    out = {}

    def put(key: str, text: str):
        out[key] = hashlib.sha256(text.encode()).hexdigest()

    for name, text in sources.items():
        pp = pretty_program(parse_program(text))
        for key, src in ((name, text), (f"{name} pretty", pp)):
            put(f"tokens {key}", dump_tokens(src))
            put(f"ast {key}", dump(parse_program(src)))
    traverse, occurs = load_program("traverse"), load_program("occurs")
    heaps = {}
    for name, prog in (("acyclic", traverse), ("cyclic", traverse),
                       ("shared", occurs), ("cyclic_term", occurs)):
        heaps[f"{name}.heap"] = (corpus_path(f"{name}.heap").read_text(
            encoding="utf-8"), prog)
    for seed in range(10):
        rng = random.Random(seed)
        ids = list(range(50))
        rng.shuffle(ids)
        cells: dict = {}
        gen.linked_list(rng, 50, cells, ids, 7 if seed % 2 else None)
        heaps[f"list seed {seed}"] = (gen.heap_text(cells, 50), traverse)
        cells, next_id, *_ = gen.occurs_term(rng, 12, 4, seed % 2 == 1)
        heaps[f"term seed {seed}"] = (gen.heap_text(cells, next_id), occurs)
    for name, (text, prog) in heaps.items():
        put(f"tokens {name}", dump_tokens(text))
        put(f"heap {name}", dump(parse_heap(text, prog)))
    put("operators", "\n".join(_outcome(parse_pexpr, s)
                                for s in operator_sources()))
    put("lexer edges", "\n".join(_outcome(dump_tokens, s)
                                  for s in LEXER_SOURCES))
    return out

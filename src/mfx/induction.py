"""Partial-correctness induction rules: the raw fixed-point instance and its
refinement into per-control-path obligations.

The raw rule for an option-monad definition f with functional F is

    (⋀f x y. (⋀z r. f(z) = Some(r) ⟹ Q(z, r)) ⟹ F f x = Some(y) ⟹ Q(x, y))
    ─────────────────────────────────────────────────────────────────────────
    f(x) = Some(y) ⟹ Q(x, y)

with the heap-monad analogue phrased through the semantics relation,
(h, h', y) ∈ ⟦f(x)⟧, and Q taking the heap before and after the computation:
Q(x, h, h', y).  The admissibility of the partial-correctness instance is a
fixed lemma of the system and is not re-proved per function.

Refinement decomposes the body premise along every root-to-leaf path of the
if/case structure:

  1. binds split into an equation for the head and a continuation; returns
     contribute value equations; conditionals and case splits contribute
     (negated) conditions and constructor equations; heap primitives become
     explicit-heap equations, with h' = h collapsed for reads;
  2. recursive-call equations become specialized hypotheses Q(...), after
     which the general hypothesis is discarded;
  3. equations v = t with v a quantified variable are substituted away.

Rule terms reuse the pure-expression syntax; heap applications appear as
calls of the reserved names ``get_ref``, ``set_ref``, and ``new_ref_with``.

check_rule_sampled is a desk-scale audit, not a prover: it searches each
obligation for a counterexample over small bounded domains and,
independently, brute-forces the rule's conclusion against an executable
predicate.  The search follows a plan fixed once per obligation, as in the
mode analysis of Isabelle's predicate compiler: each premise is one test
that evaluates its inputs (the bound side of an equation, a condition,
call arguments and pre-heap, the allocated value) and matches its outputs
against what they determine.  Matching binds an unbound variable, takes a
constructor shape apart and compares a bound term, so checking a premise
and solving it are the same code.  A premise enumerates its first unbound
variable, in quantifier order, while its inputs are not all bound or an
unbound variable of its outputs sits under any other form.  Terms compile
once with the evaluator's compile_pure, whose code applies get_ref and
set_ref through heap_get and heap_set and evaluates both operands of
``and`` and ``or``; an assignment under which any term, run or predicate
reads a dangling reference lies outside the domain and is skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from .continuity import ContinuityFailure, Derivation, Rule, check_continuous
from .domain import (EMPTY_HEAP, Heap, Ok, OkPure, Value, VBool, VCtor,
                     VList, VNat, VNone, VRef, VSome, VUnit, heap_alloc,
                     heap_closed)
from .errors import BudgetExceeded, DanglingRef, MfxError, NotContinuous
from .evaluator import compile_pure, run_lfp
from .syntax import (Bind, Case, Expr, ExtCall, FunDef, If, PBin, PBool,
                     PCall, PCons, PCtor, PExpr, PNat, PNil, PNone, PNot,
                     PRefLit, PSome, PUnit, PVar, Pattern, Program, RefGet,
                     RefNew, RefSet, Return, SelfCall, THeap, TList, TData,
                     TNat, TBool, TUnit, TOption, TRef, Type, TVar, UNIT,
                     HEAP, _alpha_p, _pexpr_children, _pexpr_map,
                     alpha_equivalent, bound_names, check_fun_def, free_vars,
                     instantiate, pretty_expr_named, pretty_pexpr)

Term = PExpr  # rule terms are pure expressions plus reserved heap calls
Var = str  # the name of a quantified variable


# ---------------------------------------------------------------------------
# Premises, obligations, rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Premise:
    pass


@dataclass(frozen=True)
class GeneralHyp(Premise):
    """The unspecialized induction hypothesis of the raw rule."""

    fun_var: Var


@dataclass(frozen=True)
class BodyEq(Premise):
    """Option-monad raw body premise: ⟨body⟩ = Some(result)."""

    body: Expr
    result: Term


@dataclass(frozen=True)
class BodySem(Premise):
    """Heap-monad raw body premise: (pre, post, result) ∈ ⟦body⟧."""

    pre: Term
    post: Term
    result: Term
    body: Expr


@dataclass(frozen=True)
class OptEq(Premise):
    """Residue of a call of an earlier option function: f(args) = Some(r)."""

    fun: str
    args: tuple[Term, ...]
    result: Term


@dataclass(frozen=True)
class SemTriple(Premise):
    """Residue of a call of an earlier heap function:
    (pre, post, result) ∈ ⟦fun(args)⟧."""

    pre: Term
    post: Term
    result: Term
    fun: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class PureEq(Premise):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class PureCond(Premise):
    cond: Term
    positive: bool = True


@dataclass(frozen=True)
class HeapNew(Premise):
    """(ref, post) = new_ref_with(value, pre); allocation is the one heap
    step whose equation binds a pair, so it is never substituted away."""

    ref: Term
    post: Term
    value: Term
    pre: Term


@dataclass(frozen=True)
class Hyp(Premise):
    """An application of the property Q; also the shape of conclusions.

    Heap mode carries the heap before and after: Q(args..., pre, post, result).
    """

    args: tuple[Term, ...]
    result: Term
    pre: Optional[Term] = None
    post: Optional[Term] = None


@dataclass(frozen=True)
class Obligation:
    vars: tuple[tuple[str, Optional[Type]], ...]
    premises: tuple[Premise, ...]
    conclusion: Hyp


@dataclass(frozen=True)
class InductionRule:
    function: str
    monad: str
    kind: str  # "raw" | "refined"
    params: tuple[tuple[str, Type], ...]
    result_type: Type
    obligations: tuple[Obligation, ...]
    fundef: Optional[FunDef] = field(default=None, compare=False, repr=False)
    program: Optional[Program] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Term utilities
# ---------------------------------------------------------------------------


def subst_term(t: Term, sub: dict[str, Term]) -> Term:
    def go(t: Term) -> Term:
        if isinstance(t, PVar):
            return sub.get(t.name, t)
        return _pexpr_map(t, go)

    return go(t)


# The role of every field of each premise class, read once from its
# annotation: rule terms (single, optional or a tuple), the name of a
# quantified variable, a raw body, or plain data (names and polarities).
_TERM, _TERMS, _VAR, _BODY, _DATA = range(5)
_ROLES = {"Term": _TERM, "Optional[Term]": _TERM, "tuple[Term, ...]": _TERMS,
          "Var": _VAR, "Expr": _BODY}
_PREMISE_FIELDS = {
    cls: tuple((f.name, _ROLES.get(f.type, _DATA)) for f in fields(cls))
    for cls in (GeneralHyp, BodyEq, BodySem, OptEq, SemTriple, PureEq,
                PureCond, HeapNew, Hyp)}


def subst_premise(p: Premise, sub: dict[str, Term]) -> Premise:
    if isinstance(p, (GeneralHyp, BodyEq, BodySem)):
        return p  # raw premises are never refined in place
    changes = {}
    for name, role in _PREMISE_FIELDS[type(p)]:
        v = getattr(p, name)
        if role == _TERM and v is not None:
            changes[name] = subst_term(v, sub)
        elif role == _TERMS:
            changes[name] = tuple(subst_term(t, sub) for t in v)
    return replace(p, **changes)


def premise_vars(p: Premise) -> set[str]:
    out: set[str] = set()
    for name, role in _PREMISE_FIELDS[type(p)]:
        v = getattr(p, name)
        if role == _TERM and v is not None:
            out |= free_vars(v)
        elif role == _TERMS:
            out = out.union(*map(free_vars, v))
        elif role == _VAR:
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# Raw rule
# ---------------------------------------------------------------------------


class _Fresh:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    def clone(self) -> "_Fresh":
        return _Fresh(self.taken)

    def value(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        k = 1
        while f"{base}{k}" in self.taken:
            k += 1
        self.taken.add(f"{base}{k}")
        return f"{base}{k}"

    def heap(self) -> str:
        name = "h"
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        return name


def raw_rule(f: FunDef, program: Optional[Program] = None) -> InductionRule:
    """The single-obligation partial-correctness instance for ``f``.

    Requires the continuity derivation to exist; raises NotContinuous
    otherwise.  The admissibility side condition is discharged once and for
    all by the fixed partial-correctness lemma.
    """
    d = check_continuous(f)
    if isinstance(d, ContinuityFailure):
        raise NotContinuous(f"{f.name}: {d}")
    fresh = _Fresh({f.name, *(p for p, _ in f.params), *bound_names(f.body)})
    y = fresh.value("y")
    param_terms = tuple(PVar(p) for p, _ in f.params)
    vars_: list[tuple[str, Optional[Type]]] = [(f.name, None)]
    vars_ += [(p, t) for p, t in f.params]
    if f.monad == "heap":
        h, h2 = fresh.heap(), fresh.heap()
        vars_ += [(h, HEAP), (h2, HEAP), (y, f.result_type)]
        premises: tuple[Premise, ...] = (
            GeneralHyp(f.name),
            BodySem(PVar(h), PVar(h2), PVar(y), f.body))
        conclusion = Hyp(param_terms, PVar(y), PVar(h), PVar(h2))
    else:
        vars_ += [(y, f.result_type)]
        premises = (GeneralHyp(f.name), BodyEq(f.body, PVar(y)))
        conclusion = Hyp(param_terms, PVar(y))
    ob = Obligation(tuple(vars_), premises, conclusion)
    return InductionRule(f.name, f.monad, "raw", f.params, f.result_type,
                         (ob,), fundef=f, program=program)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def _pattern_term(pat: Pattern) -> Term:
    if pat.ctor == "None":
        return PNone()
    if pat.ctor == "Some":
        return PSome(PVar(pat.vars[0]))
    return PCtor(pat.ctor, tuple(PVar(v) for v in pat.vars))


def refine(rule: InductionRule, derivation: Derivation) -> InductionRule:
    """Decompose a raw rule into one obligation per control-flow path.

    The derivation must be the continuity derivation of the same function;
    it witnesses that the body stays within the supported fragment.
    """
    if rule.kind != "raw":
        raise MfxError("refine expects a raw rule")
    f = rule.fundef
    if f is None:
        raise MfxError("this rule lost its definition (e.g. loaded from JSON) "
                       "and cannot be refined")
    if derivation.rule is not Rule.LAM or derivation.subject != f.body:
        raise MfxError("derivation does not match the function body")
    program = rule.program or Program(fun_defs=(f,))
    # The checker's type of every binder; binders are unique in f.
    types = check_fun_def(f, program.names)
    is_heap = f.monad == "heap"
    obligations = []

    def walk(e: Expr, konts: tuple[tuple[str, Expr], ...], heap: Optional[Term],
             premises: tuple[Premise, ...],
             vars_: tuple[tuple[str, Optional[Type]], ...], fresh: _Fresh):
        def finish(result: Term, post: Optional[Term], vs=vars_, ps=premises):
            concl = Hyp(tuple(PVar(p) for p, _ in f.params), result,
                        PVar(h0) if is_heap else None, post)
            obligations.append(_cleanup(Obligation(vs, ps, concl)))

        def bind(prem: Premise, x: str, hpost: Optional[str]):
            """Add ``prem``, which defines ``x`` (and the post-heap ``hpost``
            if one is given); then continue with the pending continuation,
            which binds ``x``, or conclude the path with ``x`` as its
            result.  ``x`` has its binder's type, or at the end of a path
            the function's result type."""
            ty = types[x] if konts else f.result_type
            vs = vars_ + ((x, ty),) + (((hpost, HEAP),) if hpost else ())
            post = PVar(hpost) if hpost else heap
            if konts:
                walk(konts[0][1], konts[1:], post, premises + (prem,), vs, fresh)
            else:
                finish(PVar(x), post, vs, premises + (prem,))

        if isinstance(e, Bind):
            walk(e.head, ((e.var, e.body),) + konts, heap, premises, vars_, fresh)
            return
        if isinstance(e, If):
            # Sibling paths get independently named intermediates.
            walk(e.then, konts, heap, premises + (PureCond(e.cond, True),),
                 vars_, fresh.clone())
            walk(e.els, konts, heap, premises + (PureCond(e.cond, False),),
                 vars_, fresh.clone())
            return
        if isinstance(e, Case):
            for pat, body in e.branches:
                pvars = tuple((v, types[v]) for v in pat.vars)
                eq = PureEq(_pattern_term(pat), e.scrutinee)
                walk(body, konts, heap, premises + (eq,), vars_ + pvars,
                     fresh.clone())
            return
        if isinstance(e, Return):
            if not konts:
                finish(e.value, heap)
                return
            x = konts[0][0]
            bind(PureEq(e.value, PVar(x)), x, None)
            return
        if isinstance(e, (SelfCall, ExtCall)):
            x = konts[0][0] if konts else fresh.value("y")
            hpost = fresh.heap() if is_heap else None
            if isinstance(e, SelfCall):
                prem = Hyp(e.args, PVar(x), heap, PVar(hpost) if is_heap else None)
            else:
                prem = SemTriple(heap, PVar(hpost), PVar(x), e.name, e.args) \
                    if is_heap else OptEq(e.name, e.args, PVar(x))
            bind(prem, x, hpost)
            return
        if isinstance(e, RefGet):
            got = PCall("get_ref", (e.ref, heap))  # h' = h collapsed for reads
            if not konts:
                finish(got, heap)
                return
            x = konts[0][0]
            bind(PureEq(PVar(x), got), x, None)
            return
        if isinstance(e, RefSet):
            newheap = PCall("set_ref", (e.ref, e.value, heap))
            if not konts:
                finish(PUnit(), newheap)
                return
            (x, rest), rest_k = konts[0], konts[1:]
            walk(rest, rest_k, newheap, premises + (PureEq(PVar(x), PUnit()),),
                 vars_ + ((x, UNIT),), fresh)
            return
        if isinstance(e, RefNew):
            hpost = fresh.heap()
            r = konts[0][0] if konts else fresh.value("r")
            bind(HeapNew(PVar(r), PVar(hpost), e.value, heap), r, hpost)
            return
        raise AssertionError(e)

    fresh0 = _Fresh({f.name, *(p for p, _ in f.params), *types})
    h0 = fresh0.heap() if is_heap else None
    base_vars: tuple[tuple[str, Optional[Type]], ...] = tuple(f.params)
    if is_heap:
        base_vars = base_vars + ((h0, HEAP),)
    walk(f.body, (), PVar(h0) if is_heap else None, (), base_vars, fresh0)

    refined = InductionRule(rule.function, rule.monad, "refined", rule.params,
                            rule.result_type, tuple(obligations),
                            fundef=f, program=rule.program)
    _assert_wellformed(refined)
    return refined


def _cleanup(ob: Obligation) -> Obligation:
    """Step 3: substitute equations v = t with v quantified, drop them, and
    drop quantified variables that no longer occur."""
    var_names = [n for n, _ in ob.vars]
    premises = list(ob.premises)
    conclusion = ob.conclusion

    def try_solve(lhs: Term, rhs: Term) -> Optional[tuple[str, Term]]:
        # Prefer eliminating a variable on the right (pattern and return
        # equations put the defined variable there), then on the left
        # (explicit-heap equations).
        if isinstance(rhs, PVar) and rhs.name in var_names \
                and rhs.name not in free_vars(lhs):
            return rhs.name, lhs
        if isinstance(lhs, PVar) and lhs.name in var_names \
                and lhs.name not in free_vars(rhs):
            return lhs.name, rhs
        return None

    changed = True
    while changed:
        changed = False
        for i, p in enumerate(premises):
            solved = None
            if isinstance(p, PureEq):
                solved = try_solve(p.lhs, p.rhs)
            elif isinstance(p, PureCond) and p.positive \
                    and isinstance(p.cond, PBin) and p.cond.op == "=":
                solved = try_solve(p.cond.lhs, p.cond.rhs)
            if solved is None:
                continue
            v, t = solved
            sub = {v: t}
            premises = [subst_premise(q, sub) for q in premises[:i]] + \
                [subst_premise(q, sub) for q in premises[i + 1:]]
            conclusion = subst_premise(conclusion, sub)
            var_names.remove(v)
            changed = True
            break

    used: set[str] = premise_vars(conclusion)
    for p in premises:
        used |= premise_vars(p)
    vars_ = tuple((n, t) for n, t in ob.vars if n in var_names and n in used)
    return Obligation(vars_, tuple(premises), conclusion)


def _assert_wellformed(rule: InductionRule):
    """Substitution safety: every variable in a refined obligation is
    quantified, and the defined function's name never survives."""
    for ob in rule.obligations:
        names = {n for n, _ in ob.vars}
        mentioned = premise_vars(ob.conclusion)
        for p in ob.premises:
            mentioned |= premise_vars(p)
            if isinstance(p, (GeneralHyp, BodyEq, BodySem)):
                raise MfxError("raw premise survived refinement")
            if isinstance(p, (OptEq, SemTriple)) and p.fun == rule.function:
                raise MfxError("defined function survived refinement")
        stray = mentioned - names
        if stray:
            raise MfxError(f"unquantified variables in obligation: {sorted(stray)}")


def refined_rule(f: FunDef, program: Optional[Program] = None) -> InductionRule:
    """Convenience: raw_rule followed by refine."""
    d = check_continuous(f)
    if isinstance(d, ContinuityFailure):
        raise NotContinuous(f"{f.name}: {d}")
    return refine(raw_rule(f, program), d)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _term_str(t: Term) -> str:
    return pretty_pexpr(t)


def _cond_str(p: PureCond) -> str:
    if p.positive:
        return _term_str(p.cond)
    if isinstance(p.cond, PBin) and p.cond.op == "=":
        return _term_str(replace(p.cond, op="≠"))
    if isinstance(p.cond, PBin) and p.cond.op == "≠":
        return _term_str(replace(p.cond, op="="))
    return f"¬ {pretty_pexpr(p.cond, 99)}"


def _hyp_str(h: Hyp, q: str = "Q") -> str:
    parts = [_term_str(a) for a in h.args]
    if h.pre is not None:
        parts += [_term_str(h.pre), _term_str(h.post)]
    parts.append(_term_str(h.result))
    return f"{q}({', '.join(parts)})"


def _general_hyp_str(rule: InductionRule) -> str:
    n = len(rule.params)
    zs = [f"z{i+1}" for i in range(n)] if n != 1 else ["z"]
    call = f"{rule.function}({', '.join(zs)})"
    if rule.monad == "heap":
        vs = " ".join(zs + ["hp", "hp'", "r"])
        return (f"(⋀{vs}. (hp, hp', r) ∈ ⟦{call}⟧ ⟹ "
                f"Q({', '.join(zs)}, hp, hp', r))")
    vs = " ".join(zs + ["r"])
    return f"(⋀{vs}. {call} = Some(r) ⟹ Q({', '.join(zs)}, r))"


def _premise_str(p: Premise, rule: InductionRule) -> str:
    if isinstance(p, GeneralHyp):
        return _general_hyp_str(rule)
    if isinstance(p, BodyEq):
        body = pretty_expr_named(p.body, rule.function)
        return f"({body}) = Some({_term_str(p.result)})"
    if isinstance(p, BodySem):
        body = pretty_expr_named(p.body, rule.function)
        return (f"({_term_str(p.pre)}, {_term_str(p.post)}, {_term_str(p.result)}) "
                f"∈ ⟦{body}⟧")
    if isinstance(p, OptEq):
        call = f"{p.fun}({', '.join(_term_str(a) for a in p.args)})"
        return f"{call} = Some({_term_str(p.result)})"
    if isinstance(p, SemTriple):
        call = f"{p.fun}({', '.join(_term_str(a) for a in p.args)})"
        return (f"({_term_str(p.pre)}, {_term_str(p.post)}, {_term_str(p.result)}) "
                f"∈ ⟦{call}⟧")
    if isinstance(p, PureEq):
        return f"{_term_str(p.lhs)} = {_term_str(p.rhs)}"
    if isinstance(p, PureCond):
        return _cond_str(p)
    if isinstance(p, HeapNew):
        return (f"({_term_str(p.ref)}, {_term_str(p.post)}) = "
                f"new_ref_with({_term_str(p.value)}, {_term_str(p.pre)})")
    if isinstance(p, Hyp):
        return _hyp_str(p)
    raise AssertionError(p)


def obligation_str(ob: Obligation, rule: InductionRule) -> str:
    parts = [_premise_str(p, rule) for p in ob.premises]
    parts.append(_hyp_str(ob.conclusion))
    body = " ⟹ ".join(parts)
    if ob.vars:
        prefix = "⋀" + " ".join(n for n, _ in ob.vars) + ". "
        return prefix + body
    return body


def conclusion_schema_str(rule: InductionRule) -> str:
    params = ", ".join(n for n, _ in rule.params)
    call = f"{rule.function}({params})"
    if rule.monad == "heap":
        return f"(h, h', y) ∈ ⟦{call}⟧ ⟹ Q({params}, h, h', y)"
    return f"{call} = Some(y) ⟹ Q({params}, y)"


def render_rule(rule: InductionRule, fmt: str = "text") -> str:
    """Render a rule; ``text`` mimics the inference-rule layout with one
    obligation per line and the conclusion last, ``json`` is the stable
    structured dump."""
    if fmt == "json":
        import json

        return json.dumps(rule_to_json(rule), indent=2, ensure_ascii=False)
    lines = [f"{rule.kind} induction rule for {rule.function} ({rule.monad} monad):"]
    for i, ob in enumerate(rule.obligations, start=1):
        lines.append(f"  [{i}] {obligation_str(ob, rule)}")
    lines.append("  " + "─" * 60)
    lines.append("  " + conclusion_schema_str(rule))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


# Every node class and its JSON tag.  A node is written as a dict: its tag
# (under "t" for types, "tag" otherwise), then its fields in declaration
# order, keyed by field name.  A None type (the function variable of a raw
# rule) is written {"t": "function"}.
_TYPE_TAGS = {
    TNat: "nat", TBool: "bool", TUnit: "unit", THeap: "heap", TList: "list",
    TOption: "option", TRef: "ref", TData: "data", TVar: "tyvar",
    type(None): "function",
}
_NODE_TAGS = {
    PVar: "var", PNat: "nat", PBool: "bool", PUnit: "unit", PNil: "nil",
    PCons: "cons", PNone: "none", PSome: "some", PCtor: "ctor", PCall: "call",
    PBin: "binop", PNot: "not", PRefLit: "ref",
    Return: "return", Bind: "bind", If: "if", Case: "case",
    SelfCall: "selfcall", ExtCall: "extcall", RefNew: "ref_new",
    RefGet: "ref_get", RefSet: "ref_set",
    GeneralHyp: "general_hyp", BodyEq: "body_eq", BodySem: "body_sem",
    OptEq: "opt_eq", SemTriple: "sem_triple", PureEq: "eq", PureCond: "cond",
    HeapNew: "heap_new", Hyp: "hyp",
}
# Keys that differ from the field name, and the one class whose keys are
# not written in field order.
_KEYS = {(If, "els"): "else", (PRefLit, "rid"): "id", (PureCond, "cond"): "term"}
_KEY_ORDER = {PureCond: ("positive", "cond")}

# How a field is written, by its annotation: a scalar as is, a node or a
# tuple of nodes recursively, an absent optional term not at all, names as
# a list, and case branches as {"ctor", "vars", "body"} dicts.
_SCALAR, _NODE, _NODES, _OPT, _NAMES, _BRANCHES = range(6)
_SHAPES = {
    "str": _SCALAR, "int": _SCALAR, "bool": _SCALAR, "Var": _SCALAR,
    "Type": _NODE, "PExpr": _NODE, "Expr": _NODE, "Term": _NODE,
    "tuple[Type, ...]": _NODES, "tuple[PExpr, ...]": _NODES,
    "tuple[Term, ...]": _NODES, "Optional[Term]": _OPT,
    "tuple[str, ...]": _NAMES, "tuple[tuple[Pattern, Expr], ...]": _BRANCHES,
}


def _codec_fields(cls) -> dict[str, tuple[str, int, str]]:
    """Field name -> (JSON key, shape, tag key of the nodes it holds), in
    declaration order; fields that take no part in equality are skipped."""
    if cls is type(None):
        return {}
    return {f.name: (_KEYS.get((cls, f.name), f.name), _SHAPES[f.type],
                     "t" if "Type" in f.type else "tag")
            for f in fields(cls) if f.compare}


def _encoder_fields(cls) -> tuple[tuple[str, str, int], ...]:
    """(field, JSON key, shape) per field, in the order of the JSON keys."""
    fs = _codec_fields(cls)
    return tuple((n,) + fs[n][:2] for n in _KEY_ORDER.get(cls, fs))


_TAG_TABLES = (("t", _TYPE_TAGS), ("tag", _NODE_TAGS))
# class -> (tag key, tag, encoder fields)
_ENCODE = {cls: (tag_key, tag, _encoder_fields(cls))
           for tag_key, tags in _TAG_TABLES for cls, tag in tags.items()}
# tag key -> tag -> (class, ((JSON key, shape, tag key), ...) in field order)
_DECODE = {tag_key: {tag: (cls, tuple(_codec_fields(cls).values()))
                     for cls, tag in tags.items()}
           for tag_key, tags in _TAG_TABLES}


def _to_json(x) -> dict:
    tag_key, tag, layout = _ENCODE[type(x)]
    j = {tag_key: tag}
    for name, key, shape in layout:
        v = getattr(x, name)
        if shape == _SCALAR:
            j[key] = v
        elif shape == _NODE:
            j[key] = _to_json(v)
        elif shape == _NODES:
            j[key] = [_to_json(c) for c in v]
        elif shape == _OPT:
            if v is not None:
                j[key] = _to_json(v)
        elif shape == _NAMES:
            j[key] = list(v)
        else:
            j[key] = [{"ctor": pat.ctor, "vars": list(pat.vars), "body": _to_json(e)}
                      for pat, e in v]
    return j


def _from_json(j: dict, tag_key: str = "tag"):
    tag = j[tag_key]
    try:
        cls, layout = _DECODE[tag_key][tag]
    except KeyError:
        raise ValueError(f"unknown JSON tag {tag!r}") from None
    args = []
    for key, shape, sub in layout:
        if shape == _SCALAR:
            args.append(j[key])
        elif shape == _NODE:
            args.append(_from_json(j[key], sub))
        elif shape == _NODES:
            args.append(tuple(_from_json(c, sub) for c in j[key]))
        elif shape == _OPT:
            args.append(_from_json(j[key], sub) if key in j else None)
        elif shape == _NAMES:
            args.append(tuple(j[key]))
        else:
            args.append(tuple((Pattern(b["ctor"], tuple(b["vars"])),
                               _from_json(b["body"], sub)) for b in j[key]))
    return cls(*args)  # type(None)() is None


def rule_to_json(rule: InductionRule) -> dict:
    return {
        "function": rule.function,
        "monad": rule.monad,
        "kind": rule.kind,
        "params": [{"name": n, "type": _to_json(t)} for n, t in rule.params],
        "result_type": _to_json(rule.result_type),
        "conclusion": conclusion_schema_str(rule),
        "obligations": [
            {"vars": [{"name": n, "type": _to_json(t)} for n, t in ob.vars],
             "premises": [_to_json(p) for p in ob.premises],
             "conclusion": _to_json(ob.conclusion)}
            for ob in rule.obligations],
    }


def rule_from_json(j: dict) -> InductionRule:
    obligations = tuple(
        Obligation(tuple((v["name"], _from_json(v["type"], "t")) for v in ob["vars"]),
                   tuple(_from_json(p) for p in ob["premises"]),
                   _from_json(ob["conclusion"]))
        for ob in j["obligations"])
    return InductionRule(j["function"], j["monad"], j["kind"],
                         tuple((p["name"], _from_json(p["type"], "t"))
                               for p in j["params"]),
                         _from_json(j["result_type"], "t"), obligations)


# ---------------------------------------------------------------------------
# Alpha-equivalence of rules
# ---------------------------------------------------------------------------


def _alpha_premise(a: Premise, b: Premise,
                   same_var: Callable[[str, str], bool]) -> bool:
    """Field-by-field alpha-equivalence of two premises."""
    if type(a) is not type(b):
        return False
    for name, role in _PREMISE_FIELDS[type(a)]:
        x, y = getattr(a, name), getattr(b, name)
        if role == _TERM:
            ok = (x is None) == (y is None) and (x is None or _alpha_p(x, y, same_var))
        elif role == _TERMS:
            ok = len(x) == len(y) and all(
                _alpha_p(s, t, same_var) for s, t in zip(x, y))
        elif role == _VAR:
            ok = same_var(x, y)
        elif role == _BODY:
            ok = alpha_equivalent(x, y)
        else:
            ok = x == y
        if not ok:
            return False
    return True


def obligations_alpha_equivalent(a: Obligation, b: Obligation) -> bool:
    """Alpha-equivalence with premises compared in order."""
    if len(a.vars) != len(b.vars) or len(a.premises) != len(b.premises):
        return False
    qa = {n for n, _ in a.vars}
    qb = {n for n, _ in b.vars}
    m: dict[str, str] = {}

    def same_var(x: str, y: str) -> bool:
        # Quantified variables must correspond one to one; other names
        # must be equal.
        if x in qa or y in qb:
            if x not in qa or y not in qb:
                return False
            if x in m:
                return m[x] == y
            if y in m.values():
                return False
            m[x] = y
            return True
        return x == y

    for pa, pb in zip(a.premises, b.premises):
        if not _alpha_premise(pa, pb, same_var):
            return False
    if not _alpha_premise(a.conclusion, b.conclusion, same_var):
        return False
    # Mapped variables must agree on their declared types.
    types_a = dict(a.vars)
    types_b = dict(b.vars)
    return all(types_a[x] == types_b[y] for x, y in m.items())


def rules_alpha_equivalent(a: InductionRule, b: InductionRule) -> bool:
    return (a.function == b.function and a.monad == b.monad and a.kind == b.kind
            and len(a.obligations) == len(b.obligations)
            and all(obligations_alpha_equivalent(x, y)
                    for x, y in zip(a.obligations, b.obligations)))


# ---------------------------------------------------------------------------
# Sampled soundness audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Enumeration bounds for the desk-scale audit."""

    nat_max: int = 8
    list_max_len: int = 3
    list_elem_max: int = 4
    heap_max_cells: int = 2
    cell_type: Optional[Type] = None
    data_depth: int = 2
    extra: tuple[tuple[Type, tuple[Value, ...]], ...] = ()
    max_nodes: int = 2_000_000
    fuel_cap: int = 64

    def extra_for(self, ty: Type) -> tuple[Value, ...]:
        for t, vs in self.extra:
            if t == ty:
                return vs
        return ()


@dataclass(frozen=True)
class Verdict:
    obligations_hold: bool
    failed_obligation: Optional[int]  # 0-based index
    obligation_witness: Optional[tuple[tuple[str, object], ...]]
    conclusion_holds: bool
    conclusion_witness: Optional[tuple[tuple[str, object], ...]]
    assignments_checked: int

    def __str__(self):
        lines = []
        if self.obligations_hold:
            lines.append("ObligationsHold")
        else:
            w = ", ".join(f"{n} = {v}" for n, v in self.obligation_witness)
            lines.append(
                f"ObligationFails(obligation {self.failed_obligation + 1}, {w})")
        if self.conclusion_holds:
            lines.append("ConclusionHolds")
        else:
            w = ", ".join(f"{n} = {v}" for n, v in self.conclusion_witness)
            lines.append(f"ConclusionFails({w})")
        lines.append(f"assignments checked: {self.assignments_checked}")
        return "\n".join(lines)


def enum_values(ty: Type, spec: DomainSpec, program: Program,
                depth: int = 0) -> list[Value]:
    """All values of a type within the domain bounds, in canonical order."""
    out: list[Value]
    if isinstance(ty, TNat):
        out = [VNat(i) for i in range(max(spec.nat_max, -1) + 1)]
    elif isinstance(ty, TBool):
        out = [VBool(False), VBool(True)]
    elif isinstance(ty, TUnit):
        out = [VUnit()]
    elif isinstance(ty, TList):
        elem_spec = spec
        if isinstance(ty.elem, TNat):
            elem_spec = replace(spec, nat_max=spec.list_elem_max)
        elems = enum_values(ty.elem, elem_spec, program, depth)
        out = [VList(t) for n in range(spec.list_max_len + 1)
               for t in itertools.product(elems, repeat=n)]
    elif isinstance(ty, TOption):
        out = [VNone()] + [VSome(v) for v in enum_values(ty.elem, spec, program, depth)]
    elif isinstance(ty, TRef):
        out = [VRef(i) for i in range(spec.heap_max_cells)]
    elif isinstance(ty, TData):
        if depth > spec.data_depth:
            return list(spec.extra_for(ty))
        out = []
        decl = program.data_decl(ty.name)
        subst = dict(zip(decl.type_params, ty.args))
        for c in decl.ctors:
            arg_tys = [instantiate(t, subst) for t in c.arg_types]
            arg_domains = [enum_values(t, spec, program, depth + 1) for t in arg_tys]
            for combo in itertools.product(*arg_domains):
                out.append(VCtor(c.name, combo))
    elif isinstance(ty, THeap):
        if spec.cell_type is None:
            out = [EMPTY_HEAP]
        else:
            cell_domain = enum_values(spec.cell_type, spec, program, depth)
            out = []
            for k in range(spec.heap_max_cells + 1):
                for combo in itertools.product(cell_domain, repeat=k):
                    h = Heap(tuple(enumerate(combo)), k)
                    if heap_closed(h):
                        out.append(h)
    else:
        raise MfxError(f"cannot enumerate values of type {ty}")
    for v in spec.extra_for(ty):
        if v not in out:
            out.append(v)
    return out


def _cell_types(rule: InductionRule, spec: DomainSpec) -> set[Type]:
    """The ``τ`` of each ``ref τ`` that the values of the rule's parameter
    types hold, down to the domain's datatype depth."""
    out, seen = set(), set()
    todo = [(t, 0) for _, t in rule.params]
    while todo:
        t, depth = item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        if isinstance(t, TRef):
            out.add(t.elem)
        elif isinstance(t, (TList, TOption)):
            todo.append((t.elem, depth))
        elif isinstance(t, TData) and depth <= spec.data_depth:
            decl = rule.program.data_decl(t.name)
            subst = dict(zip(decl.type_params, t.args))
            todo += [(instantiate(a, subst), depth + 1)
                     for c in decl.ctors for a in c.arg_types]
    return out


def _matcher(t: Term, unbound: set[str], program: Program):
    """Compile ``t`` into ``m(value, env)``: is the value one of ``t``'s?
    A term with no unbound variable is evaluated and compared, an unbound
    variable is bound in env (and removed from ``unbound``), and a
    constructor shape (``#``, ``Some``, a datatype constructor) is taken
    apart.  None if an unbound variable sits under any other form."""
    if not free_vars(t) & unbound:
        code = compile_pure(t, program)
        return lambda v, env: code(env) == v
    if isinstance(t, PVar):
        name = t.name
        unbound.remove(name)

        def bind(v, env):
            env[name] = v
            return True
        return bind
    if not isinstance(t, (PCons, PSome, PCtor)):
        return None
    subs = [_matcher(c, unbound, program) for c in _pexpr_children(t)]
    if None in subs:
        return None
    if isinstance(t, PCons):
        head, tail = subs
        return lambda v, env: (isinstance(v, VList) and v.length > 0
                               and head(v.head, env) and tail(v.tail, env))
    if isinstance(t, PSome):
        [arg] = subs
        return lambda v, env: isinstance(v, VSome) and arg(v.value, env)
    name, arity = t.name, len(subs)
    return lambda v, env: (isinstance(v, VCtor) and v.name == name
                           and len(v.args) == arity
                           and all(m(a, env) for m, a in zip(subs, v.args)))


def _premise_test(p: Premise, unbound: set[str], program: Program, cap: int,
                  q_oracle) -> Optional[Callable[[dict], bool]]:
    """The one test of premise ``p`` once just the variables in ``unbound``
    are unbound, or None while ``p`` must enumerate first.  The test
    evaluates the premise's inputs, runs what they determine and matches
    its outputs, so it checks and solves alike."""
    if isinstance(p, PureEq):
        src, dst = (p.rhs, p.lhs) if not free_vars(p.rhs) & unbound \
            else (p.lhs, p.rhs)
        inputs, outputs, run = (src,), (dst,), lambda v: (v,)
    elif isinstance(p, PureCond):
        inputs, outputs, run = (p.cond,), (PBool(p.positive),), lambda v: (v,)
    elif isinstance(p, Hyp):
        heaps = () if p.pre is None else (p.pre, p.post)
        inputs, outputs = (*p.args, *heaps, p.result), ()
        run = lambda *vs: () if q_oracle(*vs) else None
    elif isinstance(p, OptEq):
        inputs, outputs, fun = p.args, (p.result,), p.fun

        def run(*args):  # run_lfp by name: the traced bench wraps it
            out = run_lfp(program, fun, args, EMPTY_HEAP, cap)
            return (out.value,) if isinstance(out, OkPure) else None
    elif isinstance(p, SemTriple):
        inputs, outputs, fun = (p.pre, *p.args), (p.result, p.post), p.fun

        def run(pre, *args):
            out = run_lfp(program, fun, args, pre, cap)
            return (out.value, out.heap) if isinstance(out, Ok) else None
    elif isinstance(p, HeapNew):
        inputs, outputs, run = (p.pre, p.value), (p.ref, p.post), heap_alloc
    else:
        raise MfxError(f"cannot audit premise {p}")
    if any(free_vars(t) & unbound for t in inputs):
        return None
    left = set(unbound)
    matchers = [_matcher(t, left, program) for t in outputs]
    if None in matchers:
        return None
    unbound.intersection_update(left)
    codes = [compile_pure(t, program) for t in inputs]

    def test(env) -> bool:
        outs = run(*[c(env) for c in codes])
        return outs is not None and all(m(v, env)
                                        for m, v in zip(matchers, outs))
    return test


def _plan(ob: Obligation, program: Program, cap: int, q_oracle) -> list:
    """The search for a counterexample to ``ob``: a list of steps, each
    either ``(var, type)``, which enumerates var, or a test.  Each premise
    gets one test, and before it, while it has none, enumerates its first
    unbound variable in quantifier order.  The variables left are
    enumerated last, and the last test is that Q fails on the conclusion."""
    order = [n for n, _ in ob.vars]
    types = dict(ob.vars)
    unbound = set(order)
    steps: list = []

    def enumerate_first(names):
        v = next(n for n in order if n in unbound and n in names)
        unbound.remove(v)
        steps.append((v, types[v]))

    for p in ob.premises:
        while (test := _premise_test(p, unbound, program, cap, q_oracle)) is None:
            enumerate_first(premise_vars(p))
        steps.append(test)
    while unbound:
        enumerate_first(unbound)
    holds = _premise_test(ob.conclusion, unbound, program, cap, q_oracle)
    steps.append(lambda env: not holds(env))
    return steps


def _search(steps: list, domain_of, bump) -> Optional[dict]:
    """Run a plan in one loop over a stack of enumeration cursors, writing
    into one env.  A failed test, or one that reads a dangling reference
    (the assignment lies outside the well-formed slice of the domain),
    resumes the innermost cursor with values left.  Returns the env of the
    first run through every step, or None."""
    env: dict = {}
    cursors = []  # (step after the enumeration, var, values left)
    i = 0
    while i < len(steps):
        step = steps[i]
        if isinstance(step, tuple):
            var, ty = step
            cursors.append((i + 1, var, iter(domain_of(ty))))
        else:
            try:
                if step(env):
                    i += 1
                    continue
            except DanglingRef:
                pass
        while cursors:
            resume, var, values = cursors[-1]
            val = next(values, None)
            if val is not None:
                bump()
                env[var] = val
                i = resume
                break
            cursors.pop()
        else:
            return None
    return env


def check_rule_sampled(rule: InductionRule,
                       q_oracle: Callable[..., bool],
                       domain: DomainSpec,
                       fuel_cap: Optional[int] = None) -> Verdict:
    """Audit a refined rule against an executable predicate.

    (a) each obligation is searched for a counterexample over the bounded
    domain by its plan (see the module docstring), treating Q applications
    as oracle calls;
    (b) the conclusion is brute-forced independently: wherever the function
    terminates on an enumerated input, the oracle must hold.

    The domain of each type is enumerated once per call and reused by every
    obligation and by the conclusion.

    ObligationsHold together with ConclusionHolds is the desk-scale shadow
    of the rule's soundness.  Raises BudgetExceeded past max_nodes.
    """
    if rule.kind != "refined":
        raise MfxError("check_rule_sampled expects a refined rule")
    program = rule.program
    if program is None:
        raise MfxError("rule carries no program; rebuild it with raw_rule(f, program)")
    if rule.monad == "heap" and domain.cell_type is not None:
        cells = _cell_types(rule, domain)
        if cells and domain.cell_type not in cells:
            raise MfxError(
                f"the domain's cell type {domain.cell_type} is not the type of "
                f"any cell {rule.function} reaches: "
                + ", ".join(sorted(map(str, cells))))
    cap = fuel_cap if fuel_cap is not None else domain.fuel_cap
    nodes = 0

    domains: dict[Type, list[Value]] = {}

    def domain_of(ty: Type) -> list[Value]:
        if ty not in domains:
            domains[ty] = enum_values(ty, domain, program)
        return domains[ty]

    def bump():
        nonlocal nodes
        nodes += 1
        if nodes > domain.max_nodes:
            raise BudgetExceeded(f"enumeration exceeded {domain.max_nodes} nodes")

    failed_i, ob_witness = None, None
    for i, ob in enumerate(rule.obligations):
        w = _search(_plan(ob, program, cap, q_oracle), domain_of, bump)
        if w is not None:
            failed_i = i
            ob_witness = tuple(sorted(w.items()))
            break

    # (b) independent brute force of the conclusion over enumerated inputs.
    concl_witness = None
    arg_domains = [domain_of(t) for _, t in rule.params]
    heap_domain = domain_of(HEAP) if rule.monad == "heap" else [EMPTY_HEAP]
    done = False
    for h in heap_domain:
        if done:
            break
        for combo in itertools.product(*arg_domains):
            bump()
            try:
                out = run_lfp(program, rule.function, combo, h, cap)
                if isinstance(out, OkPure):
                    if not q_oracle(*combo, out.value):
                        concl_witness = tuple(
                            [(n, v) for (n, _), v in zip(rule.params, combo)]
                            + [("result", out.value)])
                        done = True
                        break
                elif isinstance(out, Ok):
                    if not q_oracle(*combo, h, out.heap, out.value):
                        concl_witness = tuple(
                            [(n, v) for (n, _), v in zip(rule.params, combo)]
                            + [("h", h), ("h'", out.heap), ("result", out.value)])
                        done = True
                        break
            except DanglingRef:
                # An argument or the oracle dereferenced an unallocated id;
                # the input lies outside the well-formed slice.
                continue

    return Verdict(failed_i is None, failed_i, ob_witness,
                   concl_witness is None, concl_witness, nodes)

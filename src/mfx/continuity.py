"""Syntax-directed continuity checker.

A monadic body built from binds, conditionals, case splits, recursive calls
in computation position, and constant subterms is continuous by
construction.  The checker re-derives this following the term structure and
records which rule justified each subterm:

  LAM    the root, abstracting over the function's parameters
  CONST  a subterm containing no recursive call
  REC    a bare recursive call applied to recursion-free arguments
  BIND   splits a bind into head and continuation
  IF     splits a conditional into its two branches
  CASE   the per-branch analogue of IF for case splits

CONST closes a subterm as soon as it mentions no recursive call, so the
derivation for a body is unique and as small as possible.  The checker does
not trust the parser's positional invariant: it rescans pure subexpressions
for recursive calls and reports a precise failure path when one is found.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .syntax import (Bind, Case, Expr, ExtCall, FunDef, If, PCall, PExpr,
                     RefGet, RefNew, RefSet, Return, SelfCall,
                     _expr_children, _pexpr_children, pretty_expr_named)


class Rule(enum.Enum):
    LAM = "Lam"
    BIND = "Bind"
    CONST = "Const"
    REC = "Rec"
    IF = "If"
    CASE = "Case"


@dataclass(frozen=True)
class Derivation:
    rule: Rule
    subject: Expr
    children: tuple["Derivation", ...] = ()

    def rule_sequence(self) -> list[Rule]:
        """Rules in pre-order, matching the order goals arise in a proof."""
        out = [self.rule]
        for c in self.children:
            out.extend(c.rule_sequence())
        return out

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


@dataclass(frozen=True)
class ContinuityFailure:
    location: str  # dotted path into the body, e.g. "body.else.bind.arg0"
    reason: str

    def __str__(self):
        return f"{self.location}: {self.reason}"


def _mentions_self(e: Expr | PExpr, fname: str) -> bool:
    """Whether ``e`` holds a recursive call, in computation or pure position."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, SelfCall) or isinstance(e, PCall) and e.name == fname:
            return True
        if isinstance(e, PExpr):
            todo += _pexpr_children(e)
        else:
            pures, subs = _expr_children(e)
            todo += pures
            todo += [sub for _, sub in subs]
    return False


def _pure_failure(p: PExpr, fname: str, path: str) -> ContinuityFailure | None:
    if _mentions_self(p, fname):
        return ContinuityFailure(path, "recursive call inside a pure expression")
    return None


def check_continuous(f: FunDef) -> Derivation | ContinuityFailure:
    """Derive continuity of the functional of ``f``, or locate the offender.

    On success the derivation has a single LAM node at the root covering all
    parameters; below it the rules follow the body syntax.
    """
    d = _check(f.body, f.name, "body")
    if isinstance(d, ContinuityFailure):
        return d
    return Derivation(Rule.LAM, f.body, (d,))


def _check(e: Expr, fname: str, path: str) -> Derivation | ContinuityFailure:
    if not _mentions_self(e, fname):
        return Derivation(Rule.CONST, e)
    if isinstance(e, SelfCall):
        for i, a in enumerate(e.args):
            bad = _pure_failure(a, fname, f"{path}.arg{i}")
            if bad:
                return bad
        return Derivation(Rule.REC, e)
    if isinstance(e, Bind):
        head = _check(e.head, fname, f"{path}.bind")
        if isinstance(head, ContinuityFailure):
            return head
        body = _check(e.body, fname, f"{path}.cont")
        if isinstance(body, ContinuityFailure):
            return body
        return Derivation(Rule.BIND, e, (head, body))
    if isinstance(e, If):
        bad = _pure_failure(e.cond, fname, f"{path}.cond")
        if bad:
            return bad
        then = _check(e.then, fname, f"{path}.then")
        if isinstance(then, ContinuityFailure):
            return then
        els = _check(e.els, fname, f"{path}.else")
        if isinstance(els, ContinuityFailure):
            return els
        return Derivation(Rule.IF, e, (then, els))
    if isinstance(e, Case):
        bad = _pure_failure(e.scrutinee, fname, f"{path}.scrutinee")
        if bad:
            return bad
        children = []
        for pat, body in e.branches:
            d = _check(body, fname, f"{path}.case:{pat.ctor}")
            if isinstance(d, ContinuityFailure):
                return d
            children.append(d)
        return Derivation(Rule.CASE, e, tuple(children))
    # Return / ExtCall / RefNew / RefGet / RefSet reaching here contain a
    # recursive call inside a pure argument; locate it.
    if isinstance(e, Return):
        return _pure_failure(e.value, fname, f"{path}.ret")
    if isinstance(e, ExtCall):
        for i, a in enumerate(e.args):
            bad = _pure_failure(a, fname, f"{path}.arg{i}")
            if bad:
                return bad
    if isinstance(e, RefNew):
        return _pure_failure(e.value, fname, f"{path}.arg")
    if isinstance(e, RefGet):
        return _pure_failure(e.ref, fname, f"{path}.arg")
    if isinstance(e, RefSet):
        return _pure_failure(e.ref, fname, f"{path}.lhs") \
            or _pure_failure(e.value, fname, f"{path}.rhs")
    raise AssertionError(e)


def explain(d: Derivation, self_name: str = "⟨self⟩", width: int = 72) -> str:
    """An indented listing naming the rule applied at each node.

    The traversal is pre-order, which is the order the goals arise when the
    rules are applied by hand.
    """
    lines: list[str] = []

    def walk(node: Derivation, depth: int):
        subj = pretty_expr_named(node.subject, self_name)
        if node.rule is Rule.LAM:
            subj = "λ. " + subj
        if len(subj) > width:
            subj = subj[: width - 1] + "…"
        lines.append("  " * depth + f"({node.rule.value}) {subj}")
        for c in node.children:
            walk(c, depth + 1)

    walk(d, 0)
    return "\n".join(lines)

"""Command-line front end.

Subcommands: check (continuity derivations), eval (run a function to its
least fixed point), approx (print the approximant chain), induct (print the
raw or refined induction rule), audit (desk-scale soundness check of a rule
against an executable predicate).

Exit codes: 0 success, 1 static error (parse/scope/type/continuity), 2 the
run diverged at the fuel cap, 3 an audit reported a failure.  MFX_FUEL
overrides the default fuel cap of 1000.

Value literals on the command line use the DSL's pure-expression syntax
(e.g. ``--args 'Node(1, ref0)'``); heap files use one ``id ↦ value`` binding
per line plus ``next=n``.

The audit predicate file is a small DSL program whose last definition must
be ``option fun q(<function params>, <result>) : bool``, typed like the
function's parameters and result (a mismatch is exit 1); the audit runs it
with the fuel cap, so reference recursions are allowed.  A run of q that
does not terminate within the cap is an error (exit 1), not a false
verdict.  Heap-monad rules need predicates over heaps and are audited
through the library API instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .continuity import ContinuityFailure, check_continuous, explain
from .domain import (EMPTY_HEAP, VBool, VCtor, VList, VRef, VSome,
                     heap_closed, heap_of_cells, pexpr_to_value,
                     render_outcome)
from .errors import DslTypeError, MfxError, StaticError
from .evaluator import (DEFAULT_FUEL_CAP, Diverged, approx_chain, run_lfp)
from .induction import (DomainSpec, check_rule_sampled, raw_rule, refine,
                        refined_rule, render_rule, rule_to_json)
from .syntax import (BOOL, infer_type, instantiate, parse_heap_cells,
                     parse_program, parse_values)


def _fuel_cap(args) -> int:
    """The fuel cap of eval and audit: --fuel, else MFX_FUEL, else 1000."""
    source, cap = "--fuel", args.fuel
    if cap is None:
        env = os.environ.get("MFX_FUEL")
        if env is None:
            return DEFAULT_FUEL_CAP
        try:
            source, cap = "MFX_FUEL", int(env)
        except ValueError:
            raise StaticError(f"MFX_FUEL must be an integer, got {env!r}")
    if cap < 0:
        raise StaticError(f"{source} must be at least 0, got {cap}")
    return cap


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise StaticError(f"cannot read {path}: {e.strerror}")


def _load_program(path: str):
    return parse_program(_read(path))


def _pick_fun(program, name, path):
    if name is None:
        if len(program.fun_defs) == 1:
            return program.fun_defs[0]
        raise StaticError(f"{path} defines {len(program.fun_defs)} functions; "
                          "pick one with --fun")
    try:
        return program.fun_def(name)
    except KeyError:
        raise StaticError(f"no function {name!r} in {path}")


def _parse_args_values(program, fundef, text):
    pexprs = parse_values(text, program)
    if len(pexprs) != len(fundef.params):
        raise StaticError(
            f"{fundef.name!r} takes {len(fundef.params)} argument(s), "
            f"got {len(pexprs)}")
    for p, (pname, ty) in zip(pexprs, fundef.params):
        got = infer_type(p, program.names, ty)
        if got != ty:
            raise StaticError(f"argument {pname!r} of {fundef.name!r} expects "
                              f"{ty}, got a value of type {got}")
    return tuple(pexpr_to_value(p) for p in pexprs)


def _load_heap_arg(args, program):
    """The heap of --heap, and the parsed value of each of its cells."""
    if getattr(args, "heap", None):
        text = _read(args.heap)
        try:
            cells, next_id = parse_heap_cells(text, program)
            return heap_of_cells(cells, next_id), dict(cells)
        except ValueError as e:
            raise StaticError(f"{args.heap}: {e}")
    return EMPTY_HEAP, {}


def _check_cells(program, fundef, values, heap, cell_exprs):
    """Check the parsed value of each heap cell that the arguments reach
    against the ``τ`` of the ``ref τ`` that reaches it.  References are
    followed through lists, options, constructor arguments and cells; each
    cell is checked once, so a cyclic heap ends the walk."""
    todo = [(v, ty) for v, (_, ty) in zip(values, fundef.params)]
    seen = set()
    while todo:
        v, ty = todo.pop()
        if isinstance(v, VList):
            todo += [(x, ty.elem) for x in v.items]
        elif isinstance(v, VSome):
            todo.append((v.value, ty.elem))
        elif isinstance(v, VCtor):
            decl, c = program.ctor_decl(v.name)
            subst = dict(zip(decl.type_params, ty.args))
            todo += [(a, instantiate(t, subst)) for a, t in zip(v.args, c.arg_types)]
        elif isinstance(v, VRef) and v.rid not in seen and heap.contains(v.rid):
            seen.add(v.rid)
            try:
                got = infer_type(cell_exprs[v.rid], program.names, ty.elem)
            except DslTypeError as e:
                raise StaticError(f"heap cell {v.rid} does not hold a value of "
                                  f"type {ty.elem}: {e.msg}")
            if got != ty.elem:
                raise StaticError(f"heap cell {v.rid} holds a value of type "
                                  f"{got}, expected {ty.elem}")
            todo.append((heap.lookup(v.rid), ty.elem))


def _load_inputs(args, program, fundef):
    """The argument values and the heap of eval and approx, checked."""
    values = _parse_args_values(program, fundef, args.args)
    heap, cell_exprs = _load_heap_arg(args, program)
    _check_cells(program, fundef, values, heap, cell_exprs)
    return values, heap


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    program = _load_program(args.file)
    funs = [_pick_fun(program, args.fun, args.file)] if args.fun \
        else list(program.fun_defs)
    results = []
    status = 0
    for f in funs:
        d = check_continuous(f)
        if isinstance(d, ContinuityFailure):
            status = 1
            results.append((f, d))
        else:
            results.append((f, d))
    if args.json:
        out = []
        for f, d in results:
            if isinstance(d, ContinuityFailure):
                out.append({"function": f.name, "continuous": False,
                            "path": d.location, "reason": d.reason})
            else:
                out.append({"function": f.name, "continuous": True,
                            "rules": [r.value for r in d.rule_sequence()]})
        print(json.dumps(out, indent=2, ensure_ascii=False))
        return status
    for f, d in results:
        if isinstance(d, ContinuityFailure):
            print(f"{f.name}: NOT continuous at {d.location}: {d.reason}")
        elif args.explain:
            print(f"{f.name}: continuous")
            print(explain(d, f.name))
        else:
            print(f"{f.name}: continuous ({d.size()} rule applications)")
    return status


def cmd_eval(args) -> int:
    program = _load_program(args.file)
    fundef = _pick_fun(program, args.fun, args.file)
    values, heap = _load_inputs(args, program, fundef)
    if fundef.monad == "heap" and not heap_closed(heap, *values):
        raise StaticError("argument values reference unallocated heap ids")
    cap = _fuel_cap(args)
    out = run_lfp(program, fundef.name, values, heap, cap)
    print(out if isinstance(out, Diverged) else render_outcome(out))
    return 2 if isinstance(out, Diverged) else 0


def cmd_approx(args) -> int:
    if args.max_fuel < 1:
        raise StaticError(f"--max-fuel must be at least 1, got {args.max_fuel}")
    program = _load_program(args.file)
    fundef = _pick_fun(program, args.fun, args.file)
    values, heap = _load_inputs(args, program, fundef)
    chain = approx_chain(program, fundef.name, values, heap, args.max_fuel)
    for i, o in enumerate(chain):
        print(f"{i}: {render_outcome(o)}")
    return 0


def cmd_induct(args) -> int:
    program = _load_program(args.file)
    fundef = _pick_fun(program, args.fun, args.file)
    rule = raw_rule(fundef, program)
    if not args.raw:
        d = check_continuous(fundef)
        rule = refine(rule, d)
    if args.json:
        print(json.dumps(rule_to_json(rule), indent=2, ensure_ascii=False))
    else:
        print(render_rule(rule))
    return 0


def _q_oracle_from_spec(path: str, fundef, cap: int):
    qprog = _load_program(path)
    try:
        q = qprog.fun_def("q")
    except KeyError:
        raise StaticError(f"{path} must define 'option fun q(...) : bool'")
    if q.monad != "option" or q.result_type != BOOL:
        raise StaticError("the audit predicate must be an option fun "
                          "returning bool")
    if len(q.params) != len(fundef.params) + 1:
        raise StaticError(
            f"q must take {len(fundef.params) + 1} argument(s): "
            f"the parameters of {fundef.name!r} plus its result")
    wanted = [(f"parameter {n!r}", t) for n, t in fundef.params]
    wanted.append(("result", fundef.result_type))
    for (qname, qty), (what, ty) in zip(q.params, wanted):
        if qty != ty:
            raise StaticError(f"q's parameter {qname!r} has type {qty}, but "
                              f"{fundef.name}'s {what} has type {ty}")

    def oracle(*vals) -> bool:
        out = run_lfp(qprog, "q", vals, EMPTY_HEAP, cap)
        if isinstance(out, Diverged):
            raise MfxError(f"the audit predicate q({', '.join(map(str, vals))}) "
                           f"did not terminate within fuel cap {cap}")
        return out.value == VBool(True)

    return oracle


def cmd_audit(args) -> int:
    program = _load_program(args.file)
    fundef = _pick_fun(program, args.fun, args.file)
    if fundef.monad == "heap":
        raise StaticError("audit via the CLI supports option-monad functions; "
                          "heap-monad rules take heap predicates, available "
                          "through the library API")
    cap = _fuel_cap(args)
    oracle = _q_oracle_from_spec(args.q, fundef, cap)
    rule = refined_rule(fundef, program)
    domain = DomainSpec(nat_max=args.nat_max, list_max_len=args.list_max_len,
                        list_elem_max=args.list_elem_max,
                        max_nodes=args.budget, fuel_cap=cap)
    verdict = check_rule_sampled(rule, oracle, domain)
    if args.json:
        j = {"function": fundef.name,
             "obligations_hold": verdict.obligations_hold,
             "conclusion_holds": verdict.conclusion_holds,
             "assignments_checked": verdict.assignments_checked}
        if not verdict.obligations_hold:
            j["failed_obligation"] = verdict.failed_obligation + 1
            j["witness"] = {n: str(v) for n, v in verdict.obligation_witness}
        if not verdict.conclusion_holds:
            j["conclusion_witness"] = {n: str(v)
                                       for n, v in verdict.conclusion_witness}
        print(json.dumps(j, indent=2, ensure_ascii=False))
    else:
        print(verdict)
    return 0 if verdict.obligations_hold and verdict.conclusion_holds else 3


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mfx", description=(
        "Define partial recursive functions in the option and heap monads "
        "as least fixed points: check continuity, iterate approximants, "
        "and generate partial-correctness induction rules."))
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="derive continuity, rule by rule")
    c.add_argument("file")
    c.add_argument("--fun", help="check a single function")
    c.add_argument("--explain", action="store_true",
                   help="print the rule applied at every node")
    c.add_argument("--json", action="store_true")
    c.set_defaults(run=cmd_check)

    e = sub.add_parser("eval", help="run a function to its least fixed point")
    e.add_argument("file")
    e.add_argument("--fun", help="function name (defaults when unique)")
    e.add_argument("--args", required=True,
                   help="whitespace-separated value literals")
    e.add_argument("--heap", help="heap literal file")
    e.add_argument("--fuel", type=int, help="fuel cap (default 1000 or MFX_FUEL)")
    e.set_defaults(run=cmd_eval)

    a = sub.add_parser("approx", help="print the chain of approximants")
    a.add_argument("file")
    a.add_argument("--fun")
    a.add_argument("--args", required=True)
    a.add_argument("--heap")
    a.add_argument("--max-fuel", type=int, required=True)
    a.set_defaults(run=cmd_approx)

    i = sub.add_parser("induct", help="print the induction rule")
    i.add_argument("file")
    i.add_argument("--fun")
    i.add_argument("--raw", action="store_true",
                   help="print the raw rule instead of the refined one")
    i.add_argument("--json", action="store_true")
    i.set_defaults(run=cmd_induct)

    u = sub.add_parser("audit", help="desk-scale soundness check of a rule")
    u.add_argument("file")
    u.add_argument("--fun")
    u.add_argument("--q", required=True, metavar="QSPEC",
                   help="predicate file defining option fun q(...) : bool")
    u.add_argument("--nat-max", type=int, default=8,
                   help="enumerate naturals 0..N (negative for empty)")
    u.add_argument("--list-max-len", type=int, default=3)
    u.add_argument("--list-elem-max", type=int, default=4)
    u.add_argument("--budget", type=int, default=2_000_000,
                   help="enumeration node budget")
    u.add_argument("--fuel", type=int)
    u.add_argument("--json", action="store_true")
    u.set_defaults(run=cmd_audit)
    return p


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; each parse_args call starts from a
    fresh namespace, so calls share no state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except MfxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

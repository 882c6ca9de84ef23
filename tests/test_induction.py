"""Induction rules: raw instances, refinement against hand-derived
reference rules, rendering, JSON round-trips, and the sampled soundness
audit."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from mfx.continuity import check_continuous
from mfx.domain import EMPTY_HEAP, Ok, OkPure, VBool, VList, VNat, VNone, VRef
from mfx.errors import BudgetExceeded, MfxError, NotContinuous
from mfx.evaluator import run_lfp
from mfx.induction import (BodyEq, BodySem, DomainSpec, GeneralHyp, HeapNew,
                           Hyp, InductionRule, Obligation, OptEq, PureCond,
                           PureEq, check_rule_sampled,
                           obligations_alpha_equivalent, raw_rule, refine,
                           refined_rule, render_rule, rule_from_json,
                           rule_to_json, rules_alpha_equivalent)
from mfx.syntax import (BOOL, HEAP, NAT, UNIT, PBin, PBool, PCall, PCons,
                        PCtor, PNat, PNil, PNone, PRefLit, PSome, PUnit, PVar,
                        TData, TList, TOption, TRef, TVar, parse_program)

from oracles import bench_gen, occurs_in, trace_value, walk_list

GOLDEN = Path(__file__).parent / "golden"

LNAT = TList(NAT)
RTRM_REF = TRef(TData("rtrm"))


def getref(r, h):
    return PCall("get_ref", (PVar(r), PVar(h)))


def neq(a, b):
    return PureCond(PBin("=", a, b), positive=False)


# ---------------------------------------------------------------------------
# Golden rules, derived by hand from the definitions (walk each control
# path, specialize the hypothesis, substitute local equations) and encoded
# in this tool's premise order: scrutinee equations, then conditions and
# hypotheses in evaluation order.  Variable names differ freely: the
# comparison is alpha-equivalence.
# ---------------------------------------------------------------------------

GOLDEN_TRACE = InductionRule(
    "trace", "option", "refined", (("n", NAT),), LNAT,
    (
        Obligation((), (), Hyp((PNat(0),), PNil())),
        Obligation(
            (("m", NAT), ("acc", LNAT)),
            (neq(PVar("m"), PNat(0)),
             Hyp((PCall("step", (PVar("m"),)),), PVar("acc")),
             PureCond(PBin("=", PBin("mod", PVar("m"), PNat(2)), PNat(0)))),
            Hyp((PVar("m"),), PCons(PVar("m"), PVar("acc")))),
        Obligation(
            (("m", NAT), ("acc", LNAT)),
            (neq(PVar("m"), PNat(0)),
             Hyp((PCall("step", (PVar("m"),)),), PVar("acc")),
             PureCond(PBin("=", PBin("mod", PVar("m"), PNat(2)), PNat(0)),
                      positive=False)),
            Hyp((PVar("m"),), PVar("acc"))),
    ))

GOLDEN_TRAVERSE = InductionRule(
    "traverse", "heap", "refined", (("n", TData("node")),), LNAT,
    (
        Obligation(
            (("hh", HEAP),), (),
            Hyp((PCtor("Empty", ()),), PNil(), PVar("hh"), PVar("hh"))),
        Obligation(
            (("h1", HEAP), ("x'", NAT), ("r", TRef(TData("node"))),
             ("m", LNAT), ("h2", HEAP)),
            (Hyp((getref("r", "h1"),), PVar("m"), PVar("h1"), PVar("h2")),),
            Hyp((PCtor("Node", (PVar("x'"), PVar("r"))),),
                PCons(PVar("x'"), PVar("m")), PVar("h1"), PVar("h2"))),
    ))


def _var_pat(n, s):
    return PCtor("Var", (PVar(n), s))


GOLDEN_OCCURS = InductionRule(
    "occurs", "heap", "refined",
    (("r1", RTRM_REF), ("r2", RTRM_REF)), BOOL,
    (
        # Var, pointer-equal: the variable trivially occurs in itself.
        Obligation(
            (("r1", RTRM_REF), ("h", HEAP), ("n", NAT),
             ("s", TOption(RTRM_REF))),
            (PureEq(_var_pat("n", PVar("s")), getref("r1", "h")),),
            Hyp((PVar("r1"), PVar("r1")), PBool(True), PVar("h"), PVar("h"))),
        # Var, unassigned: does not occur.
        Obligation(
            (("r1", RTRM_REF), ("r2", RTRM_REF), ("h", HEAP), ("n", NAT)),
            (PureEq(_var_pat("n", PNone()), getref("r2", "h")),
             neq(PVar("r1"), PVar("r2"))),
            Hyp((PVar("r1"), PVar("r2")), PBool(False), PVar("h"), PVar("h"))),
        # Var, instantiated: follow the binding.
        Obligation(
            (("r1", RTRM_REF), ("r2", RTRM_REF), ("h", HEAP), ("n", NAT),
             ("r'", RTRM_REF), ("y", BOOL), ("h'", HEAP)),
            (PureEq(_var_pat("n", PSome(PVar("r'"))), getref("r2", "h")),
             neq(PVar("r1"), PVar("r2")),
             Hyp((PVar("r1"), PVar("r'")), PVar("y"), PVar("h"), PVar("h'"))),
            Hyp((PVar("r1"), PVar("r2")), PVar("y"), PVar("h"), PVar("h'"))),
        # Const: does not occur.
        Obligation(
            (("r1", RTRM_REF), ("r2", RTRM_REF), ("h", HEAP), ("n", NAT)),
            (PureEq(PCtor("Const", (PVar("n"),)), getref("r2", "h")),),
            Hyp((PVar("r1"), PVar("r2")), PBool(False), PVar("h"), PVar("h"))),
        # App, found in the left subterm.
        Obligation(
            (("r1", RTRM_REF), ("r2", RTRM_REF), ("h", HEAP),
             ("r3", RTRM_REF), ("r4", RTRM_REF), ("b", BOOL), ("h'", HEAP)),
            (PureEq(PCtor("App", (PVar("r3"), PVar("r4"))), getref("r2", "h")),
             Hyp((PVar("r1"), PVar("r3")), PVar("b"), PVar("h"), PVar("h'")),
             PureCond(PVar("b"))),
            Hyp((PVar("r1"), PVar("r2")), PBool(True), PVar("h"), PVar("h'"))),
        # App, not in the left subterm: continue right.
        Obligation(
            (("r1", RTRM_REF), ("r2", RTRM_REF), ("h", HEAP),
             ("r3", RTRM_REF), ("r4", RTRM_REF), ("b", BOOL), ("h'", HEAP),
             ("y", BOOL), ("h''", HEAP)),
            (PureEq(PCtor("App", (PVar("r3"), PVar("r4"))), getref("r2", "h")),
             Hyp((PVar("r1"), PVar("r3")), PVar("b"), PVar("h"), PVar("h'")),
             PureCond(PVar("b"), positive=False),
             Hyp((PVar("r1"), PVar("r4")), PVar("y"), PVar("h'"), PVar("h''"))),
            Hyp((PVar("r1"), PVar("r2")), PVar("y"), PVar("h"), PVar("h''"))),
    ))


class TestRawRules:
    def test_trace_raw_shape(self, trace_prog):
        f = trace_prog.fun_def("trace")
        rule = raw_rule(f, trace_prog)
        assert rule.kind == "raw" and len(rule.obligations) == 1
        ob = rule.obligations[0]
        assert [n for n, _ in ob.vars] == ["trace", "n", "y"]
        assert isinstance(ob.premises[0], GeneralHyp)
        assert isinstance(ob.premises[1], BodyEq)
        assert ob.premises[1].body == f.body
        assert ob.conclusion == Hyp((PVar("n"),), PVar("y"))

    def test_constant_function_raw(self):
        prog = parse_program("option fun k(x : nat) : nat = return 5")
        rule = raw_rule(prog.fun_def("k"), prog)
        ob = rule.obligations[0]
        assert isinstance(ob.premises[1], BodyEq)
        assert ob.premises[1].result == PVar("y")
        # the body premise is `return 5 = Some y` under a vacuous hypothesis
        assert "Some" in render_rule(rule)

    def test_traverse_raw_uses_semantics_triples(self, traverse_prog):
        rule = raw_rule(traverse_prog.fun_def("traverse"), traverse_prog)
        ob = rule.obligations[0]
        assert isinstance(ob.premises[1], BodySem)
        names = [n for n, _ in ob.vars]
        assert names[0] == "traverse"
        assert render_rule(rule).count("∈") >= 2  # hypothesis and body premise

    def test_not_continuous_rejected(self):
        from mfx.syntax import FunDef, Return, PCall as PC

        bad = FunDef("f", (("n", NAT),), NAT, "option",
                     Return(PC("f", (PVar("n"),))))
        with pytest.raises(NotContinuous):
            raw_rule(bad)


class TestRefinedGolden:
    def test_trace_matches_reference(self, trace_prog):
        rule = refined_rule(trace_prog.fun_def("trace"), trace_prog)
        assert len(rule.obligations) == 3
        assert rules_alpha_equivalent(rule, GOLDEN_TRACE)

    def test_traverse_matches_reference(self, traverse_prog):
        rule = refined_rule(traverse_prog.fun_def("traverse"), traverse_prog)
        assert len(rule.obligations) == 2
        assert rules_alpha_equivalent(rule, GOLDEN_TRAVERSE)

    def test_occurs_matches_reference(self, occurs_prog):
        rule = refined_rule(occurs_prog.fun_def("occurs"), occurs_prog)
        assert len(rule.obligations) == 6
        assert rules_alpha_equivalent(rule, GOLDEN_OCCURS)

    def test_comparator_rejects_wrong_rules(self, trace_prog):
        rule = refined_rule(trace_prog.fun_def("trace"), trace_prog)
        # Drop an obligation.
        pruned = InductionRule(rule.function, rule.monad, rule.kind,
                               rule.params, rule.result_type,
                               rule.obligations[:2])
        assert not rules_alpha_equivalent(pruned, GOLDEN_TRACE)
        # Flip a condition polarity.
        ob = GOLDEN_TRACE.obligations[1]
        flipped = Obligation(ob.vars,
                             (ob.premises[0], ob.premises[1],
                              PureCond(ob.premises[2].cond, positive=False)),
                             ob.conclusion)
        assert not obligations_alpha_equivalent(rule.obligations[1], flipped)
        # Non-bijective renaming must be rejected.
        ob2 = GOLDEN_TRACE.obligations[2]
        merged = Obligation(
            ((("m", NAT)),),
            (neq(PVar("m"), PNat(0)),
             Hyp((PCall("step", (PVar("m"),)),), PVar("m")),
             PureCond(PBin("=", PBin("mod", PVar("m"), PNat(2)), PNat(0)),
                      positive=False)),
            Hyp((PVar("m"),), PVar("m")))
        assert not obligations_alpha_equivalent(rule.obligations[2], merged)
        # Premises compare field by field: these two hypotheses hold four
        # terms each, in different fields.
        vs = tuple((n, NAT) for n in ("a", "b", "c", "r"))
        a, b, c, r = (PVar(n) for n, _ in vs)
        assert not obligations_alpha_equivalent(
            Obligation(vs, (), Hyp((a, b, c), r)),
            Obligation(vs, (), Hyp((a,), r, b, c)))


class TestRefinementMechanics:
    def test_case_count_equals_paths(self, trace_prog, traverse_prog,
                                     occurs_prog):
        for prog, name, paths in ((trace_prog, "trace", 3),
                                  (traverse_prog, "traverse", 2),
                                  (occurs_prog, "occurs", 6)):
            rule = refined_rule(prog.fun_def(name), prog)
            assert len(rule.obligations) == paths, name

    def test_no_function_name_residue(self, occurs_prog):
        rule = refined_rule(occurs_prog.fun_def("occurs"), occurs_prog)
        text = render_rule(rule)
        head, _, _ = text.rpartition("─")
        for line in head.splitlines()[1:]:
            assert "occurs" not in line

    def test_all_variables_quantified(self, occurs_prog):
        from mfx.induction import premise_vars

        rule = refined_rule(occurs_prog.fun_def("occurs"), occurs_prog)
        for ob in rule.obligations:
            names = {n for n, _ in ob.vars}
            mentioned = premise_vars(ob.conclusion)
            for p in ob.premises:
                mentioned |= premise_vars(p)
            assert mentioned <= names

    def test_deterministic(self, occurs_prog):
        f = occurs_prog.fun_def("occurs")
        assert refined_rule(f, occurs_prog) == refined_rule(f, occurs_prog)

    def test_write_program_refinement(self):
        prog = parse_program("""
        heap fun bump(r : ref nat) : nat =
          do x <- !r; r := x + 1; return x done
        """)
        rule = refined_rule(prog.fun_def("bump"), prog)
        [ob] = rule.obligations
        assert ob.premises == ()
        c = ob.conclusion
        # Q(r, h, set_ref(r, get_ref(r, h) + 1, h), get_ref(r, h))
        assert c.post == PCall("set_ref", (
            PVar("r"), PBin("+", PCall("get_ref", (PVar("r"), PVar("h"))),
                            PNat(1)), PVar("h")))
        assert c.result == PCall("get_ref", (PVar("r"), PVar("h")))

    def test_alloc_program_refinement(self):
        prog = parse_program("heap fun fresh(n : nat) : ref nat = ref n")
        rule = refined_rule(prog.fun_def("fresh"), prog)
        [ob] = rule.obligations
        [prem] = ob.premises
        assert isinstance(prem, HeapNew)
        assert prem.value == PVar("n")
        assert ob.conclusion.result == prem.ref
        assert ob.conclusion.post == prem.post

    def test_bind_head_control_flow(self):
        prog = parse_program("""
        option fun pick(n : nat) : nat =
          do x <- (if n < 2 then return 0 else pick(n - 2));
             return (x + 1)
          done
        """)
        rule = refined_rule(prog.fun_def("pick"), prog)
        assert len(rule.obligations) == 2
        first, second = rule.obligations
        assert first.conclusion.result == PBin("+", PNat(0), PNat(1))
        assert any(isinstance(p, Hyp) for p in second.premises)

    def test_extcall_residue_survives(self):
        prog = parse_program("""
        option fun half(n : nat) : nat = return (n div 2)
        option fun g(n : nat) : nat =
          if n = 0 then return 0
          else do m <- half(n); t <- g(m - 1); return t done
        """)
        rule = refined_rule(prog.fun_def("g"), prog)
        ob = rule.obligations[1]
        assert any(isinstance(p, OptEq) and p.fun == "half" for p in ob.premises)

    def test_refine_requires_matching_derivation(self, trace_prog,
                                                 traverse_prog):
        raw = raw_rule(trace_prog.fun_def("trace"), trace_prog)
        wrong = check_continuous(traverse_prog.fun_def("traverse"))
        with pytest.raises(MfxError):
            refine(raw, wrong)

    def test_rendered_text_golden(self, trace_prog):
        rule = refined_rule(trace_prog.fun_def("trace"), trace_prog)
        assert render_rule(rule) == (
            "refined induction rule for trace (option monad):\n"
            "  [1] Q(0, [])\n"
            "  [2] ⋀n tl. n ≠ 0 ⟹ Q(step(n), tl) ⟹ n mod 2 = 0 ⟹ "
            "Q(n, n # tl)\n"
            "  [3] ⋀n tl. n ≠ 0 ⟹ Q(step(n), tl) ⟹ n mod 2 ≠ 0 ⟹ "
            "Q(n, tl)\n"
            "  " + "─" * 60 + "\n"
            "  trace(n) = Some(y) ⟹ Q(n, y)")


# A program whose raw and refined rules use every JSON tag a program can
# produce: every type, term, computation and premise shape.  The last rule is
# built by hand for the two tags no program yields (reference literals and
# type parameters).
CODEC_SRC = """
datatype cell = Leaf | Pair nat (ref nat)
pure fun inc(n : nat) : nat = n + 1
option fun half(n : nat) : nat = return (n div 2)
option fun down(n : nat, xs : list nat) : option (list nat) =
  if n = 0 or not (n < 100) then return Some(xs)
  else if n = 7 then return None
  else do m <- half(n); r <- down(m, inc(m) # xs); return r done
heap fun bump(r : ref nat) : unit = do x <- !r; r := inc(x) done
heap fun go(p : ref cell, k : nat, b : bool) : list nat =
  do c <- !p;
     case c of
       Leaf => return []
     | Pair(n, r) =>
         if n < k and not (n = 0) and b then
           do bump(r); v <- !r; s <- ref Pair(v, r); t <- go(s, k, true);
              return (v # t) done
         else return [n, 0]
  done
"""


def codec_rules():
    prog = parse_program(CODEC_SRC)
    rules = [r for f in prog.fun_defs
             for r in (raw_rule(f, prog), refined_rule(f, prog))]
    rt = TRef(TData("box", (TVar("a"),)))
    rules.append(InductionRule(
        "poke", "heap", "refined", (("r", rt),), UNIT,
        (Obligation((("r", rt), ("h", HEAP)),
                    (PureCond(PBin("=", PVar("r"), PRefLit(3)), False),),
                    Hyp((PVar("r"),), PUnit(), PVar("h"), PVar("h"))),)))
    return rules


class TestJsonRoundTrip:
    def test_refined_rules(self, trace_prog, traverse_prog, occurs_prog):
        for prog, name in ((trace_prog, "trace"), (traverse_prog, "traverse"),
                           (occurs_prog, "occurs")):
            rule = refined_rule(prog.fun_def(name), prog)
            assert rule_from_json(rule_to_json(rule)) == rule

    def test_raw_rules(self, trace_prog, traverse_prog):
        for prog, name in ((trace_prog, "trace"), (traverse_prog, "traverse")):
            rule = raw_rule(prog.fun_def(name), prog)
            assert rule_from_json(rule_to_json(rule)) == rule

    def test_codec_golden(self):
        rules = codec_rules()
        text = json.dumps([rule_to_json(r) for r in rules], indent=2,
                          ensure_ascii=False) + "\n"
        assert text == (GOLDEN / "rule_codec.json").read_text(encoding="utf-8")
        for r in rules:
            assert rule_from_json(json.loads(json.dumps(rule_to_json(r)))) == r

    def test_unknown_tag_rejected(self):
        j = rule_to_json(codec_rules()[-1])
        j["obligations"][0]["premises"][0]["tag"] = "bogus"
        with pytest.raises(ValueError):
            rule_from_json(j)
        j = rule_to_json(codec_rules()[-1])
        j["params"][0]["type"]["t"] = "bogus"
        with pytest.raises(ValueError):
            rule_from_json(j)

    def test_json_loaded_rule_cannot_refine(self, trace_prog):
        rule = raw_rule(trace_prog.fun_def("trace"), trace_prog)
        loaded = rule_from_json(rule_to_json(rule))
        d = check_continuous(trace_prog.fun_def("trace"))
        with pytest.raises(MfxError):
            refine(loaded, d)


# ---------------------------------------------------------------------------
# Sampled soundness
# ---------------------------------------------------------------------------


def q_trace_correct(n, ys):
    return ys == trace_value(n.value)


def q_trace_wrong(n, ys):
    return ys == VList(())


def q_traverse(n, h, h2, ys):
    w = walk_list(h, n)
    return h2 == h and w is not None and ys == VList(tuple(w))


def q_occurs(r1, r2, h, h2, b):
    if h2 != h:
        return False
    cell = h.lookup(r1.rid)
    if cell.name == "Var" and isinstance(cell.args[1], VNone):
        return b == VBool(occurs_in(h, r1.rid, r2.rid))
    return True


def trace_extra_lists(up_to=33):
    return (TList(NAT), tuple(trace_value(k) for k in range(up_to)))


class TestSampledCheck:
    def test_trace_correct(self, trace_prog):
        rule = refined_rule(trace_prog.fun_def("trace"), trace_prog)
        dom = DomainSpec(nat_max=16, list_max_len=2, list_elem_max=3,
                         extra=(trace_extra_lists(17),))
        v = check_rule_sampled(rule, q_trace_correct, dom)
        assert v.obligations_hold and v.conclusion_holds

    def test_trace_wrong_q_found(self, trace_prog):
        rule = refined_rule(trace_prog.fun_def("trace"), trace_prog)
        dom = DomainSpec(nat_max=16, list_max_len=2, list_elem_max=3)
        v = check_rule_sampled(rule, q_trace_wrong, dom)
        assert not v.obligations_hold
        witness = dict(v.obligation_witness)
        n = witness["n"].value
        assert n != 0 and n % 2 == 0
        assert not v.conclusion_holds

    def test_traverse_correct(self, traverse_prog):
        rule = refined_rule(traverse_prog.fun_def("traverse"), traverse_prog)
        dom = DomainSpec(nat_max=1, list_max_len=2, list_elem_max=1,
                         heap_max_cells=2, cell_type=TData("node"))
        v = check_rule_sampled(rule, q_traverse, dom)
        assert v.obligations_hold and v.conclusion_holds

    def test_occurs_correct_small(self, occurs_prog):
        rule = refined_rule(occurs_prog.fun_def("occurs"), occurs_prog)
        dom = DomainSpec(nat_max=0, heap_max_cells=2, cell_type=TData("rtrm"))
        v = check_rule_sampled(rule, q_occurs, dom)
        assert v.obligations_hold and v.conclusion_holds

    def test_write_program_audit(self):
        # Explicit-heap terms nested in arithmetic must evaluate during the
        # audit: the bump rule's conclusion mentions
        # set_ref(r, get_ref(r, h) + 1, h).
        from mfx.domain import Heap, VNat, VRef, heap_get, heap_set

        prog = parse_program("""
        heap fun bump(r : ref nat) : nat =
          do x <- !r; r := x + 1; return x done
        """)
        rule = refined_rule(prog.fun_def("bump"), prog)

        def q_bump(r, h, h2, y):
            old = heap_get(h, r)
            return y == old and h2 == heap_set(h, r, VNat(old.value + 1))

        dom = DomainSpec(nat_max=3, heap_max_cells=2, cell_type=NAT)
        v = check_rule_sampled(rule, q_bump, dom)
        assert v.obligations_hold and v.conclusion_holds

        def q_bump_wrong(r, h, h2, y):
            return h2 == h

        v = check_rule_sampled(rule, q_bump_wrong, dom)
        assert not v.obligations_hold

    def test_cell_type_must_be_a_reference_type(self):
        # The cell domain holds values of cell_type, and the function reads
        # them as the τ of its ref τ parameters: a cell type that is none
        # of them is a one-line error, not a crash inside the evaluator.
        prog = parse_program("""
        datatype node = Empty | Node nat (ref node)
        heap fun inc(r : ref nat) : nat = do x <- !r; r := x + 1; return x done
        """)
        rule = refined_rule(prog.fun_def("inc"), prog)

        def q_any(r, h, h2, y):
            return True

        v = check_rule_sampled(rule, q_any, DomainSpec(
            nat_max=2, heap_max_cells=1, cell_type=NAT))
        assert v.obligations_hold and v.conclusion_holds
        with pytest.raises(MfxError, match="cell type node") as e:
            check_rule_sampled(rule, q_any, DomainSpec(
                nat_max=2, heap_max_cells=1, cell_type=TData("node")))
        assert "\n" not in str(e.value)

    def test_budget_exceeded(self, occurs_prog):
        rule = refined_rule(occurs_prog.fun_def("occurs"), occurs_prog)
        dom = DomainSpec(nat_max=0, heap_max_cells=2, cell_type=TData("rtrm"),
                         max_nodes=50)
        with pytest.raises(BudgetExceeded):
            check_rule_sampled(rule, q_occurs, dom)

    def test_raw_rule_rejected(self, trace_prog):
        rule = raw_rule(trace_prog.fun_def("trace"), trace_prog)
        with pytest.raises(MfxError):
            check_rule_sampled(rule, q_trace_correct, DomainSpec())

    def test_zero_domain_vacuous(self, trace_prog):
        rule = refined_rule(trace_prog.fun_def("trace"), trace_prog)
        dom = DomainSpec(nat_max=-1, list_max_len=0, list_elem_max=0)
        v = check_rule_sampled(rule, q_trace_wrong, dom)
        # Obligations 2 and 3 are vacuous; obligation 1 is closed and holds
        # even for the wrong predicate ([] = []); no inputs to brute-force.
        assert v.obligations_hold and v.conclusion_holds

    def test_call_premise_with_computed_result(self):
        # g(n) = Some(y + 1) names y only under +: the audit enumerates y and
        # compares, where a refutation of every assignment would make the
        # obligation hold vacuously.
        prog = parse_program("""
        option fun g(n : nat) : nat = return n + 1
        option fun f(n : nat, y : nat) : nat =
          do x <- g(n); if x = y + 1 then return y else return 0 done
        """)
        rule = refined_rule(prog.fun_def("f"), prog)
        first = replace(rule, obligations=rule.obligations[:1])
        assert "g(n) = Some(y + 1)" in render_rule(first)
        v = check_rule_sampled(first, lambda n, y, r: r == VNat(0),
                               DomainSpec(nat_max=3))
        assert v.failed_obligation == 0
        assert dict(v.obligation_witness) == {"n": VNat(1), "y": VNat(1)}

    def test_heap_call_premise_with_computed_result(self):
        # The result a + 1 is bound once r, a and h are, while h' is not:
        # the call's result is compared and its final heap bound.
        prog = parse_program("""
        heap fun g(r : ref nat, a : nat) : nat = do r := a; return a + 1 done
        heap fun f(r : ref nat, a : nat) : nat =
          do x <- g(r, a); if x = a + 1 then return 1 else return 0 done
        """)
        rule = refined_rule(prog.fun_def("f"), prog)
        first = replace(rule, obligations=rule.obligations[:1])
        assert "(h, h', a + 1) ∈ ⟦g(r, a)⟧" in render_rule(first)
        v = check_rule_sampled(first, lambda r, a, h, h2, y: y == VNat(0),
                               DomainSpec(nat_max=2, heap_max_cells=1,
                                          cell_type=NAT))
        assert v.failed_obligation == 0
        w = dict(v.obligation_witness)
        assert w["a"] == VNat(0) and w["r"] == VRef(0)

    def test_deep_obligation(self):
        # 1000 chained premises x{i+1} = x{i} + 1: the search runs in one
        # loop, so its depth does not meet Python's recursion limit.
        prog = parse_program("option fun f(n : nat) : nat = return n + 1000")
        xs = [f"x{i}" for i in range(1001)]
        ob = Obligation(
            tuple((x, NAT) for x in xs),
            tuple(PureEq(PVar(b), PBin("+", PVar(a), PNat(1)))
                  for a, b in zip(xs, xs[1:])),
            Hyp((PVar("x0"),), PVar("x1000")))
        rule = InductionRule("f", "option", "refined", (("n", NAT),), NAT,
                             (ob,), program=prog)
        dom = DomainSpec(nat_max=3)
        v = check_rule_sampled(
            rule, lambda n, r: r.value == n.value + 1000, dom)
        assert v.obligations_hold and v.conclusion_holds
        assert v.assignments_checked == 8
        v = check_rule_sampled(rule, lambda n, r: r == n, dom)
        w = dict(v.obligation_witness)
        assert w["x0"] == VNat(0) and w["x1000"] == VNat(1000)


def graph_oracle(prog, f, cap):
    """Q ≝ the graph of f at the cap: f(x) = y, and for a heap function
    f(x) run on h gives Ok(y, h').  Runs are cached by arguments and heap."""
    runs = {}
    n = len(f.params)

    def q(*vals):
        heap = vals[n] if f.monad == "heap" else EMPTY_HEAP
        key = (vals[:n], heap)
        if key not in runs:
            runs[key] = run_lfp(prog, f.name, vals[:n], heap, cap)
        out = runs[key]
        if f.monad == "heap":
            return isinstance(out, Ok) and (out.heap, out.value) == vals[n + 1:]
        return isinstance(out, OkPure) and out.value == vals[n]
    return q


class TestGeneratedPrograms:
    def test_refined_rules_hold_for_own_graph(self):
        # Seeded bench/gen.py programs mix option and heap functions with
        # calls of earlier functions and allocation, so their rules carry
        # OptEq, SemTriple and HeapNew premises.  The graph of the least
        # fixed point satisfies every obligation of a sound refined rule.
        gen = bench_gen()
        dom = DomainSpec(nat_max=3, heap_max_cells=1, cell_type=NAT,
                         fuel_cap=8)
        total = 0
        for seed in range(10):
            g = gen.gen_program(random.Random(seed), 4)
            prog = parse_program(g.text)
            for name in g.fun_names:
                f = prog.fun_def(name)
                v = check_rule_sampled(refined_rule(f, prog),
                                       graph_oracle(prog, f, 8), dom)
                assert v.obligations_hold and v.conclusion_holds, (seed, name)
                total += v.assignments_checked
        # The count pins the enumeration order and what each premise solves.
        assert total == 9813

"""Monadic fixpoint workbench.

Defines partial recursive functions in the option and heap monads as least
fixed points: a small monadic DSL, a syntax-directed continuity checker, a
Kleene-iteration evaluator, and an automatic generator of refined
partial-correctness induction rules.
"""

from .errors import (BudgetExceeded, ChainViolation, DanglingRef, DslTypeError,
                     MfxError, MonadError, NotContinuous, NotStabilized,
                     ParseError, ScopeError, StaticError)
from .syntax import (alpha_equivalent, check_fun_def, free_vars, infer_type,
                     instantiate, parse_pexpr, parse_program, parse_values,
                     pretty, pretty_program, Names,
                     Bind, Case, DataDecl, Expr, ExtCall, FunDef, If, Pattern,
                     PExpr, Program, PureDef, RefGet, RefNew, RefSet, Return,
                     SelfCall)
from .domain import (BOTTOM, Bottom, Chain, EMPTY_HEAP, Heap, Ok, OkPure,
                     Outcome, Value, VBool, VCtor, VList, VNat, VNone, VRef,
                     VSome, VUnit,
                     heap_alloc, heap_closed, heap_get, heap_set,
                     lub_eventually_constant, outcome_le, parse_heap,
                     pexpr_to_value, render_heap, render_outcome, render_value,
                     value_to_pexpr)
from .continuity import (ContinuityFailure, Derivation, Rule, check_continuous,
                         explain)
from .evaluator import (Approximant, DEFAULT_FUEL_CAP, Diverged, approx_chain,
                        eval_approx, eval_pure, in_semantics, run_lfp,
                        unfold_once)
from .induction import (DomainSpec, GeneralHyp, HeapNew, Hyp, InductionRule,
                        Obligation, OptEq, Premise, PureCond, PureEq,
                        SemTriple, Verdict, check_rule_sampled,
                        obligations_alpha_equivalent, raw_rule, refine,
                        refined_rule, render_rule, rule_from_json,
                        rule_to_json, rules_alpha_equivalent)

__version__ = "0.1.0"

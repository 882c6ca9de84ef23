"""frontend: every static layer, no evaluation.

One operation runs the whole static pipeline over one program: parse and
check, continuity of every function, raw and refined rules, rendering, the
JSON round-trip, and pretty-print then re-parse.  Most operations take a
seeded generated program of N_FUNS functions; the three corpus programs and
four in-process ``mfx check`` / ``mfx induct`` calls are the cheap rest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from mfx.continuity import Derivation, Rule, check_continuous
from mfx.corpus import PROGRAMS, corpus_path
from mfx.induction import (raw_rule, refine, render_rule, rule_from_json,
                           rule_to_json, rules_alpha_equivalent)
from mfx.syntax import alpha_equivalent, parse_program, pretty_program

import gen
from harness import Op, Workload
from workloads.common import HAND_RULES, cli, corpus_file, layer_probe

N_PROGRAMS, N_FUNS = 24, 36
# Generated programs are kept only when their size is close to the typical
# one (source length within 3 %, control-flow paths within 8 of the mean
# measured over 300 programs), so that every program costs about the same.
TARGET_CHARS, TARGET_PATHS = 8380, 105
SMOKE_PROGRAMS, SMOKE_FUNS = 2, 4

TRACE_DERIVATION = [Rule.LAM, Rule.IF, Rule.CONST, Rule.BIND, Rule.REC,
                    Rule.CONST]


@dataclass(frozen=True)
class Facts:
    """What the benchmark knows about a program before mfx sees it."""

    fun_names: tuple[str, ...]
    n_defs: int
    paths: tuple[int, ...]             # refined obligations per function
    derivation_size: tuple[int, ...]   # continuity rule applications


@dataclass
class Pipeline:
    program: object
    derivations: list
    rules: list          # (raw, refined) per function
    texts: list
    from_json: list      # (raw, refined) after the JSON round-trip
    reparsed_alpha: bool


def pipeline(text: str, tr) -> Pipeline:
    with tr.span("syntax.parse") as s:
        prog = parse_program(text)
        s.set(defs=len(prog.data_decls) + len(prog.pure_defs) + len(prog.fun_defs))
    with tr.span("continuity.check"):
        ds = [check_continuous(f) for f in prog.fun_defs]
    with tr.span("induction.rule"):
        rules = []
        for f, d in zip(prog.fun_defs, ds):
            raw = raw_rule(f, prog)
            rules.append((raw, refine(raw, d)))
    with tr.span("induction.render"):
        texts = [render_rule(refined) for _, refined in rules]
    with tr.span("induction.json"):
        back = [tuple(rule_from_json(json.loads(json.dumps(rule_to_json(r))))
                      for r in pair) for pair in rules]
    with tr.span("syntax.roundtrip"):
        alpha = alpha_equivalent(prog, parse_program(pretty_program(prog)))
    return Pipeline(prog, ds, rules, texts, back, alpha)


def check_pipeline(res: Pipeline, facts: Facts, tr) -> list[str]:
    prog = res.program
    problems = []
    names = tuple(f.name for f in prog.fun_defs)
    if names != facts.fun_names:
        problems.append(f"functions {names} differ from the generated ones")
    n_defs = len(prog.data_decls) + len(prog.pure_defs) + len(prog.fun_defs)
    if n_defs != facts.n_defs:
        problems.append(f"{n_defs} definitions, expected {facts.n_defs}")
    sizes = []
    for f, d in zip(prog.fun_defs, res.derivations):
        if not isinstance(d, Derivation) or d.rule is not Rule.LAM:
            problems.append(f"{f.name} is not continuous: {d}")
        else:
            sizes.append(d.size())
    if tuple(sizes) != facts.derivation_size:
        problems.append("continuity derivation sizes differ from the counted ones")
    obligations = tuple(len(refined.obligations) for _, refined in res.rules)
    if obligations != facts.paths:
        problems.append(f"refined obligations {obligations} differ from the "
                        f"control-flow paths {facts.paths}")
    for (raw, refined), back, text, f in zip(res.rules, res.from_json,
                                             res.texts, prog.fun_defs):
        if raw.kind != "raw" or len(raw.obligations) != 1:
            problems.append(f"{f.name}: the raw rule is not one obligation")
        if back != (raw, refined):
            problems.append(f"{f.name}: rule_from_json(rule_to_json(r)) != r")
        if not text.startswith(f"refined induction rule for {f.name} "):
            problems.append(f"{f.name}: rendered rule has an unexpected header")
    if not res.reparsed_alpha:
        problems.append("parse(pretty(p)) is not alpha-equivalent to p")
    tr.count("continuity.rule_apps", sum(sizes))
    tr.count("induction.obligations", sum(obligations))
    return problems


def _program_op(text: str, facts: Facts) -> Op:
    return Op("program", lambda tr: pipeline(text, tr), facts, check_pipeline)


def _corpus_op(name: str) -> Op:
    text = corpus_path(f"{name}.mfx").read_text(encoding="utf-8")
    golden = HAND_RULES[name]
    facts = Facts((name,), 0, (len(golden.obligations),), ())

    def check(res: Pipeline, fx: Facts, tr) -> list[str]:
        problems = []
        prog = res.program
        if tuple(f.name for f in prog.fun_defs) != fx.fun_names:
            problems.append(f"functions differ from {fx.fun_names}")
        _, refined = res.rules[0]
        if (len(refined.obligations),) != fx.paths \
                or not rules_alpha_equivalent(refined, golden):
            problems.append(f"{name}: refined rule is not alpha-equivalent "
                            "to the hand-derived one")
        if name == "trace" and \
                res.derivations[0].rule_sequence() != TRACE_DERIVATION:
            problems.append("trace derivation is not Lam, If, Const, Bind, "
                            "Rec, Const")
        if any(back != pair for back, pair in zip(res.from_json, res.rules)):
            problems.append(f"{name}: rule_from_json(rule_to_json(r)) != r")
        if not res.reparsed_alpha:
            problems.append(f"{name}: parse(pretty(p)) is not alpha-equivalent")
        tr.count("continuity.rule_apps", sum(d.size() for d in res.derivations))
        tr.count("induction.obligations", len(refined.obligations))
        return problems

    return Op("corpus", lambda tr: pipeline(text, tr), facts, check)


def _cli_ops() -> list[Op]:
    def expect_output(argv, code, check_out):
        def check(res, want, tr):
            got_code, out = res
            if got_code != want[0]:
                return [f"mfx {' '.join(argv[:1])} exited {got_code}, expected {want[0]}"]
            return check_out(out, want[1])
        return Op("cli", lambda tr: cli(argv, tr), (code, None), check)

    def check_text(out, _):
        want = "trace: continuous (6 rule applications)\n"
        return [] if out == want else [f"unexpected output {out!r}"]

    def check_json(out, _):
        j = json.loads(out)
        ok = (len(j) == 1 and j[0]["function"] == "occurs" and j[0]["continuous"]
              and j[0]["rules"][0] == "Lam")
        return [] if ok else [f"unexpected check --json output {j!r}"]

    def check_induct_json(out, _):
        rule = rule_from_json(json.loads(out))
        if rules_alpha_equivalent(rule, HAND_RULES["traverse"]):
            return []
        return ["mfx induct --json differs from the hand-derived traverse rule"]

    def check_raw(out, _):
        lines = out.splitlines()
        ok = (lines[0] == "raw induction rule for trace (option monad):"
              and sum(1 for ln in lines if ln.lstrip().startswith("[")) == 1)
        return [] if ok else ["mfx induct --raw is not a one-obligation raw rule"]

    return [
        expect_output(["check", corpus_file("trace.mfx")], 0, check_text),
        expect_output(["check", corpus_file("occurs.mfx"), "--json"], 0, check_json),
        expect_output(["induct", corpus_file("traverse.mfx"), "--json"], 0,
                      check_induct_json),
        expect_output(["induct", corpus_file("trace.mfx"), "--raw"], 0, check_raw),
    ]


def setup(seed: int, smoke: bool, tr) -> Workload:
    rng = random.Random(f"frontend:{seed}")
    n_programs, n_funs = (SMOKE_PROGRAMS, SMOKE_FUNS) if smoke else (N_PROGRAMS, N_FUNS)
    ops = []
    for _ in range(n_programs):
        while True:
            g = gen.gen_program(rng, n_funs)
            if smoke or (abs(len(g.text) - TARGET_CHARS) <= 0.03 * TARGET_CHARS
                         and abs(sum(g.paths.values()) - TARGET_PATHS) <= 8):
                break
        facts = Facts(tuple(g.fun_names), g.n_defs,
                      tuple(g.paths[n] for n in g.fun_names),
                      tuple(g.derivation_size[n] for n in g.fun_names))
        ops.append(_program_op(g.text, facts))
    ops += [_corpus_op(name) for name in PROGRAMS]
    ops += _cli_ops()
    rng.shuffle(ops)
    return Workload(ops, layer_probe)

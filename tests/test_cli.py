"""Command-line behavior: exit codes, golden outputs, and flag handling.

Every (command x corpus example) pair has a frozen golden file; comparison
is byte-exact.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfx.cli import main
from mfx.corpus import corpus_path

GOLDEN = Path(__file__).parent / "golden"


def corpus(name: str) -> str:
    return str(corpus_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN_CASES = [
    # (golden file, expected exit code, argv)
    ("check_trace_explain.txt", 0,
     ["check", corpus("trace.mfx"), "--explain"]),
    ("check_traverse_explain.txt", 0,
     ["check", corpus("traverse.mfx"), "--explain"]),
    ("check_occurs_explain.txt", 0,
     ["check", corpus("occurs.mfx"), "--explain"]),
    ("check_occurs_json.txt", 0,
     ["check", corpus("occurs.mfx"), "--json"]),
    ("eval_trace_6.txt", 0,
     ["eval", corpus("trace.mfx"), "--fun", "trace", "--args", "6"]),
    ("eval_traverse_acyclic.txt", 0,
     ["eval", corpus("traverse.mfx"), "--fun", "traverse",
      "--args", "Node(1, ref0)", "--heap", corpus("acyclic.heap")]),
    ("eval_occurs_shared.txt", 0,
     ["eval", corpus("occurs.mfx"), "--fun", "occurs",
      "--args", "ref0 ref3", "--heap", corpus("shared.heap")]),
    ("eval_traverse_cyclic.txt", 2,
     ["eval", corpus("traverse.mfx"), "--fun", "traverse",
      "--args", "Node(7, ref0)", "--heap", corpus("cyclic.heap")]),
    ("eval_occurs_cyclic.txt", 2,
     ["eval", corpus("occurs.mfx"), "--fun", "occurs",
      "--args", "ref0 ref1", "--heap", corpus("cyclic_term.heap")]),
    ("approx_trace_6.txt", 0,
     ["approx", corpus("trace.mfx"), "--fun", "trace", "--args", "6",
      "--max-fuel", "6"]),
    ("approx_traverse.txt", 0,
     ["approx", corpus("traverse.mfx"), "--fun", "traverse",
      "--args", "Node(1, ref0)", "--heap", corpus("acyclic.heap"),
      "--max-fuel", "4"]),
    ("induct_trace.txt", 0,
     ["induct", corpus("trace.mfx"), "--fun", "trace"]),
    ("induct_traverse.txt", 0,
     ["induct", corpus("traverse.mfx"), "--fun", "traverse"]),
    ("induct_occurs.txt", 0,
     ["induct", corpus("occurs.mfx"), "--fun", "occurs"]),
    ("induct_trace_raw.txt", 0,
     ["induct", corpus("trace.mfx"), "--fun", "trace", "--raw"]),
    ("induct_trace_json.txt", 0,
     ["induct", corpus("trace.mfx"), "--fun", "trace", "--json"]),
    ("audit_trace_correct.txt", 0,
     ["audit", corpus("trace.mfx"), "--fun", "trace",
      "--q", corpus("trace_q_correct.mfx"), "--nat-max", "32"]),
    ("audit_trace_wrong.txt", 3,
     ["audit", corpus("trace.mfx"), "--fun", "trace",
      "--q", corpus("trace_q_wrong.mfx"), "--nat-max", "32"]),
]


class TestGolden:
    @pytest.mark.parametrize("golden,code,argv",
                             GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_golden(self, capsys, golden, code, argv):
        got_code, out, _ = run(capsys, *argv)
        assert got_code == code
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_outputs_are_deterministic(self, capsys):
        argv = ["induct", corpus("occurs.mfx"), "--fun", "occurs"]
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b


class TestExitCodes:
    def test_static_error_is_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.mfx"
        bad.write_text("option fun f(n : nat) : nat = return m")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "unbound" in err

    def test_monad_error_is_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.mfx"
        bad.write_text("option fun f(n : nat) : nat = return (f(n) + 1)")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "pure position" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, "eval", "no_such_file.mfx",
                           "--fun", "f", "--args", "1")
        assert code == 1

    def test_usage_error_is_1(self, capsys):
        code, _, err = run(capsys, "eval", corpus("trace.mfx"))
        assert code == 1
        assert "usage" in err

    def test_unknown_function_is_1(self, capsys):
        code, _, err = run(capsys, "eval", corpus("trace.mfx"),
                           "--fun", "nope", "--args", "1")
        assert code == 1

    def test_ill_typed_args_rejected(self, capsys):
        code, _, err = run(capsys, "eval", corpus("trace.mfx"),
                           "--fun", "trace", "--args", "true")
        assert code == 1

    @pytest.mark.parametrize("env,argv", [
        (None, ["eval", corpus("trace.mfx"), "--args", "6", "--fuel", "-5"]),
        ("-3", ["eval", corpus("trace.mfx"), "--args", "6"]),
        (None, ["audit", corpus("trace.mfx"), "--q",
                corpus("trace_q_correct.mfx"), "--fuel", "-1"]),
        ("-3", ["audit", corpus("trace.mfx"), "--q",
                corpus("trace_q_correct.mfx")]),
        (None, ["approx", corpus("trace.mfx"), "--args", "6",
                "--max-fuel", "0"]),
    ])
    def test_bad_fuel_is_1(self, capsys, monkeypatch, env, argv):
        if env is not None:
            monkeypatch.setenv("MFX_FUEL", env)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fuel", [0, 1])
    def test_diverging_audit_predicate_is_1(self, capsys, fuel):
        # q runs its helper tracespec at the audit's cap; a run of q that
        # does not terminate is no verdict on the rule.
        code, out, err = run(capsys, "audit", corpus("trace.mfx"),
                             "--q", corpus("trace_q_correct.mfx"),
                             "--fuel", str(fuel))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "q(" in err and f"fuel cap {fuel}" in err

    @pytest.mark.parametrize("q_text,mismatch", [
        ("datatype t = A | B\n"
         "option fun q(n : nat, ys : t) : bool =\n"
         "  case ys of A => return true | B => return false\n",
         "q's parameter 'ys' has type t, but trace's result has type list nat"),
        ("option fun q(n : bool, ys : list nat) : bool = return n\n",
         "q's parameter 'n' has type bool, but trace's parameter 'n' has "
         "type nat"),
    ], ids=["result", "parameter"])
    def test_ill_typed_audit_predicate_is_1(self, capsys, tmp_path, q_text,
                                            mismatch):
        # q must take the function's parameter types and then its result
        # type; the first mismatch is named before any run of q.
        q = tmp_path / "q.mfx"
        q.write_text(q_text)
        code, out, err = run(capsys, "audit", corpus("trace.mfx"),
                             "--q", str(q))
        assert code == 1 and out == ""
        assert err == f"error: {mismatch}\n"

    @pytest.mark.parametrize("env,argv,stdout", [
        (None, ["--fuel", "100000"], "Diverged(100000)\n"),
        ("100000", [], "Diverged(100000)\n"),
        (None, ["--fuel", "20000"], "Diverged(20000)\n"),
    ], ids=["fuel-100000", "env-100000", "fuel-20000"])
    def test_deep_cyclic_run(self, env, argv, stdout):
        # In a fresh interpreter, with Python's default recursion limit: the
        # evaluator keeps pending binds on its own stack, so a large cap
        # costs only time and memory.
        environ = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        environ.pop("MFX_FUEL", None)
        if env is not None:
            environ["MFX_FUEL"] = env
        done = subprocess.run(
            [sys.executable, "-m", "mfx.cli", "eval", corpus("traverse.mfx"),
             "--args", "Node(7, ref0)", "--heap", corpus("cyclic.heap"), *argv],
            env=environ, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2 and done.stdout == stdout
        assert "Traceback" not in done.stderr

    def test_long_list_literal(self, tmp_path):
        # In a fresh interpreter, with Python's default recursion limit: list
        # literals are converted and type-checked by a loop down the spine.
        src = tmp_path / "same.mfx"
        src.write_text("option fun same(xs : list nat) : list nat = return xs\n",
                       encoding="utf-8")
        items = ", ".join(str(i % 10) for i in range(20000))
        environ = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "mfx.cli", "eval", str(src),
             "--args", f"[{items}]"],
            env=environ, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stdout == f"OkPure([{items}])\n"
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("args", ["1 + 2", "1 # 2"])
    def test_non_literal_args_are_1(self, capsys, args):
        code, out, err = run(capsys, "eval", corpus("trace.mfx"), "--args", args)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["eval"], ["approx", "--max-fuel", "3"]],
                             ids=["eval", "approx"])
    @pytest.mark.parametrize("cell,want", [
        ("true", ["cell 0", "bool", "node"]),
        ("Node(true, ref0)", ["cell 0", "bool", "nat", "node"]),
    ], ids=["bool-cell", "bool-ctor-arg"])
    def test_ill_typed_heap_cell_is_1(self, capsys, tmp_path, command, cell, want):
        heap = tmp_path / "bad.heap"
        heap.write_text(f"0 ↦ {cell}\nnext=1\n", encoding="utf-8")
        code, out, err = run(capsys, command[0], corpus("traverse.mfx"),
                             "--args", "Node(1, ref0)", "--heap", str(heap),
                             *command[1:])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(w in err for w in want), err

    def test_long_cons_chain(self, tmp_path):
        # In a fresh interpreter, with Python's default recursion limit: a
        # '#' chain parses in a loop.
        src = tmp_path / "same.mfx"
        src.write_text("option fun same(xs : list nat) : list nat = return xs\n",
                       encoding="utf-8")
        items = [str(i % 10) for i in range(2000)]
        environ = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "mfx.cli", "eval", str(src),
             "--args", " # ".join(items + ["[]"])],
            env=environ, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stdout == f"OkPure([{', '.join(items)}])\n"

    def test_long_list_literal_in_program(self, tmp_path):
        # In a fresh interpreter: renaming and the continuity check leave a
        # closed list literal alone, so `check` needs no deep recursion.
        src = tmp_path / "lit.mfx"
        items = ", ".join(str(i % 10) for i in range(2000))
        src.write_text(f"option fun f(n : nat) : list nat = return [{items}]\n",
                       encoding="utf-8")
        environ = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "mfx.cli", "check", str(src)],
            env=environ, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stdout == "f: continuous (2 rule applications)\n"

    @pytest.mark.parametrize("text", [
        "[" + ", ".join(str(i % 10) for i in range(10_000)) + "]",
        " # ".join([str(i % 10) for i in range(10_000)] + ["[]"]),
    ], ids=["brackets", "cons-chain"])
    def test_long_list_literal_in_program_evaluates(self, tmp_path, text):
        # In a fresh interpreter, with Python's default recursion limit: the
        # code generator emits a list spine by a loop, one line per cell.
        src = tmp_path / "lit.mfx"
        src.write_text(f"option fun f(n : nat) : list nat = return {text}\n",
                       encoding="utf-8")
        environ = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "mfx.cli", "eval", str(src), "--args", "0"],
            env=environ, capture_output=True, text=True, timeout=120)
        items = ", ".join(str(i % 10) for i in range(10_000))
        assert done.returncode == 0 and done.stdout == f"OkPure([{items}])\n"
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv", [
        ["check", "{bad}"],
        ["eval", corpus("trace.mfx"), "--args", "²"],
    ], ids=["program", "args"])
    def test_superscript_digit_is_1(self, capsys, tmp_path, argv):
        # '²' is a digit to str.isdigit but not a decimal digit, so it is
        # no natural literal.
        bad = tmp_path / "bad.mfx"
        bad.write_text("option fun f(x : nat) : nat = return x + ²",
                       encoding="utf-8")
        code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected character '²'" in err

    def test_superscript_in_identifier(self, capsys, tmp_path):
        src = tmp_path / "sq.mfx"
        src.write_text("option fun f(x² : nat) : nat = return x² + 1",
                       encoding="utf-8")
        assert run(capsys, "eval", str(src), "--args", "2") == (0, "OkPure(3)\n", "")

    # Each malformed input ends in one error line with the message, line and
    # column it had before the compiled scanner, the precedence table and
    # the one-stream heap reader.
    @pytest.mark.parametrize("source,error", [
        ("option fun f(a : nat) : nat =\n  return a (* never closed",
         "2:12: unterminated block comment"),
        ("option fun f(a : nat) : nat = return a + ²",
         "1:42: unexpected character '²'"),
        ("option fun f(a : nat, b : nat, c : nat) : bool =\n  return a = b = c",
         "2:16: expected 'datatype', 'pure fun', 'option fun' or 'heap fun'"),
        ("option fun f(a : nat, b : bool) : nat = return a + not b",
         "1:52: expected a pure expression"),
        ("option fun f(a : nat) : list nat = return a #",
         "1:46: expected a pure expression"),
        ("option fun f(a : nat) : nat = return (a + 1",
         "1:44: expected ')', found ''"),
        ("option fun f(a : nat) : nat =\n  do x ← return a;\n     return x",
         "3:14: expected 'done', found ''"),
        ("option fun f(a : nat) : nat = do ref5 ← return a; return ref5 done",
         "1:34: 'ref5' is reserved for reference literals"),
    ], ids=["unterminated-comment", "superscript", "chained-comparison",
            "not-after-operator", "trailing-cons", "missing-paren",
            "missing-done", "ref-literal-binder"])
    def test_malformed_program_is_1(self, capsys, tmp_path, source, error):
        src = tmp_path / "bad.mfx"
        src.write_text(source, encoding="utf-8")
        assert run(capsys, "eval", str(src), "--args", "1") \
            == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("args,error", [
        ("1 (* never closed", "1:3: unterminated block comment"),
        ("²", "1:1: unexpected character '²'"),
        ("1 = 2 = 3", "1:7: expected a pure expression"),
        ("1 + not true", "1:5: expected a pure expression"),
        ("1 #", "1:4: expected a pure expression"),
        ("(1", "1:3: expected ')', found ''"),
        ("do", "1:1: expected a pure expression"),
        ("ref5(1)", "'trace' takes 1 argument(s), got 2"),
    ], ids=["unterminated-comment", "superscript", "chained-comparison",
            "not-after-operator", "trailing-cons", "missing-paren", "keyword",
            "ref-literal-applied"])
    def test_malformed_args_is_1(self, capsys, args, error):
        assert run(capsys, "eval", corpus("trace.mfx"), "--args", args) \
            == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("text,error", [
        ("0 ↦ Node(2, ref1)\n1 ↦ Empty\n",
         "{heap}: heap file must end with next=n"),
        ("0 ↦ Empty\nnext=1\nnext=1\n", "{heap}: line 3: duplicate next="),
        ("0 ↦ Empty\n1 ↦ Empty Empty\nnext=2\n",
         "{heap}: line 2: expected exactly one value"),
        ("0 ↦\nnext=1\n", "{heap}: line 1: expected exactly one value"),
        ("0 ↦ Node(2, ref1)\n1 Empty\nnext=2\n",
         "{heap}: line 2: expected 'id ↦ value' or 'next=n'"),
        ("-- one cell\n0 ↦ Node(2, ref5)\nnext=1\n",
         "{heap}: heap file contains a dangling reference"),
        ("0 ↦ Node(2, ref1)\n\n1 ↦ Node(true, ref0)\nnext=2\n",
         "heap cell 1 does not hold a value of type node: argument of 'Node' "
         "has type bool, expected nat"),
        # A value is read from the whole file's token stream, so its error
        # has the position in the file (before, its column in the value
        # text and line 1).
        ("0 ↦ Empty\n\n1 ↦ Node(x, ref0)\nnext=2\n",
         "3:10: unbound variable 'x'"),
    ], ids=["missing-next", "duplicate-next", "two-values", "no-value",
            "no-arrow", "dangling", "ill-typed-cell", "value-error-position"])
    def test_malformed_heap_file_is_1(self, capsys, tmp_path, text, error):
        heap = tmp_path / "bad.heap"
        heap.write_text(text, encoding="utf-8")
        assert run(capsys, "eval", corpus("traverse.mfx"), "--args",
                   "Node(1, ref0)", "--heap", str(heap)) \
            == (1, "", f"error: {error.format(heap=heap)}\n")

    def test_heap_audit_rejected(self, capsys):
        code, _, err = run(capsys, "audit", corpus("occurs.mfx"),
                           "--fun", "occurs", "--q",
                           corpus("trace_q_correct.mfx"))
        assert code == 1 and "option-monad" in err


class TestFlags:
    def test_mfx_fuel_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MFX_FUEL", "3")
        code, out, _ = run(capsys, "eval", corpus("trace.mfx"),
                           "--fun", "trace", "--args", "6")
        assert code == 2 and out == "Diverged(3)\n"

    def test_fuel_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MFX_FUEL", "3")
        code, out, _ = run(capsys, "eval", corpus("trace.mfx"),
                           "--fun", "trace", "--args", "6", "--fuel", "10")
        assert code == 0 and out == "OkPure([6])\n"

    def test_consecutive_calls_share_no_state(self, capsys, monkeypatch):
        # main builds its argument parser once per process; a flag given in
        # one call does not leak into the next.
        argv = ["eval", corpus("trace.mfx"), "--fun", "trace", "--args", "6"]
        monkeypatch.delenv("MFX_FUEL", raising=False)
        assert run(capsys, *argv, "--fuel", "5") == (0, "OkPure([6])\n", "")
        assert run(capsys, *argv, "--fuel", "2") == (2, "Diverged(2)\n", "")
        assert run(capsys, *argv) == (0, "OkPure([6])\n", "")
        monkeypatch.setenv("MFX_FUEL", "3")
        assert run(capsys, *argv) == (2, "Diverged(3)\n", "")
        assert run(capsys, "eval", corpus("trace.mfx"), "--args", "6") \
            == (2, "Diverged(3)\n", "")

    def test_fun_defaults_when_unique(self, capsys):
        code, out, _ = run(capsys, "eval", corpus("traverse.mfx"),
                           "--args", "Empty")
        assert code == 0 and out == "Ok([], {; next=0})\n"

    def test_zero_domain_audit_vacuous(self, capsys):
        code, out, _ = run(capsys, "audit", corpus("trace.mfx"),
                           "--fun", "trace",
                           "--q", corpus("trace_q_wrong.mfx"),
                           "--nat-max", "-1", "--list-max-len", "0")
        assert code == 0
        assert "ObligationsHold" in out and "ConclusionHolds" in out

    def test_audit_json(self, capsys):
        import json

        code, out, _ = run(capsys, "audit", corpus("trace.mfx"),
                           "--fun", "trace",
                           "--q", corpus("trace_q_wrong.mfx"),
                           "--nat-max", "8")
        assert code == 3
        code, out, _ = run(capsys, "audit", corpus("trace.mfx"),
                           "--fun", "trace",
                           "--q", corpus("trace_q_wrong.mfx"),
                           "--nat-max", "8", "--json")
        assert code == 3
        j = json.loads(out)
        assert j["obligations_hold"] is False
        assert j["failed_obligation"] == 2

    def test_budget_flag(self, capsys):
        code, _, err = run(capsys, "audit", corpus("trace.mfx"),
                           "--fun", "trace",
                           "--q", corpus("trace_q_correct.mfx"),
                           "--nat-max", "32", "--budget", "10")
        assert code == 1 and "exceeded" in err

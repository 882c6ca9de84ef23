"""Parser, static checks, free variables, and pretty-printer round-trips."""

import json
from pathlib import Path

import pytest

import oracles
from mfx.corpus import PROGRAMS, load_program
from mfx.errors import DslTypeError, MonadError, ParseError, ScopeError
from mfx.syntax import (Bind, Case, If, Return, SelfCall, PCall, PVar, NAT, BOOL, TData, TList, TOption, TRef, TVar,
                        alpha_equivalent, check_fun_def, free_vars,
                        instantiate, parse_pexpr, parse_program, parse_values,
                        pretty, pretty_program, RefGet, _pexpr_children,
                        ExtCall, RefNew, RefSet)


def all_exprs(e):
    yield e
    if isinstance(e, Bind):
        yield from all_exprs(e.head)
        yield from all_exprs(e.body)
    elif isinstance(e, If):
        yield from all_exprs(e.then)
        yield from all_exprs(e.els)
    elif isinstance(e, Case):
        for _, b in e.branches:
            yield from all_exprs(b)


def pure_parts(e):
    if isinstance(e, Return):
        yield e.value
    elif isinstance(e, Bind):
        yield from pure_parts(e.head)
        yield from pure_parts(e.body)
    elif isinstance(e, If):
        yield e.cond
        yield from pure_parts(e.then)
        yield from pure_parts(e.els)
    elif isinstance(e, Case):
        yield e.scrutinee
        for _, b in e.branches:
            yield from pure_parts(b)
    elif isinstance(e, (SelfCall, ExtCall)):
        yield from e.args
    elif isinstance(e, RefNew):
        yield e.value
    elif isinstance(e, RefGet):
        yield e.ref
    elif isinstance(e, RefSet):
        yield e.ref
        yield e.value


def pexpr_nodes(p):
    yield p
    for c in _pexpr_children(p):
        yield from pexpr_nodes(c)


class TestParsing:
    def test_empty_source(self):
        prog = parse_program("")
        assert prog.data_decls == () and prog.fun_defs == () and prog.pure_defs == ()

    def test_traverse_shape(self, traverse_prog):
        assert len(traverse_prog.data_decls) == 1
        decl = traverse_prog.data_decl("node")
        assert [c.name for c in decl.ctors] == ["Empty", "Node"]
        f = traverse_prog.fun_def("traverse")
        assert f.monad == "heap"

    def test_trace_shape(self, trace_prog):
        assert [d.name for d in trace_prog.pure_defs] == ["step"]
        f = trace_prog.fun_def("trace")
        assert f.monad == "option"
        assert isinstance(f.body, If)

    def test_selfcall_in_arithmetic_is_monad_error(self):
        src = """
        option fun trace(n : nat) : nat =
          if n = 0 then return 0
          else do t <- trace(trace(n) + 1); return t done
        """
        with pytest.raises(MonadError):
            parse_program(src)
        src2 = """
        option fun f(n : nat) : nat = return (f(n) + 1)
        """
        with pytest.raises(MonadError):
            parse_program(src2)

    def test_heap_primitive_in_option_fun(self):
        with pytest.raises(MonadError):
            parse_program("option fun f(r : nat) : nat = !r")
        with pytest.raises(MonadError):
            parse_program("option fun f(r : nat) : nat = ref r")

    def test_unbound_and_arity_errors(self):
        with pytest.raises(ScopeError):
            parse_program("option fun f(n : nat) : nat = return m")
        with pytest.raises(ScopeError):
            parse_program("""
            option fun g(n : nat) : nat = return n
            option fun f(n : nat) : nat = g(n, n)
            """)

    def test_mutual_recursion_rejected(self):
        # f may only call itself and previously defined functions.
        with pytest.raises(ScopeError):
            parse_program("option fun f(n : nat) : nat = g(n)")

    def test_duplicate_definitions_rejected(self):
        with pytest.raises(ScopeError):
            parse_program("""
            option fun f(n : nat) : nat = return n
            option fun f(n : nat) : nat = return n
            """)
        with pytest.raises(ScopeError):
            parse_program("""
            datatype t = A | B
            datatype u = A nat
            """)

    @pytest.mark.parametrize("src", [
        "pure fun get_ref(a : nat, b : nat) : nat = a + b",
        "option fun set_ref(n : nat) : nat = return n",
        "heap fun new_ref_with(n : nat) : nat = return n",
        "datatype get_ref = A",
        "datatype t = A | set_ref",
    ])
    def test_heap_function_names_reserved(self, src):
        # Induction rules spell explicit-heap applications with these names.
        with pytest.raises(ScopeError, match="reserved"):
            parse_program(src)

    def test_case_must_be_exhaustive(self):
        with pytest.raises(DslTypeError):
            parse_program("""
            datatype t = A | B
            option fun f(x : t) : nat = case x of A => return 0
            """)

    def test_type_errors_located(self):
        with pytest.raises(DslTypeError) as ei:
            parse_program("option fun f(n : nat) : nat = return true")
        assert ei.value.line is not None

    def test_pure_fun_cannot_recurse(self):
        with pytest.raises(ScopeError):
            parse_program("pure fun f(n : nat) : nat = f(n)")

    def test_error_positions(self):
        with pytest.raises(ParseError) as ei:
            parse_program("option fun f(n : nat) : nat = return")
        assert ei.value.line == 1 and ei.value.col > 30

    def test_monad_mismatch_on_extcall(self):
        with pytest.raises(MonadError):
            parse_program("""
            heap fun g(n : nat) : nat = return n
            option fun f(n : nat) : nat = g(n)
            """)

    def test_binders_are_unique_per_definition(self, occurs_prog):
        f = occurs_prog.fun_def("occurs")
        binders = []
        for e in all_exprs(f.body):
            if isinstance(e, Bind):
                binders.append(e.var)
            if isinstance(e, Case):
                for pat, _ in e.branches:
                    binders.extend(pat.vars)
        assert len(binders) == len(set(binders))
        assert not set(binders) & {p for p, _ in f.params}

    def test_no_selfcall_under_pure_position(self):
        # Whole-tree scan: accepted programs never mention the defined
        # function inside a pure expression.
        for name in PROGRAMS:
            prog = load_program(name)
            for f in prog.fun_defs:
                for part in pure_parts(f.body):
                    assert not any(
                        isinstance(n, PCall) and n.name == f.name
                        for n in pexpr_nodes(part))


class TestChecker:
    def test_binder_types(self, occurs_prog):
        rtrm = TData("rtrm")
        f = occurs_prog.fun_def("occurs")
        assert check_fun_def(f, occurs_prog.names) == {
            "t": rtrm, "n": NAT, "s": TOption(TRef(rtrm)), "rp": TRef(rtrm),
            "n1": NAT, "r3": TRef(rtrm), "r4": TRef(rtrm), "b": BOOL}

    def test_instantiate(self):
        t = TData("pair", (TVar("a"), TList(TRef(TVar("b")))))
        assert instantiate(t, {"a": NAT, "b": BOOL}) == \
            TData("pair", (NAT, TList(TRef(BOOL))))
        with pytest.raises(KeyError):
            instantiate(TVar("c"), {})


class TestFreeVars:
    def test_single_variable(self):
        [v] = parse_values("0")
        assert free_vars(PVar("x")) == {"x"}

    def test_binder_removes_var(self):
        e = Bind("x", SelfCall((PVar("y"),)), Return(PVar("x")))
        assert free_vars(e) == {"y"}

    def test_occurs_body(self, occurs_prog):
        body = occurs_prog.fun_def("occurs").body
        assert free_vars(body) == {"r1", "r2"}


class TestPretty:
    def test_return_nil(self):
        prog = parse_program("option fun f(n : nat) : list nat = return []")
        assert pretty(prog.fun_def("f").body) == "return []"

    def test_bind_refget(self):
        prog = parse_program(
            "heap fun f(r : ref nat) : nat = do x ← !r; return x done")
        assert pretty(prog.fun_def("f").body) == "do x ← !r; return x done"

    def test_roundtrip_corpus(self):
        for name in PROGRAMS:
            prog = load_program(name)
            again = parse_program(pretty_program(prog))
            assert alpha_equivalent(again, prog), name

    def test_roundtrip_is_stable(self):
        for name in PROGRAMS:
            prog = load_program(name)
            once = pretty_program(prog)
            assert pretty_program(parse_program(once)) == once

    def test_roundtrip_ref_ops(self):
        src = """
        heap fun swap(a : ref nat, b : ref nat) : unit =
          do x ← !a; y ← !b; a := y; b := x; return () done
        """
        prog = parse_program(src)
        again = parse_program(pretty_program(prog))
        assert alpha_equivalent(again, prog)

    def test_nested_case_parenthesized(self, occurs_prog):
        text = pretty_program(occurs_prog)
        again = parse_program(text)
        assert alpha_equivalent(again, occurs_prog)


class TestPinnedFrontend:
    """What the scanner and parser produce, against digests computed with
    the character-at-a-time scanner and the seven-method operator ladder
    they replaced; the digests are recomputed from the current code."""

    def test_digests(self):
        path = Path(__file__).parent / "data" / "frontend_digests.json"
        assert oracles.frontend_digests() == json.loads(path.read_text())

    def test_operator_pairs_roundtrip(self):
        # Every pair of binary operators, unbracketed and in both nestings,
        # with and without "not" in front: whatever parses prints back to
        # the same tree.  18 of the 600 do not parse (two comparisons in a
        # row); the digests pin those errors.
        parsed = 0
        for src in oracles.operator_sources():
            try:
                e = parse_pexpr(src)
            except ParseError:
                continue
            assert parse_pexpr(pretty(e)) == e, src
            parsed += 1
        assert parsed == 582


class TestValueLiterals:
    def test_parse_values_sequence(self, traverse_prog):
        vals = parse_values("Node(1, ref0) [1, 2] true", traverse_prog)
        assert len(vals) == 3

    def test_ref_literals_only_in_values(self):
        with pytest.raises(ScopeError):
            parse_program("option fun f(n : nat) : nat = return ref0")


class TestRandomRoundTrip:
    """Generate well-typed programs and push them through pretty and parse.

    This exercises precedence parenthesization, do-block flattening, and
    the case-in-branch bracketing that hand-written sources rarely cover.
    """

    def _gen_nat(self, rng, scope, depth=0):
        import random as _r

        from mfx.syntax import PBin, PNat, PVar

        nats = [v for v, t in scope if t == "nat"]
        roll = rng.random()
        if depth > 2 or roll < 0.35 or not nats:
            if nats and rng.random() < 0.5:
                return PVar(rng.choice(nats))
            return PNat(rng.randint(0, 9))
        op = rng.choice(["+", "-", "div", "mod"])
        return PBin(op, self._gen_nat(rng, scope, depth + 1),
                    self._gen_nat(rng, scope, depth + 1))

    def _gen_bool(self, rng, scope, depth=0):
        from mfx.syntax import PBin, PBool, PNot

        roll = rng.random()
        if depth > 2 or roll < 0.2:
            return PBool(rng.random() < 0.5)
        if roll < 0.6:
            op = rng.choice(["=", "≠", "<"])
            return PBin(op, self._gen_nat(rng, scope, depth + 1),
                        self._gen_nat(rng, scope, depth + 1))
        if roll < 0.8:
            op = rng.choice(["and", "or"])
            return PBin(op, self._gen_bool(rng, scope, depth + 1),
                        self._gen_bool(rng, scope, depth + 1))
        return PNot(self._gen_bool(rng, scope, depth + 1))

    def _gen_expr(self, rng, scope, fresh, depth=0):
        from mfx.syntax import (Bind, Case, If, Pattern, Return, SelfCall,
                                PCtor, PVar)

        roll = rng.random()
        if depth > 3 or roll < 0.3:
            return Return(self._gen_nat(rng, scope))
        if roll < 0.45:
            x = f"x{next(fresh)}"
            return Bind(x, self._gen_expr(rng, scope, fresh, depth + 1),
                        self._gen_expr(rng, scope + [(x, "nat")], fresh,
                                       depth + 1))
        if roll < 0.6:
            return If(self._gen_bool(rng, scope),
                      self._gen_expr(rng, scope, fresh, depth + 1),
                      self._gen_expr(rng, scope, fresh, depth + 1))
        if roll < 0.8:
            ds = [v for v, t in scope if t == "D"]
            scrut = PVar(rng.choice(ds)) if ds else PCtor("A", ())
            y = f"x{next(fresh)}"
            return Case(scrut, (
                (Pattern("A", ()), self._gen_expr(rng, scope, fresh, depth + 1)),
                (Pattern("B", (y,)),
                 self._gen_expr(rng, scope + [(y, "nat")], fresh, depth + 1))))
        darg = PCtor("A", ()) if rng.random() < 0.5 \
            else PCtor("B", (self._gen_nat(rng, scope),))
        return SelfCall((self._gen_nat(rng, scope), darg))

    def test_random_programs_roundtrip(self):
        import itertools
        import random

        from mfx.syntax import (CtorDecl, DataDecl, FunDef, NAT, Program,
                                TData)

        rng = random.Random(424)
        for _ in range(150):
            fresh = itertools.count()
            body = self._gen_expr(rng, [("a", "nat"), ("d", "D")], fresh)
            prog = Program(
                (DataDecl("D", (), (CtorDecl("A", ()), CtorDecl("B", (NAT,)))),),
                (),
                (FunDef("f", (("a", NAT), ("d", TData("D"))), NAT, "option",
                        body),))
            text = pretty_program(prog)
            parsed = parse_program(text)
            assert alpha_equivalent(parsed, prog), text

"""Abstract syntax, parser, static checks, and pretty-printer for the monadic DSL.

A program is a sequence of datatype declarations, pure function definitions,
and monadic function definitions (one monad per definition, declared in the
header).  Recursive calls may appear only in computation position; the pure
sublanguage is total by construction.  The parser alpha-renames binders so
that within each definition all bound names are pairwise distinct and do not
shadow any top-level name, which makes later substitution steps capture-free.

Concrete grammar (whitespace-insensitive, ``--`` line comments, ``(* *)``
block comments, ASCII aliases ``<-`` ``=>`` ``|->`` ``!=`` for ← ⇒ ↦ ≠)::

    program  := (datadecl | puredef | fundef)*
    datadecl := "datatype" ident tyvar* "=" ctor ("|" ctor)*
    ctor     := ident atype*
    puredef  := "pure" "fun" ident "(" params ")" ":" type "=" pexpr
    fundef   := ("option" | "heap") "fun" ident "(" params ")" ":" type "=" expr
    expr     := "return" pexpr | "do" stmt (";" stmt)* "done"
              | "if" pexpr "then" expr "else" expr
              | "case" pexpr "of" pattern "⇒" expr ("|" pattern "⇒" expr)*
              | ident "(" pexpr, ... ")" | "ref" patom | "!" patom
              | pexpr ":=" pexpr | "(" expr ")"
    stmt     := ident "←" expr | expr          (last stmt must be a bare expr)
    pattern  := ident | ident "(" ident, ... ")" | "None" | "Some" "(" ident ")"
    type     := ("list" | "option" | "ref") atype | ident atype* | atype
    atype    := "nat" | "bool" | "unit" | ident | "(" type ")"
    pexpr    := patom | "not" pexpr | pexpr binop pexpr

Pure expressions comprise variables, literals (naturals, booleans, unit,
lists, options, constructor applications), calls of previously defined pure
functions, arithmetic (+, -, div, mod; natural subtraction truncates at zero,
div/mod by zero yield 0), comparisons (=, ≠, <), and boolean connectives
(and, or, not).  From loosest to tightest: or, and, not, the comparisons
(which do not associate), # (right-associative), + and -, div and mod.

The scanner is one compiled regular expression with a named group per token
class; only nested block comments take a loop of their own.  Binary
operators are parsed by precedence climbing over ``_PREC``, the table the
printer brackets by, so parser and printer agree by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .errors import DslTypeError, MonadError, ParseError, ScopeError

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

POS = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class TNat(Type):
    def __str__(self):
        return "nat"


@dataclass(frozen=True)
class TBool(Type):
    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class TUnit(Type):
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class THeap(Type):
    """Type of heap variables in generated induction rules; not parseable."""

    def __str__(self):
        return "heap"


@dataclass(frozen=True)
class TList(Type):
    elem: Type

    def __str__(self):
        return f"list {_atomize(self.elem)}"


@dataclass(frozen=True)
class TOption(Type):
    elem: Type

    def __str__(self):
        return f"option {_atomize(self.elem)}"


@dataclass(frozen=True)
class TRef(Type):
    elem: Type

    def __str__(self):
        return f"ref {_atomize(self.elem)}"


@dataclass(frozen=True)
class TData(Type):
    name: str
    args: tuple[Type, ...] = ()

    def __str__(self):
        if not self.args:
            return self.name
        return self.name + "".join(" " + _atomize(a) for a in self.args)


@dataclass(frozen=True)
class TVar(Type):
    """A datatype parameter; occurs only inside datatype declarations."""

    name: str

    def __str__(self):
        return self.name


def _atomize(t: Type) -> str:
    s = str(t)
    return f"({s})" if " " in s else s


NAT, BOOL, UNIT, HEAP = TNat(), TBool(), TUnit(), THeap()

# ---------------------------------------------------------------------------
# Pure expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PExpr:
    pass


@dataclass(frozen=True)
class PVar(PExpr):
    name: str
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PNat(PExpr):
    value: int
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PBool(PExpr):
    value: bool
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PUnit(PExpr):
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PNil(PExpr):
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PCons(PExpr):
    head: PExpr
    tail: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PNone(PExpr):
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PSome(PExpr):
    arg: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PCtor(PExpr):
    name: str
    args: tuple[PExpr, ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PCall(PExpr):
    """Application of a previously defined pure function."""

    name: str
    args: tuple[PExpr, ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PBin(PExpr):
    op: str  # + - div mod = ≠ < and or
    lhs: PExpr
    rhs: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PNot(PExpr):
    arg: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PRefLit(PExpr):
    """A reference literal ``refN``; valid in CLI values and heap files only."""

    rid: int
    pos: Optional[tuple[int, int]] = POS


# ---------------------------------------------------------------------------
# Computation expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Return(Expr):
    value: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class Bind(Expr):
    var: str
    head: Expr
    body: Expr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class If(Expr):
    cond: PExpr
    then: Expr
    els: Expr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class Pattern:
    ctor: str  # constructor name, or "None"/"Some"
    vars: tuple[str, ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class Case(Expr):
    scrutinee: PExpr
    branches: tuple[tuple[Pattern, Expr], ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class SelfCall(Expr):
    args: tuple[PExpr, ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class ExtCall(Expr):
    name: str
    args: tuple[PExpr, ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class RefNew(Expr):
    value: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class RefGet(Expr):
    ref: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class RefSet(Expr):
    ref: PExpr
    value: PExpr
    pos: Optional[tuple[int, int]] = POS


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CtorDecl:
    name: str
    arg_types: tuple[Type, ...]


@dataclass(frozen=True)
class DataDecl:
    name: str
    type_params: tuple[str, ...]
    ctors: tuple[CtorDecl, ...]
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class PureDef:
    name: str
    params: tuple[tuple[str, Type], ...]
    result_type: Type
    body: PExpr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class FunDef:
    name: str
    params: tuple[tuple[str, Type], ...]
    result_type: Type
    monad: str  # "option" | "heap"
    body: Expr
    pos: Optional[tuple[int, int]] = POS


@dataclass(frozen=True)
class Program:
    data_decls: tuple[DataDecl, ...] = ()
    pure_defs: tuple[PureDef, ...] = ()
    fun_defs: tuple[FunDef, ...] = ()
    # The evaluator's compiled code for this program, filled in on first use.
    compiled: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    @cached_property
    def names(self) -> Names:
        """This program's name table, built on first use."""
        return Names(self)

    def data_decl(self, name: str) -> DataDecl:
        return self.names.datatypes[name]

    def pure_def(self, name: str) -> PureDef:
        return self.names.pure_funs[name]

    def fun_def(self, name: str) -> FunDef:
        return self.names.monadic_funs[name]

    def ctor_decl(self, name: str) -> tuple[DataDecl, CtorDecl]:
        return self.names.ctors[name]


class Names:
    """The top-level names in scope, by kind: datatypes, constructors (each
    with its declaration), pure functions and monadic functions.

    The parser fills one in declaration order, so a definition sees only
    earlier ones; a finished Program provides its own as ``Program.names``.
    The type checker reads names from nothing else.
    """

    def __init__(self, program: Optional[Program] = None):
        self.datatypes: dict[str, DataDecl] = {}
        self.ctors: dict[str, tuple[DataDecl, CtorDecl]] = {}
        self.pure_funs: dict[str, PureDef] = {}
        self.monadic_funs: dict[str, FunDef] = {}
        if program is not None:
            for d in program.data_decls:
                self.datatypes[d.name] = d
                self.ctors.update((c.name, (d, c)) for c in d.ctors)
            self.pure_funs.update((d.name, d) for d in program.pure_defs)
            self.monadic_funs.update((d.name, d) for d in program.fun_defs)

    def __contains__(self, name: str) -> bool:
        return name in self.datatypes or name in self.ctors \
            or name in self.pure_funs or name in self.monadic_funs

    def all(self) -> set[str]:
        return {*self.datatypes, *self.ctors, *self.pure_funs, *self.monadic_funs}


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "datatype", "pure", "option", "heap", "fun", "return", "do", "done",
    "if", "then", "else", "case", "of", "ref", "div", "mod", "and", "or",
    "not", "true", "false", "None", "Some", "nat", "bool", "unit", "list",
}

# Multi-char symbols first so max-munch wins; raw spelling, canonical text.
SYMBOLS = [
    ("<-", "←"), ("=>", "⇒"), ("|->", "↦"), ("!=", "≠"), (":=", ":="),
    ("←", "←"), ("⇒", "⇒"), ("↦", "↦"), ("≠", "≠"),
    ("(", "("), (")", ")"), ("[", "["), ("]", "]"), (",", ","), (";", ";"),
    (":", ":"), ("=", "="), ("<", "<"), ("|", "|"), ("!", "!"), ("#", "#"),
    ("+", "+"), ("-", "-"),
]

_REF_LIT = re.compile(r"ref(\d+)$")

# Induction rules spell explicit-heap applications as calls of these names,
# so no definition may take them.
HEAP_FUNS = ("get_ref", "set_ref", "new_ref_with")


class Token(NamedTuple):
    kind: str  # "ident" | "nat" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int


# One alternative per token class, tried in order, each also taking the
# spaces after it.  Only "\n" starts a new line.  A word starts with a letter
# or "_": "\w" also admits digits such as "²", so a word that starts outside
# ASCII has its first character checked.
_TOKEN = re.compile("(?:" + "|".join([
    r"(?P<word>[A-Za-z_][\w']*)", r"(?P<newline>\n)", r"(?P<comment>--[^\n]*)",
    r"(?P<block>\(\*)",
    "(?P<sym>" + "|".join(re.escape(raw) for raw, _ in SYMBOLS) + ")",
    r"(?P<nat>\d+)", r"(?P<uword>\w[\w']*)", r"(?P<space>(?=[^\S\n]))",
]) + r")[^\S\n]*")
_BLOCK_STEP = re.compile(r"\(\*|\*\)|\n")
_CANON = dict(SYMBOLS)


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    append, match = toks.append, _TOKEN.match
    new = tuple.__new__  # Token(...) without the Python-level __new__
    line, line_start, i, n = 1, 0, 0, len(source)
    while i < n:
        m = match(source, i)
        kind = m and m.lastgroup
        if kind == "word" or kind == "uword" and source[i].isalpha():
            word = m.group(kind)
            append(new(Token, ("kw" if word in KEYWORDS else "ident", word,
                               line, i - line_start + 1)))
        elif kind == "sym":
            append(new(Token, ("sym", _CANON[m.group("sym")], line,
                               i - line_start + 1)))
        elif kind == "newline":
            line, line_start = line + 1, i + 1
        elif kind == "nat":
            append(new(Token, ("nat", m.group("nat"), line, i - line_start + 1)))
        elif kind == "block":  # nested comments: a depth count
            l0, c0, depth, j = line, i - line_start + 1, 1, i + 2
            while depth:
                step = _BLOCK_STEP.search(source, j)
                if step is None:
                    raise ParseError("unterminated block comment", l0, c0)
                j = step.end()
                if step.group() == "\n":
                    line, line_start = line + 1, j
                else:
                    depth += 1 if step.group() == "(*" else -1
            i = j
            continue
        elif kind != "comment" and kind != "space":
            raise ParseError(f"unexpected character {source[i]!r}",
                             line, i - line_start + 1)
        i = m.end()
    append(Token("eof", "", line, i - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binding strength of the binary operators, shared by the parser and the
# printer; higher binds tighter.  "#" is right-associative and the
# comparisons do not associate; the others associate to the left.  The
# prefix "not" sits between "and" and the comparisons.
_PREC = {"or": 1, "and": 2, "=": 4, "≠": 4, "<": 4, "#": 5, "+": 6, "-": 6,
         "div": 7, "mod": 7}
_NON_LEFT_ASSOC = frozenset({"=", "≠", "<", "#"})
_NOT_PREC, _ATOM_PREC = 3, 99

# Keywords are never identifiers, so a token's text alone can tell them.
_BASE_TYPES = {"nat": NAT, "bool": BOOL, "unit": UNIT}
_EXPR_KEYWORDS = ("return", "do", "if", "case", "ref")


class _Parser:
    def __init__(self, toks: list[Token], names: Names, ref_lits: bool = False):
        # A second eof, so that a lookahead of 2 needs no bounds check.
        self.toks = toks + toks[-1:]
        self.i = 0
        # Filled in declaration order; later definitions may only refer to
        # earlier ones, which rules out mutual recursion.
        self.names = names
        # Whether an identifier refN is a reference literal (values only).
        self.ref_lits = ref_lits
        self.current_fun: Optional[str] = None
        self.current_monad: Optional[str] = None

    # -- token helpers

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.i + k]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.toks[self.i]
        if t.kind != kind or text is not None and t.text != text:
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str, tok: Token | None = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- program

    def program(self) -> Program:
        datas, pures, funs = [], [], []
        while not self.at("eof"):
            if self.at("kw", "datatype"):
                datas.append(self.datadecl())
            elif self.at("kw", "pure"):
                pures.append(self.puredef())
            elif self.at("kw", "option") or self.at("kw", "heap"):
                funs.append(self.fundef())
            else:
                self.fail("expected 'datatype', 'pure fun', 'option fun' or 'heap fun'")
        return Program(tuple(datas), tuple(pures), tuple(funs))

    def _fresh_top_name(self, tok: Token) -> str:
        name = tok.text
        if name in self.names:
            raise ScopeError(f"duplicate definition of {name!r}", tok.line, tok.col)
        if name in HEAP_FUNS:
            raise ScopeError(f"{name!r} is reserved for explicit-heap terms",
                             tok.line, tok.col)
        return name

    def datadecl(self) -> DataDecl:
        kw = self.expect("kw", "datatype")
        name_tok = self.expect("ident")
        name = self._fresh_top_name(name_tok)
        params = []
        while self.at("ident"):
            p = self.next().text
            if p in params:
                self.fail(f"duplicate type parameter {p!r}")
            params.append(p)
        self.expect("sym", "=")
        # Pre-register so constructor argument types may mention the datatype.
        self.names.datatypes[name] = DataDecl(name, tuple(params), ())
        ctors = [self.ctordecl(params)]
        while self.at("sym", "|"):
            self.next()
            ctors.append(self.ctordecl(params))
        decl = DataDecl(name, tuple(params), tuple(ctors), pos=(kw.line, kw.col))
        self.names.datatypes[name] = decl
        for c in decl.ctors:
            if c.name in self.names.ctors:
                raise ScopeError(f"duplicate constructor {c.name!r}", kw.line, kw.col)
            self.names.ctors[c.name] = (decl, c)
        return decl

    def ctordecl(self, ty_params: list[str]) -> CtorDecl:
        name_tok = self.expect("ident")
        self._fresh_top_name(name_tok)
        args = []
        while self._at_atype():
            args.append(self.atype(ty_params))
        return CtorDecl(name_tok.text, tuple(args))

    # -- types

    def _at_atype(self) -> bool:
        t = self.peek()
        return t.text in _BASE_TYPES or t.kind == "ident" or t.text == "("

    def atype(self, ty_params: list[str]) -> Type:
        t = self.peek()
        if t.text in _BASE_TYPES:
            self.i += 1
            return _BASE_TYPES[t.text]
        if self.at("sym", "("):
            self.next()
            ty = self.type_(ty_params)
            self.expect("sym", ")")
            return ty
        if self.at("ident"):
            name = self.next().text
            if name in ty_params:
                return TVar(name)
            decl = self.names.datatypes.get(name)
            if decl is None:
                raise ScopeError(f"unknown type {name!r}", t.line, t.col)
            if decl.type_params:
                raise DslTypeError(
                    f"type {name!r} expects {len(decl.type_params)} argument(s)",
                    t.line, t.col)
            return TData(name)
        self.fail("expected a type")

    def type_(self, ty_params: list[str]) -> Type:
        t = self.peek()
        if t.kind == "kw" and t.text in ("list", "option", "ref"):
            self.next()
            arg = self.atype(ty_params)
            return {"list": TList, "option": TOption, "ref": TRef}[t.text](arg)
        if t.kind == "ident" and t.text in self.names.datatypes:
            decl = self.names.datatypes[t.text]
            if decl.type_params:
                self.next()
                args = tuple(self.atype(ty_params) for _ in decl.type_params)
                return TData(t.text, args)
        return self.atype(ty_params)

    # -- function definitions

    def _params(self, ty_params: list[str]) -> tuple[tuple[str, Type], ...]:
        self.expect("sym", "(")
        params: list[tuple[str, Type]] = []
        if not self.at("sym", ")"):
            while True:
                name_tok = self.expect("ident")
                if any(name_tok.text == p for p, _ in params):
                    self.fail(f"duplicate parameter {name_tok.text!r}", name_tok)
                self._check_binder_name(name_tok)
                self.expect("sym", ":")
                params.append((name_tok.text, self.type_(ty_params)))
                if not self.at("sym", ","):
                    break
                self.next()
        self.expect("sym", ")")
        return tuple(params)

    def _check_binder_name(self, tok: Token):
        if _REF_LIT.match(tok.text):
            self.fail(f"{tok.text!r} is reserved for reference literals", tok)
        if tok.text in self.names:
            raise ScopeError(f"{tok.text!r} shadows a top-level name", tok.line, tok.col)

    def puredef(self) -> PureDef:
        kw = self.expect("kw", "pure")
        self.expect("kw", "fun")
        name_tok = self.expect("ident")
        name = self._fresh_top_name(name_tok)
        params = self._params([])
        self.expect("sym", ":")
        rty = self.type_([])
        self.expect("sym", "=")
        self.current_fun = name
        self.current_monad = None
        body = self.pexpr({p for p, _ in params})
        self.current_fun = None
        d = PureDef(name, params, rty, body, pos=(kw.line, kw.col))
        _TypeCheck(self.names).check_pure_def(d)
        self.names.pure_funs[name] = d
        return d

    def fundef(self) -> FunDef:
        monad_tok = self.next()  # "option" | "heap"
        self.expect("kw", "fun")
        name_tok = self.expect("ident")
        name = self._fresh_top_name(name_tok)
        params = self._params([])
        self.expect("sym", ":")
        rty = self.type_([])
        self.expect("sym", "=")
        self.current_fun = name
        self.current_monad = monad_tok.text
        # Pre-register the arity so SelfCalls are checkable while parsing.
        self._self_arity = len(params)
        body = self.expr({p for p, _ in params})
        self.current_fun = None
        self.current_monad = None
        d = FunDef(name, params, rty, monad_tok.text, body, pos=(monad_tok.line, monad_tok.col))
        d = _alpha_rename(d, self.names.all() | {name})
        check_fun_def(d, self.names)
        self.names.monadic_funs[name] = d
        return d

    # -- computation expressions

    def expr(self, scope: set[str]) -> Expr:
        t = self.toks[self.i]
        text, pos = t.text, (t.line, t.col)
        if text == "return":
            self.i += 1
            return Return(self.pexpr(scope), pos=pos)
        if text == "do":
            return self.doblock(scope)
        if text == "if":
            self.i += 1
            cond = self.pexpr(scope)
            self.expect("kw", "then")
            then = self.expr(scope)
            self.expect("kw", "else")
            return If(cond, then, self.expr(scope), pos=pos)
        if text == "case":
            return self.caseblock(scope)
        if text == "ref" or text == "!":
            self.i += 1
            self._require_heap(t)
            return (RefNew if text == "ref" else RefGet)(self.patom(scope), pos=pos)
        if text == "(" and self._paren_is_expr():
            self.i += 1
            e = self.expr(scope)
            self.expect("sym", ")")
            return e
        # Otherwise: a call of a monadic function, or an assignment.
        p = self.pexpr(scope, comp=True)
        if self.at("sym", ":="):
            self.next()
            self._require_heap(t)
            return RefSet(p, self.pexpr(scope), pos=(t.line, t.col))
        if isinstance(p, PCall) and p.name == self.current_fun:
            return SelfCall(p.args, pos=p.pos)
        if isinstance(p, PCall) and p.name in self.names.monadic_funs:
            callee = self.names.monadic_funs[p.name]
            if callee.monad != self.current_monad:
                raise MonadError(
                    f"{p.name!r} is a {callee.monad}-monad function; "
                    f"cannot call it from a {self.current_monad} definition",
                    *(p.pos or (t.line, t.col)))
            return ExtCall(p.name, p.args, pos=p.pos)
        bad = self._find_monadic_mention(p)
        if bad is not None:
            if bad.name == self.current_fun:
                raise MonadError("recursive call in pure position",
                                 *(bad.pos or (t.line, t.col)))
            raise MonadError(f"call of monadic function {bad.name!r} in pure position",
                             *(bad.pos or (t.line, t.col)))
        self.fail("pure expression in computation position (wrap it in 'return')", t)

    def _find_monadic_mention(self, p: PExpr) -> Optional[PCall]:
        if isinstance(p, PCall):
            if p.name == self.current_fun or p.name in self.names.monadic_funs:
                return p
        for sub in _pexpr_children(p):
            hit = self._find_monadic_mention(sub)
            if hit is not None:
                return hit
        return None

    def _require_heap(self, t: Token):
        if self.current_monad != "heap":
            raise MonadError("heap primitive in an option definition", t.line, t.col)

    def _paren_is_expr(self) -> bool:
        """Disambiguate '(' expr ')' from a parenthesised pure expression."""
        t, u = self.toks[self.i + 1], self.toks[self.i + 2]
        return t.text in _EXPR_KEYWORDS or t.text == "!" \
            or t.text == "(" and u.text in _EXPR_KEYWORDS

    def doblock(self, scope: set[str]) -> Expr:
        do_tok = self.expect("kw", "do")
        stmts: list[tuple[Optional[str], Expr, Token]] = []
        while True:
            t = self.peek()
            if self.at("ident") and self.peek(1).kind == "sym" and self.peek(1).text == "←":
                var_tok = self.next()
                self._check_binder_name(var_tok)
                self.next()  # ←
                head = self.expr(scope)
                scope = scope | {var_tok.text}
                stmts.append((var_tok.text, head, t))
            else:
                stmts.append((None, self.expr(scope), t))
            if self.at("sym", ";"):
                self.next()
                continue
            break
        self.expect("kw", "done")
        last_var, last_expr, last_tok = stmts[-1]
        if last_var is not None:
            self.fail("a do-block must end with an expression, not a binding", last_tok)
        # The final statement is the innermost continuation; bare statements
        # in the middle bind a throwaway name.
        result = last_expr
        for var, head, tok in reversed(stmts[:-1]):
            result = Bind(var if var is not None else "_", head, result,
                          pos=(tok.line, tok.col))
        return result

    def caseblock(self, scope: set[str]) -> Expr:
        case_tok = self.expect("kw", "case")
        scrut = self.pexpr(scope)
        self.expect("kw", "of")
        branches = [self.branch(scope)]
        while self.at("sym", "|"):
            self.next()
            branches.append(self.branch(scope))
        seen = set()
        for pat, _ in branches:
            if pat.ctor in seen:
                raise ScopeError(f"duplicate case branch for {pat.ctor!r}",
                                 *(pat.pos or (case_tok.line, case_tok.col)))
            seen.add(pat.ctor)
        return Case(scrut, tuple(branches), pos=(case_tok.line, case_tok.col))

    def branch(self, scope: set[str]) -> tuple[Pattern, Expr]:
        t = self.peek()
        if self.at("kw", "None"):
            self.next()
            pat = Pattern("None", (), pos=(t.line, t.col))
        elif self.at("kw", "Some"):
            self.next()
            self.expect("sym", "(")
            v = self.expect("ident")
            self._check_binder_name(v)
            self.expect("sym", ")")
            pat = Pattern("Some", (v.text,), pos=(t.line, t.col))
        else:
            name_tok = self.expect("ident")
            if name_tok.text not in self.names.ctors:
                raise ScopeError(f"unknown constructor {name_tok.text!r}",
                                 name_tok.line, name_tok.col)
            vars_: list[str] = []
            if self.at("sym", "("):
                self.next()
                while True:
                    v = self.expect("ident")
                    self._check_binder_name(v)
                    if v.text in vars_:
                        self.fail(f"duplicate pattern variable {v.text!r}", v)
                    vars_.append(v.text)
                    if not self.at("sym", ","):
                        break
                    self.next()
                self.expect("sym", ")")
            _, cdecl = self.names.ctors[name_tok.text]
            if len(vars_) != len(cdecl.arg_types):
                raise ScopeError(
                    f"constructor {name_tok.text!r} expects {len(cdecl.arg_types)} "
                    f"argument(s), pattern has {len(vars_)}",
                    name_tok.line, name_tok.col)
            pat = Pattern(name_tok.text, tuple(vars_), pos=(t.line, t.col))
        self.expect("sym", "⇒")
        return pat, self.expr(scope | set(pat.vars))

    # -- pure expressions (precedence climbing over _PREC)

    def pexpr(self, scope: set[str], comp: bool = False, min_prec: int = 0) -> PExpr:
        """A pure expression whose operators bind at least as tightly as
        ``min_prec``; ``comp`` lets its first atom call a monadic function."""
        toks = self.toks
        t = toks[self.i]
        if t.text == "not" and min_prec <= _NOT_PREC:
            self.i += 1
            e = PNot(self.pexpr(scope, False, _NOT_PREC), pos=(t.line, t.col))
            lvl = _NOT_PREC
        else:
            e, lvl = self.patom(scope, comp), _ATOM_PREC
        while True:
            t = toks[self.i]
            prec = _PREC.get(t.text)
            # The left operand e must bind at least as tightly as the
            # operator, and more tightly unless it associates to the left.
            if prec is None or prec < min_prec \
                    or lvl < prec + (t.text in _NON_LEFT_ASSOC):
                return e
            self.i += 1
            if t.text != "#":
                e = PBin(t.text, e, self.pexpr(scope, False, prec + 1),
                         pos=(t.line, t.col))
            else:
                # A right-associative chain, read by a loop and folded from
                # the right, so a long one needs no deep recursion.
                items, ops = [e, self.pexpr(scope, False, prec + 1)], [t]
                while toks[self.i].text == "#":
                    ops.append(toks[self.i])
                    self.i += 1
                    items.append(self.pexpr(scope, False, prec + 1))
                e = items.pop()
                for head, op in zip(reversed(items), reversed(ops)):
                    e = PCons(head, e, pos=(op.line, op.col))
            lvl = prec

    def _args(self, scope: set[str], close: str) -> list[PExpr]:
        """Comma-separated pure expressions up to the ``close`` symbol."""
        out = []
        if not self.at("sym", close):
            out.append(self.pexpr(scope))
            while self.at("sym", ","):
                self.i += 1
                out.append(self.pexpr(scope))
        self.expect("sym", close)
        return out

    def patom(self, scope: set[str], comp: bool = False) -> PExpr:
        kind, text, line, col = t = self.toks[self.i]
        pos = (line, col)
        if kind == "ident":
            self.i += 1
            if self.ref_lits and _REF_LIT.match(text):
                return PRefLit(int(text[3:]), pos=pos)
            if self.at("sym", "("):
                self.i += 1
                return self._resolve_app(text, tuple(self._args(scope, ")")), t, comp)
            if text in self.names.ctors:
                _, cdecl = self.names.ctors[text]
                if cdecl.arg_types:
                    raise ScopeError(
                        f"constructor {text!r} expects {len(cdecl.arg_types)} argument(s)",
                        line, col)
                return PCtor(text, (), pos=pos)
            if text not in scope:
                raise ScopeError(f"unbound variable {text!r}", line, col)
            return PVar(text, pos=pos)
        if kind == "nat":
            self.i += 1
            return PNat(int(text), pos=pos)
        if kind == "kw":
            if text == "true" or text == "false":
                self.i += 1
                return PBool(text == "true", pos=pos)
            if text == "None":
                self.i += 1
                return PNone(pos=pos)
            if text == "Some":
                self.i += 1
                self.expect("sym", "(")
                arg = self.pexpr(scope)
                self.expect("sym", ")")
                return PSome(arg, pos=pos)
        elif kind == "sym":
            if text == "(":
                self.i += 1
                if self.at("sym", ")"):
                    self.i += 1
                    return PUnit(pos=pos)
                e = self.pexpr(scope)
                self.expect("sym", ")")
                return e
            if text == "[":
                self.i += 1
                out: PExpr = PNil(pos=pos)
                for e in reversed(self._args(scope, "]")):
                    out = PCons(e, out, pos=pos)
                return out
        self.fail("expected a pure expression")

    def _resolve_app(self, name: str, args: tuple[PExpr, ...], t: Token,
                     comp: bool) -> PExpr:
        if name in self.names.ctors:
            _, cdecl = self.names.ctors[name]
            if len(args) != len(cdecl.arg_types):
                raise ScopeError(
                    f"constructor {name!r} expects {len(cdecl.arg_types)} argument(s), "
                    f"got {len(args)}", t.line, t.col)
            return PCtor(name, args, pos=(t.line, t.col))
        if name in self.names.pure_funs:
            d = self.names.pure_funs[name]
            if len(args) != len(d.params):
                raise ScopeError(
                    f"function {name!r} expects {len(d.params)} argument(s), got {len(args)}",
                    t.line, t.col)
            return PCall(name, args, pos=(t.line, t.col))
        if name == self.current_fun and self.current_monad is None:
            raise ScopeError("pure functions may not call themselves", t.line, t.col)
        if name == self.current_fun or name in self.names.monadic_funs:
            if comp:
                # The caller (expr) decides whether this is a Self/ExtCall;
                # report arity errors here where the position is known.
                arity = self._self_arity if name == self.current_fun \
                    else len(self.names.monadic_funs[name].params)
                if len(args) != arity:
                    raise ScopeError(
                        f"function {name!r} expects {arity} argument(s), got {len(args)}",
                        t.line, t.col)
                return PCall(name, args, pos=(t.line, t.col))
            if name == self.current_fun:
                raise MonadError("recursive call in pure position", t.line, t.col)
            raise MonadError(f"call of monadic function {name!r} in pure position",
                             t.line, t.col)
        raise ScopeError(f"unknown function {name!r}", t.line, t.col)


def _pexpr_children(p: PExpr) -> tuple[PExpr, ...]:
    if isinstance(p, PCons):
        return (p.head, p.tail)
    if isinstance(p, PSome):
        return (p.arg,)
    if isinstance(p, (PCtor, PCall)):
        return p.args
    if isinstance(p, PBin):
        return (p.lhs, p.rhs)
    if isinstance(p, PNot):
        return (p.arg,)
    return ()


def _pexpr_map(p: PExpr, f) -> PExpr:
    """``p`` rebuilt with ``f`` applied to each of its _pexpr_children."""
    if isinstance(p, PCons):
        return replace(p, head=f(p.head), tail=f(p.tail))
    if isinstance(p, (PSome, PNot)):
        return replace(p, arg=f(p.arg))
    if isinstance(p, (PCtor, PCall)):
        return replace(p, args=tuple(f(a) for a in p.args))
    if isinstance(p, PBin):
        return replace(p, lhs=f(p.lhs), rhs=f(p.rhs))
    return p


_Scoped = tuple[tuple[str, ...], Expr]  # a sub-computation and the names it binds


def _expr_children(e: Expr) -> tuple[tuple[PExpr, ...], tuple[_Scoped, ...]]:
    """The pure subexpressions of ``e`` and its sub-computations, each with
    the names bound in it (``Bind.var`` in the body, a branch's pattern
    variables in that branch), both in source order."""
    if isinstance(e, (Return, RefNew)):
        return (e.value,), ()
    if isinstance(e, Bind):
        return (), (((), e.head), ((e.var,), e.body))
    if isinstance(e, If):
        return (e.cond,), (((), e.then), ((), e.els))
    if isinstance(e, Case):
        return (e.scrutinee,), tuple((pat.vars, body) for pat, body in e.branches)
    if isinstance(e, (SelfCall, ExtCall)):
        return e.args, ()
    if isinstance(e, RefGet):
        return (e.ref,), ()
    if isinstance(e, RefSet):
        return (e.ref, e.value), ()
    raise AssertionError(e)


def _expr_rebuild(e: Expr, pures: tuple[PExpr, ...],
                  subs: tuple[_Scoped, ...]) -> Expr:
    """``e`` with its _expr_children replaced by ``pures`` and ``subs``, of
    the same shape; the names of ``subs`` rename the binders."""
    if isinstance(e, Bind):
        (_, head), ((var,), body) = subs
        return Bind(var, head, body, e.pos)
    if isinstance(e, If):
        return If(pures[0], subs[0][1], subs[1][1], e.pos)
    if isinstance(e, Case):
        return Case(pures[0], tuple(
            (Pattern(pat.ctor, vs, pat.pos), body)
            for (pat, _), (vs, body) in zip(e.branches, subs)), e.pos)
    if isinstance(e, SelfCall):
        return SelfCall(pures, e.pos)
    if isinstance(e, ExtCall):
        return ExtCall(e.name, pures, e.pos)
    return type(e)(*pures, e.pos)  # Return, RefNew, RefGet, RefSet


# ---------------------------------------------------------------------------
# Alpha-renaming
# ---------------------------------------------------------------------------


def _alpha_rename(d: FunDef, taken_globals: set[str]) -> FunDef:
    """Rename binders so all bound names in ``d`` are pairwise distinct.

    Source names are kept when possible; clashes get a numeric suffix.
    Top-level names are avoided so every name in a later induction rule is
    unambiguous.
    """
    used = set(taken_globals) | {p for p, _ in d.params}
    body = _rename_e(d.body, {}, used)
    return d if body is d.body else replace(d, body=body)


def _fresh(name: str, used: set[str]) -> str:
    """``name``, or ``name`` with the least numeric suffix not in ``used``;
    the result is added to ``used``."""
    if name != "_" and name not in used:
        used.add(name)
        return name
    base = name if name != "_" else "_u"
    k = 1
    while f"{base}{k}" in used:
        k += 1
    used.add(f"{base}{k}")
    return f"{base}{k}"


def _rename_p(p: PExpr, env: dict[str, str]) -> PExpr:
    if not env:
        return p
    if isinstance(p, PVar):
        return replace(p, name=env.get(p.name, p.name))
    return _pexpr_map(p, lambda c: _rename_p(c, env))


def _rename_e(e: Expr, env: dict[str, str], used: set[str]) -> Expr:
    """``e`` with each binder given a fresh name and each bound variable
    renamed through ``env``.  Sub-computations are renamed in source order,
    each one's binders just before it.  A binder that keeps its name was
    unused, so no outer binder maps it, and ``env`` leaves it out.  A node
    in which nothing is renamed is returned as it is."""
    pures, subs = _expr_children(e)
    renamed, same = [], not env
    for names, sub in subs:
        vs = tuple(_fresh(v, used) for v in names)
        inner = env
        if names != vs:
            inner = {**env, **{v: w for v, w in zip(names, vs) if v != w}}
        renamed.append((vs, _rename_e(sub, inner, used)))
        same = same and inner is env and renamed[-1][1] is sub
    if same:
        return e
    return _expr_rebuild(e, tuple(_rename_p(p, env) for p in pures), renamed)


# ---------------------------------------------------------------------------
# Type checking
# ---------------------------------------------------------------------------


def instantiate(t: Type, subst: dict[str, Type]) -> Type:
    """``t`` with each datatype parameter replaced by its type in ``subst``;
    raises KeyError on a parameter that ``subst`` lacks."""
    if isinstance(t, TVar):
        return subst[t.name]
    if isinstance(t, TList):
        return TList(instantiate(t.elem, subst))
    if isinstance(t, TOption):
        return TOption(instantiate(t.elem, subst))
    if isinstance(t, TRef):
        return TRef(instantiate(t.elem, subst))
    if isinstance(t, TData):
        return TData(t.name, tuple(instantiate(a, subst) for a in t.args))
    return t


class _TypeCheck:
    def __init__(self, names: Names):
        self.names = names

    def check_pure_def(self, d: PureDef):
        got = self.infer(d.body, dict(d.params), expected=d.result_type)
        if got != d.result_type:
            raise DslTypeError(
                f"body of {d.name!r} has type {got}, declared {d.result_type}",
                *(d.pos or (None, None)))

    def _match(self, decl_ty: Type, actual: Type, subst: dict[str, Type]) -> bool:
        """Match a declaration type with TVars against a concrete type."""
        if isinstance(decl_ty, TVar):
            if decl_ty.name in subst:
                return subst[decl_ty.name] == actual
            subst[decl_ty.name] = actual
            return True
        if type(decl_ty) is not type(actual):
            return False
        if isinstance(decl_ty, (TList, TOption, TRef)):
            return self._match(decl_ty.elem, actual.elem, subst)
        if isinstance(decl_ty, TData):
            return decl_ty.name == actual.name and all(
                self._match(a, b, subst) for a, b in zip(decl_ty.args, actual.args))
        return True

    def infer(self, p: PExpr, env: dict[str, Type], expected: Type | None = None) -> Type:
        pos = getattr(p, "pos", None) or (None, None)
        if isinstance(p, PVar):
            if p.name not in env:
                raise ScopeError(f"unbound variable {p.name!r}", *pos)
            return env[p.name]
        if isinstance(p, PNat):
            return NAT
        if isinstance(p, PBool):
            return BOOL
        if isinstance(p, PUnit):
            return UNIT
        if isinstance(p, PRefLit):
            if expected is not None and isinstance(expected, TRef):
                return expected
            raise DslTypeError("reference literal needs an expected 'ref' type", *pos)
        if isinstance(p, PNil):
            if expected is not None and isinstance(expected, TList):
                return expected
            raise DslTypeError("cannot infer the element type of []", *pos)
        if isinstance(p, PCons):
            # A loop down the spine, so a long list literal needs no deep
            # recursion.
            lt = expected
            if not isinstance(lt, TList):
                lt = TList(self.infer(p.head, env))
                p = p.tail
            while isinstance(p, PCons):
                self._require(self.infer(p.head, env, lt.elem), lt.elem, p.head)
                p = p.tail
            self._require(self.infer(p, env, lt), lt, p)
            return lt
        if isinstance(p, PNone):
            if expected is not None and isinstance(expected, TOption):
                return expected
            raise DslTypeError("cannot infer the element type of None", *pos)
        if isinstance(p, PSome):
            inner = expected.elem if isinstance(expected, TOption) else None
            a = self.infer(p.arg, env, inner)
            return TOption(a)
        if isinstance(p, PCtor):
            decl, cdecl = self.names.ctors[p.name]
            dname = decl.name
            subst: dict[str, Type] = {}
            if expected is not None and isinstance(expected, TData) \
                    and expected.name == dname:
                subst = dict(zip(decl.type_params, expected.args))
            for arg, dty in zip(p.args, cdecl.arg_types):
                want = None
                try:
                    want = instantiate(dty, subst)
                except KeyError:
                    pass
                got = self.infer(arg, env, want)
                if not self._match(dty, got, subst):
                    raise DslTypeError(
                        f"argument of {p.name!r} has type {got}, expected {dty}",
                        *(getattr(arg, 'pos', None) or pos))
            try:
                targs = tuple(subst[v] for v in decl.type_params)
            except KeyError as e:
                raise DslTypeError(
                    f"cannot infer type parameter {e.args[0]!r} of {p.name!r}", *pos)
            return TData(dname, targs)
        if isinstance(p, PCall):
            d = self.names.pure_funs[p.name]
            for arg, (_, want) in zip(p.args, d.params):
                got = self.infer(arg, env, want)
                self._require(got, want, arg)
            return d.result_type
        if isinstance(p, PBin):
            if p.op in ("+", "-", "div", "mod"):
                self._require(self.infer(p.lhs, env, NAT), NAT, p.lhs)
                self._require(self.infer(p.rhs, env, NAT), NAT, p.rhs)
                return NAT
            if p.op == "<":
                self._require(self.infer(p.lhs, env, NAT), NAT, p.lhs)
                self._require(self.infer(p.rhs, env, NAT), NAT, p.rhs)
                return BOOL
            if p.op in ("=", "≠"):
                lt = self.infer(p.lhs, env)
                rt = self.infer(p.rhs, env, lt)
                self._require(rt, lt, p.rhs)
                return BOOL
            if p.op in ("and", "or"):
                self._require(self.infer(p.lhs, env, BOOL), BOOL, p.lhs)
                self._require(self.infer(p.rhs, env, BOOL), BOOL, p.rhs)
                return BOOL
        if isinstance(p, PNot):
            self._require(self.infer(p.arg, env, BOOL), BOOL, p.arg)
            return BOOL
        raise AssertionError(p)

    def _require(self, got: Type, want: Type, node):
        if got != want:
            pos = getattr(node, "pos", None) or (None, None)
            raise DslTypeError(f"expected type {want}, got {got}", *pos)

    def check_fun_def(self, d: FunDef) -> dict[str, Type]:
        self.fun = d
        self.binders: dict[str, Type] = {}
        self.check_expr(d.body, dict(d.params), d.result_type)
        return self.binders

    def _bind(self, env: dict[str, Type], binds: dict[str, Type]) -> dict[str, Type]:
        """``env`` extended with ``binds``, which are recorded as binder types."""
        self.binders.update(binds)
        return {**env, **binds}

    def check_expr(self, e: Expr, env: dict[str, Type],
                   expected: Optional[Type] = None) -> Type:
        """The type of the computation ``e``, which must be ``expected``
        when that is given."""
        pos = getattr(e, "pos", None) or (None, None)
        if isinstance(e, Return):
            got = self.infer(e.value, env, expected)
            if expected is not None:
                self._require(got, expected, e.value)
            return got
        if isinstance(e, Bind):
            head_ty = self.check_expr(e.head, env)
            return self.check_expr(e.body, self._bind(env, {e.var: head_ty}),
                                   expected)
        if isinstance(e, If):
            self._require(self.infer(e.cond, env, BOOL), BOOL, e.cond)
            return self.check_expr(e.els, env, self.check_expr(e.then, env, expected))
        if isinstance(e, Case):
            st = self.infer(e.scrutinee, env)
            tys = [self.check_expr(body, self._bind(env, self._pattern_env(pat, st)),
                                   expected) for pat, body in e.branches]
            if any(t != tys[0] for t in tys):
                raise DslTypeError("case branches have different types", *pos)
            self._check_exhaustive(e, st)
            return tys[0]
        if isinstance(e, (SelfCall, ExtCall)):
            callee = self.fun if isinstance(e, SelfCall) \
                else self.names.monadic_funs[e.name]
            for arg, (_, want) in zip(e.args, callee.params):
                self._require(self.infer(arg, env, want), want, arg)
            got = callee.result_type
        elif isinstance(e, RefNew):
            got = TRef(self.infer(e.value, env))
        elif isinstance(e, RefGet):
            got = self.infer(e.ref, env)
            if not isinstance(got, TRef):
                raise DslTypeError(f"'!' expects a reference, got {got}", *pos)
            got = got.elem
        elif isinstance(e, RefSet):
            rt = self.infer(e.ref, env)
            if not isinstance(rt, TRef):
                raise DslTypeError(f"':=' expects a reference, got {rt}", *pos)
            self._require(self.infer(e.value, env, rt.elem), rt.elem, e.value)
            got = UNIT
        else:
            raise AssertionError(e)
        if expected is not None and got != expected:
            raise DslTypeError(f"expected type {expected}, got {got}", *pos)
        return got

    def _pattern_env(self, pat: Pattern, scrut_ty: Type) -> dict[str, Type]:
        pos = pat.pos or (None, None)
        if pat.ctor == "None":
            if not isinstance(scrut_ty, TOption):
                raise DslTypeError(f"option pattern against {scrut_ty}", *pos)
            return {}
        if pat.ctor == "Some":
            if not isinstance(scrut_ty, TOption):
                raise DslTypeError(f"option pattern against {scrut_ty}", *pos)
            return {pat.vars[0]: scrut_ty.elem}
        decl, cdecl = self.names.ctors[pat.ctor]
        if not isinstance(scrut_ty, TData) or scrut_ty.name != decl.name:
            raise DslTypeError(
                f"pattern {pat.ctor!r} belongs to {decl.name!r}, scrutinee has type {scrut_ty}",
                *pos)
        subst = dict(zip(decl.type_params, scrut_ty.args))
        return {v: instantiate(t, subst)
                for v, t in zip(pat.vars, cdecl.arg_types)}

    def _check_exhaustive(self, e: Case, scrut_ty: Type):
        pos = e.pos or (None, None)
        covered = {pat.ctor for pat, _ in e.branches}
        if isinstance(scrut_ty, TOption):
            missing = {"None", "Some"} - covered
        elif isinstance(scrut_ty, TData):
            missing = {c.name for c in self.names.datatypes[scrut_ty.name].ctors} - covered
        else:
            raise DslTypeError(f"cannot match on values of type {scrut_ty}", *pos)
        if missing:
            raise DslTypeError(
                "non-exhaustive case: missing " + ", ".join(sorted(missing)), *pos)


def check_fun_def(d: FunDef, names: Names) -> dict[str, Type]:
    """Type-check the monadic definition ``d`` against the top-level
    ``names`` and return the type of each binder in its body; binders are
    unique within a parsed definition.  Raises DslTypeError."""
    return _TypeCheck(names).check_fun_def(d)


def infer_type(p: PExpr, names: Names, expected: Optional[Type] = None) -> Type:
    """The type of the closed pure expression ``p``.  ``expected`` types the
    literals that cannot be typed alone (``[]``, ``None``, ``refN``)."""
    return _TypeCheck(names).infer(p, {}, expected)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_program(source: str) -> Program:
    """Parse, scope-check, monad-check, and type-check a program.

    Binders are alpha-renamed to be unique within each definition.  Raises
    ParseError, ScopeError, MonadError, or DslTypeError with a position.
    """
    return _Parser(tokenize(source), Names()).program()


def parse_pexpr(source: str, program: Program | None = None) -> PExpr:
    """Parse a closed pure expression over ``program``'s names."""
    p = _Parser(tokenize(source), program.names if program else Names())
    e = p.pexpr(set())
    p.expect("eof")
    return e


def parse_values(source: str, program: Program | None = None) -> list[PExpr]:
    """Parse a whitespace-separated sequence of value literals over
    ``program``'s names.  Identifiers of the form ``refN`` denote reference
    literals.
    """
    p = _Parser(tokenize(source), program.names if program else Names(),
                ref_lits=True)
    out = []
    while not p.at("eof"):
        out.append(p.pexpr(set()))
    return out


def parse_heap_cells(source: str, program: Program | None = None
                     ) -> tuple[list[tuple[int, PExpr]], int]:
    """The cells, in file order, and the next id of a heap file: lines
    ``id ↦ value`` and one ``next=n``, with blank lines and comments
    allowed.  Values are read as by parse_values, all from one token
    stream.  Raises ValueError naming the line of a malformed entry."""
    p = _Parser(tokenize(source), program.names if program else Names(),
                ref_lits=True)

    def on_line(line: int) -> bool:
        t = p.toks[p.i]
        return t.line == line and t.kind != "eof"

    cells, next_id = [], None
    while not p.at("eof"):
        t = p.next()
        if t.kind == "nat" and p.at("sym", "↦"):
            p.i += 1
            value = p.pexpr(set()) if on_line(t.line) else None
            if value is None or on_line(t.line):
                raise ValueError(f"line {t.line}: expected exactly one value")
            cells.append((int(t.text), value))
            continue
        if t.text == "next" and p.at("sym", "=") and p.peek(1).kind == "nat":
            if next_id is not None:
                raise ValueError(f"line {t.line}: duplicate next=")
            next_id = int(p.peek(1).text)
            p.i += 2
            if not on_line(t.line):
                continue
        raise ValueError(f"line {t.line}: expected 'id ↦ value' or 'next=n'")
    if next_id is None:
        raise ValueError("heap file must end with next=n")
    return cells, next_id


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def free_vars(e: Union[Expr, PExpr]) -> set[str]:
    """The set of variable names occurring free in a (pure) expression."""
    if isinstance(e, PVar):
        return {e.name}
    pures, subs = (_pexpr_children(e), ()) if isinstance(e, PExpr) \
        else _expr_children(e)
    out: set[str] = set()
    for p in pures:
        out |= free_vars(p)
    for names, sub in subs:
        out |= free_vars(sub).difference(names)
    return out


def bound_names(e: Expr) -> set[str]:
    """The names bound anywhere in the computation ``e``."""
    out: set[str] = set()
    for names, sub in _expr_children(e)[1]:
        out.update(names)
        out |= bound_names(sub)
    return out


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

def pretty_pexpr(p: PExpr, prec: int = 0) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PNat):
        return str(p.value)
    if isinstance(p, PBool):
        return "true" if p.value else "false"
    if isinstance(p, PUnit):
        return "()"
    if isinstance(p, PRefLit):
        return f"ref{p.rid}"
    if isinstance(p, PNil):
        return "[]"
    if isinstance(p, PCons):
        # Re-sugar a literal spine into list brackets.
        items, cur = [], p
        while isinstance(cur, PCons):
            items.append(cur.head)
            cur = cur.tail
        if isinstance(cur, PNil):
            return "[" + ", ".join(pretty_pexpr(x) for x in items) + "]"
        lvl = _PREC["#"]
        s = f"{pretty_pexpr(p.head, lvl + 1)} # {pretty_pexpr(p.tail, lvl)}"
        return f"({s})" if prec > lvl else s
    if isinstance(p, PNone):
        return "None"
    if isinstance(p, PSome):
        return f"Some({pretty_pexpr(p.arg)})"
    if isinstance(p, PCtor):
        if not p.args:
            return p.name
        return p.name + "(" + ", ".join(pretty_pexpr(a) for a in p.args) + ")"
    if isinstance(p, PCall):
        return p.name + "(" + ", ".join(pretty_pexpr(a) for a in p.args) + ")"
    if isinstance(p, PBin):
        lvl = _PREC[p.op]
        left = pretty_pexpr(p.lhs, lvl + (p.op in _NON_LEFT_ASSOC))
        s = f"{left} {p.op} {pretty_pexpr(p.rhs, lvl + 1)}"
        return f"({s})" if prec > lvl else s
    if isinstance(p, PNot):
        s = f"not {pretty_pexpr(p.arg, _NOT_PREC)}"
        return f"({s})" if prec > _NOT_PREC else s
    raise AssertionError(p)


def pretty(e: Union[Expr, PExpr], max_width: int | None = None) -> str:
    """Render an expression on a single line.

    Output re-parses to an alpha-equivalent expression.  Recursive calls
    print as ⟨self⟩ because a bare expression does not know its function's
    name; pretty_expr_named and pretty_program substitute the real name,
    and whole programs round-trip through parse_program.
    """
    if isinstance(e, PExpr):
        s = pretty_pexpr(e)
    else:
        s = _pretty_expr(e, in_branch=False)
    if max_width is not None and len(s) > max_width:
        s = s[: max_width - 1] + "…"
    return s


def _pretty_expr(e: Expr, in_branch: bool) -> str:
    if isinstance(e, Return):
        return f"return {pretty_pexpr(e.value, 8)}"
    if isinstance(e, Bind):
        stmts = []
        cur: Expr = e
        while isinstance(cur, Bind):
            head = _pretty_expr(cur.head, in_branch=False)
            if cur.var.startswith("_") and cur.var not in free_vars(cur.body):
                stmts.append(head)
            else:
                stmts.append(f"{cur.var} ← {head}")
            cur = cur.body
        stmts.append(_pretty_expr(cur, in_branch=False))
        return "do " + "; ".join(stmts) + " done"
    if isinstance(e, If):
        s = (f"if {pretty_pexpr(e.cond)} then {_pretty_expr(e.then, in_branch)} "
             f"else {_pretty_expr(e.els, in_branch)}")
        return s
    if isinstance(e, Case):
        parts = []
        for pat, body in e.branches:
            pv = pat.ctor + (f"({', '.join(pat.vars)})" if pat.vars else "")
            parts.append(f"{pv} ⇒ {_pretty_expr(body, in_branch=True)}")
        s = f"case {pretty_pexpr(e.scrutinee)} of " + " | ".join(parts)
        # A case nested in a branch would swallow the outer branches.
        return f"({s})" if in_branch else s
    if isinstance(e, SelfCall):
        return "⟨self⟩(" + ", ".join(pretty_pexpr(a) for a in e.args) + ")"
    if isinstance(e, ExtCall):
        return e.name + "(" + ", ".join(pretty_pexpr(a) for a in e.args) + ")"
    if isinstance(e, RefNew):
        return f"ref {pretty_pexpr(e.value, _ATOM_PREC)}"
    if isinstance(e, RefGet):
        return f"!{pretty_pexpr(e.ref, _ATOM_PREC)}"
    if isinstance(e, RefSet):
        return f"{pretty_pexpr(e.ref, _ATOM_PREC)} := {pretty_pexpr(e.value, 8)}"
    raise AssertionError(e)


def pretty_expr_named(e: Expr, self_name: str) -> str:
    """Like pretty(), but prints recursive calls with the function's name."""
    return pretty(e).replace("⟨self⟩(", self_name + "(")


def pretty_type(t: Type) -> str:
    return str(t)


def pretty_program(prog: Program) -> str:
    """Multi-line concrete syntax; parse_program(pretty_program(p)) ≅ p."""
    chunks = []
    for d in prog.data_decls:
        ctors = " | ".join(
            c.name + "".join(" " + _atomize(t) for t in c.arg_types)
            for c in d.ctors)
        params = "".join(" " + p for p in d.type_params)
        chunks.append(f"datatype {d.name}{params} = {ctors}")
    for d in prog.pure_defs:
        ps = ", ".join(f"{n} : {t}" for n, t in d.params)
        chunks.append(f"pure fun {d.name}({ps}) : {d.result_type} = "
                      f"{pretty_pexpr(d.body)}")
    for d in prog.fun_defs:
        ps = ", ".join(f"{n} : {t}" for n, t in d.params)
        body = pretty_expr_named(d.body, d.name)
        chunks.append(f"{d.monad} fun {d.name}({ps}) : {d.result_type} =\n  {body}")
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# Alpha-equivalence
# ---------------------------------------------------------------------------


def _alpha_p(a: PExpr, b: PExpr, same_var: Callable[[str, str], bool]) -> bool:
    """Structural equality of pure expressions; ``same_var`` decides whether
    two variable names correspond."""
    if type(a) is not type(b):
        return False
    if isinstance(a, PVar):
        return same_var(a.name, b.name)
    if isinstance(a, (PNat, PBool)):
        return a.value == b.value
    if isinstance(a, PRefLit):
        return a.rid == b.rid
    if isinstance(a, (PCtor, PCall)) and a.name != b.name:
        return False
    if isinstance(a, PBin) and a.op != b.op:
        return False
    ca, cb = _pexpr_children(a), _pexpr_children(b)
    return len(ca) == len(cb) and all(
        _alpha_p(x, y, same_var) for x, y in zip(ca, cb))


def _alpha_e(a: Expr, b: Expr, env: dict[str, str]) -> bool:
    """Alpha-equivalence of computations; ``env`` maps the binders of ``a``
    in scope to those of ``b``."""
    if type(a) is not type(b) or isinstance(a, ExtCall) and a.name != b.name \
            or isinstance(a, Case) and [p.ctor for p, _ in a.branches] \
            != [p.ctor for p, _ in b.branches]:
        return False
    (pa, sa), (pb, sb) = _expr_children(a), _expr_children(b)
    if len(pa) != len(pb) or len(sa) != len(sb):
        return False

    def renamed(x: str, y: str) -> bool:
        return env.get(x, x) == y

    for x, y in zip(pa, pb):
        if not _alpha_p(x, y, renamed):
            return False
    for (na, x), (nb, y) in zip(sa, sb):
        if len(na) != len(nb) or not _alpha_e(
                x, y, {**env, **dict(zip(na, nb))} if na else env):
            return False
    return True


def alpha_equivalent(a: Union[Program, FunDef, Expr], b) -> bool:
    """Structural equality up to renaming of bound variables."""
    if isinstance(a, Program) and isinstance(b, Program):
        return (a.data_decls == b.data_decls and a.pure_defs == b.pure_defs
                and len(a.fun_defs) == len(b.fun_defs)
                and all(alpha_equivalent(x, y)
                        for x, y in zip(a.fun_defs, b.fun_defs)))
    if isinstance(a, FunDef) and isinstance(b, FunDef):
        if (a.name != b.name or a.monad != b.monad or a.result_type != b.result_type
                or len(a.params) != len(b.params)
                or any(ta != tb for (_, ta), (_, tb) in zip(a.params, b.params))):
            return False
        env = {pa: pb for (pa, _), (pb, _) in zip(a.params, b.params)}
        return _alpha_e(a.body, b.body, env)
    if isinstance(a, Expr) and isinstance(b, Expr):
        return _alpha_e(a, b, {})
    if isinstance(a, PExpr) and isinstance(b, PExpr):
        return _alpha_p(a, b, str.__eq__)
    return False

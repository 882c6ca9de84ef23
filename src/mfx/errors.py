"""Exception types shared across the package.

Static errors (parse, scope, monad, type) carry a source position so the
CLI can report ``line:col``.  Runtime errors (dangling references, chain
violations) signal internal invariant breaches; well-formed programs cannot
trigger them.  Divergence is not an error: a run that reaches its fuel cap
yields the result Diverged, at any cap, since the evaluator keeps pending
binds on its own stack and not on Python's.
"""

from __future__ import annotations


class MfxError(Exception):
    """Base class for all errors raised by this package."""


class StaticError(MfxError):
    """An error detected before any evaluation, with a source position."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        super().__init__(msg)
        self.msg = msg
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line is None:
            return self.msg
        return f"{self.line}:{self.col}: {self.msg}"


class ParseError(StaticError):
    """Malformed input text."""


class ScopeError(StaticError):
    """Unbound name, duplicate definition, or arity mismatch."""


class MonadError(StaticError):
    """Heap primitive in an option definition, or a recursive call in pure position."""


class DslTypeError(StaticError):
    """Ill-typed program or ill-typed arguments supplied to the evaluator."""


class DanglingRef(MfxError):
    """A reference id was read or written that is not present in the heap."""


class NotStabilized(MfxError):
    """A chain prefix never reached a non-bottom value; more fuel is needed."""


class ChainViolation(MfxError):
    """Consecutive approximants were not ordered; indicates an evaluator bug."""


class NotContinuous(MfxError):
    """An induction rule was requested for a body that failed the continuity check."""


class BudgetExceeded(MfxError):
    """An enumeration audit surpassed its configured node budget."""

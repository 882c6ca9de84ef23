"""Runtime values, heaps, and computation outcomes with an explicit bottom.

The option monad's order is flat: ``a ⊑ b`` iff ``a`` is Bottom or ``a = b``.
The heap monad's order is the pointwise lifting of the same flat order over
per-input outcomes; the evaluator checks it by sampling heaps, so this module
only ever compares outcomes at a fixed input.

Bottom identifies divergence with irrecoverable failure and carries no heap.
Values and heaps are immutable, so everything here is safe to share across
threads.  A list is a chain of cons cells, so cons is O(1).  A heap keeps an
id -> value dict, so a lookup is O(1) and an update copies the dict once; a
heap-monad run does better still, because it owns one mutable store for the
whole run (see the evaluator).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import DanglingRef, NotStabilized, StaticError
from . import syntax
from .syntax import (PBool, PCons, PCtor, PExpr, PNat, PNil, PNone, PRefLit,
                     PSome, PUnit, parse_heap_cells)

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    __slots__ = ()


@dataclass(frozen=True)
class VUnit(Value):
    def __str__(self):
        return "()"


@dataclass(frozen=True)
class VBool(Value):
    value: bool

    def __str__(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class VNat(Value):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("naturals are non-negative")

    def __str__(self):
        return str(self.value)


class VList(Value):
    """A list as a chain of cons cells, so that cons is O(1).

    ``VList(items)`` builds the chain from a tuple.  ``head`` and ``tail``
    are the first element and the rest (both None on the empty list), and
    ``items`` is the whole list as a tuple, built on first use and kept.
    Equality, hashing and rendering go through ``items``, so they mean what
    they meant when a list was a tuple.  Like every value, a list is
    immutable: its public fields are read-only.
    """

    __slots__ = ("_head", "_tail", "_length", "_items")
    __match_args__ = ("items",)
    # Plain slot stores, not the frozen dataclass's checked ones, keep cons
    # cheap (both hooks must be object's for CPython to skip the Python-level
    # call); only this module writes the private slots.
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    head = property(attrgetter("_head"))
    tail = property(attrgetter("_tail"))
    length = property(attrgetter("_length"))

    def __init__(self, items: tuple[Value, ...] = ()):
        items = tuple(items)
        tail = _NIL
        for v in reversed(items[1:]):
            tail = cons(v, tail)
        self._head, self._tail = (items[0], tail) if items else (None, None)
        self._length, self._items = len(items), items

    @property
    def items(self) -> tuple[Value, ...]:
        items = self._items
        if items is None:
            heads, node = [], self
            while node._items is None:
                heads.append(node._head)
                node = node._tail
            items = self._items = tuple(heads) + node._items
        return items

    def __reduce__(self):
        return VList, (self.items,)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not VList:
            return NotImplemented
        return self._length == other._length and self.items == other.items

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self):
        return f"VList(items={self.items!r})"

    def __str__(self):
        return "[" + ", ".join(str(v) for v in self.items) + "]"


def cons(head: Value, tail: VList) -> VList:
    """The list ``head # tail``, in O(1): the tail is shared, not copied."""
    node = object.__new__(VList)
    node._head, node._tail = head, tail
    node._length, node._items = tail._length + 1, None
    return node


_NIL = object.__new__(VList)
_NIL._head = _NIL._tail = None
_NIL._length, _NIL._items = 0, ()


@dataclass(frozen=True)
class VNone(Value):
    def __str__(self):
        return "None"


@dataclass(frozen=True)
class VSome(Value):
    value: Value

    def __str__(self):
        return f"Some({self.value})"


@dataclass(frozen=True)
class VCtor(Value):
    name: str
    args: tuple[Value, ...]

    def __str__(self):
        if not self.args:
            return self.name
        return self.name + "(" + ", ".join(str(v) for v in self.args) + ")"


@dataclass(frozen=True)
class VRef(Value):
    """An opaque reference; equality is id equality (pointer equality)."""

    rid: int

    def __str__(self):
        return f"ref{self.rid}"


UNIT_V = VUnit()
TRUE, FALSE = VBool(True), VBool(False)


def render_value(v: Value) -> str:
    """Canonical text form, in DSL literal syntax."""
    return str(v)


def value_to_pexpr(v: Value) -> PExpr:
    """Embed a runtime value back into pure-expression syntax."""
    if isinstance(v, VUnit):
        return PUnit()
    if isinstance(v, VBool):
        return PBool(v.value)
    if isinstance(v, VNat):
        return PNat(v.value)
    if isinstance(v, VList):
        out: PExpr = PNil()
        for item in reversed(v.items):
            out = PCons(value_to_pexpr(item), out)
        return out
    if isinstance(v, VNone):
        return PNone()
    if isinstance(v, VSome):
        return PSome(value_to_pexpr(v.value))
    if isinstance(v, VCtor):
        return PCtor(v.name, tuple(value_to_pexpr(a) for a in v.args))
    if isinstance(v, VRef):
        return PRefLit(v.rid)
    raise AssertionError(v)


def pexpr_to_value(p: PExpr) -> Value:
    """Convert a closed literal pure expression into a value.

    Only literal forms are accepted; variables, calls, and operators are
    rejected (used for CLI arguments and heap files).
    """
    if isinstance(p, PUnit):
        return UNIT_V
    if isinstance(p, PBool):
        return VBool(p.value)
    if isinstance(p, PNat):
        return VNat(p.value)
    if isinstance(p, PNil):
        return VList(())
    if isinstance(p, PCons):
        heads = []
        while isinstance(p, PCons):
            heads.append(pexpr_to_value(p.head))
            p = p.tail
        out = pexpr_to_value(p)
        if not isinstance(out, VList):
            raise StaticError("cons onto a non-list value")
        for v in reversed(heads):
            out = cons(v, out)
        return out
    if isinstance(p, PNone):
        return VNone()
    if isinstance(p, PSome):
        return VSome(pexpr_to_value(p.arg))
    if isinstance(p, PCtor):
        return VCtor(p.name, tuple(pexpr_to_value(a) for a in p.args))
    if isinstance(p, PRefLit):
        return VRef(p.rid)
    raise StaticError(f"not a value literal: {syntax.pretty_pexpr(p)}")


# ---------------------------------------------------------------------------
# Heaps
# ---------------------------------------------------------------------------


class Heap:
    """A finite store of reference cells; equality is extensional.

    ``Heap(cells, next_id)`` takes the cells as (id, value) pairs sorted by
    id, and checks that the ids are unique and below ``next_id``.  A heap
    keeps an id -> value dict, built on first use, so ``lookup`` and
    ``contains`` are O(1); ``cells``, the sorted pairs, is built on first
    use too, and it makes rendering and hashing canonical.  Heaps are
    immutable: heap_set and heap_alloc copy the dict once and return a new
    heap.  An allocation takes ``next_id``, so the dict's insertion order is
    ascending id order and no update sorts.
    """

    __slots__ = ("_next_id", "_cells", "_map")

    next_id = property(attrgetter("_next_id"))

    def __init__(self, cells: tuple[tuple[int, Value], ...] = (),
                 next_id: int = 0):
        cells = tuple(cells)
        ids = [i for i, _ in cells]
        if ids != sorted(set(ids)):
            raise ValueError("heap cells must be sorted and unique")
        if any(i >= next_id for i in ids):
            raise ValueError("heap id not below next_id")
        self._next_id, self._cells, self._map = next_id, cells, None

    @staticmethod
    def of_dict(cells: dict[int, Value], next_id: int) -> Heap:
        """The heap that owns ``cells``, whose keys must be below
        ``next_id`` and in ascending order; nothing is checked or copied,
        and the caller must not touch the dict afterwards."""
        h = object.__new__(Heap)
        h._next_id, h._cells, h._map = next_id, None, cells
        return h

    @property
    def cells(self) -> tuple[tuple[int, Value], ...]:
        if self._cells is None:
            self._cells = tuple(self._map.items())
        return self._cells

    def as_dict(self) -> dict[int, Value]:
        """The id -> value dict of this heap; read it, never write it."""
        if self._map is None:
            self._map = dict(self._cells)
        return self._map

    def lookup(self, rid: int) -> Value:
        try:
            return self.as_dict()[rid]
        except KeyError:
            raise dangling(rid) from None

    def contains(self, rid: int) -> bool:
        return rid in self.as_dict()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Heap:
            return NotImplemented
        return self._next_id == other._next_id \
            and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash((self.cells, self._next_id))

    def __repr__(self):
        return f"Heap(cells={self.cells!r}, next_id={self._next_id!r})"

    def __str__(self):
        body = ", ".join(f"{i} ↦ {v}" for i, v in self.cells)
        return "{" + body + f"; next={self._next_id}" + "}"


EMPTY_HEAP = Heap()


def dangling(rid: int) -> DanglingRef:
    """The error for a read or a write of the unallocated id ``rid``."""
    return DanglingRef(f"ref{rid} is not allocated")


def heap_alloc(h: Heap, v: Value) -> tuple[VRef, Heap]:
    """Allocate a fresh cell; the new id is ``h.next_id``."""
    rid = h.next_id
    cells = h.as_dict().copy()
    cells[rid] = v
    return VRef(rid), Heap.of_dict(cells, rid + 1)


def heap_get(h: Heap, r: VRef) -> Value:
    """Read a cell; raises DanglingRef if ``r`` is unallocated."""
    return h.lookup(r.rid)


def heap_set(h: Heap, r: VRef, v: Value) -> Heap:
    """Write a cell, leaving everything else unchanged."""
    if not h.contains(r.rid):
        raise dangling(r.rid)
    cells = h.as_dict().copy()
    cells[r.rid] = v
    return Heap.of_dict(cells, h.next_id)


def _value_refs(v: Value) -> set[int]:
    if isinstance(v, VRef):
        return {v.rid}
    if isinstance(v, VList):
        return set().union(*(_value_refs(x) for x in v.items)) if v.items else set()
    if isinstance(v, VSome):
        return _value_refs(v.value)
    if isinstance(v, VCtor):
        return set().union(*(_value_refs(a) for a in v.args)) if v.args else set()
    return set()


def heap_closed(h: Heap, *roots: Value) -> bool:
    """True if no reference reachable from the store or the roots dangles."""
    stored = h.as_dict()
    mentioned: set[int] = set()
    for v in (*stored.values(), *roots):
        mentioned |= _value_refs(v)
    return mentioned <= stored.keys()


def render_heap(h: Heap) -> str:
    return str(h)


def parse_heap(text: str, program=None) -> Heap:
    """Parse the heap literal file format (see syntax.parse_heap_cells).
    Pass the program whose datatypes the stored values use."""
    return heap_of_cells(*parse_heap_cells(text, program))


def heap_of_cells(cells: list[tuple[int, PExpr]], next_id: int) -> Heap:
    """The heap of a heap file's parsed cells and next id."""
    h = Heap(tuple(sorted(((rid, pexpr_to_value(p)) for rid, p in cells),
                          key=itemgetter(0))), next_id)
    if not heap_closed(h):
        raise ValueError("heap file contains a dangling reference")
    return h


# ---------------------------------------------------------------------------
# Outcomes and the flat order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    pass


@dataclass(frozen=True)
class Ok(Outcome):
    """Successful heap-monad run: a value and the final heap."""

    value: Value
    heap: Heap

    def __str__(self):
        return f"Ok({self.value}, {self.heap})"


@dataclass(frozen=True)
class OkPure(Outcome):
    """Successful option-monad run."""

    value: Value

    def __str__(self):
        return f"OkPure({self.value})"


@dataclass(frozen=True)
class Bottom(Outcome):
    """Divergence or failure; carries no value and no heap."""

    def __str__(self):
        return "Bottom"


BOTTOM = Bottom()


def outcome_le(a: Outcome, b: Outcome) -> bool:
    """The flat order on per-input outcomes: a ⊑ b iff a is Bottom or a = b."""
    return a == BOTTOM or a == b


def render_outcome(o: Outcome) -> str:
    return str(o)


# ---------------------------------------------------------------------------
# Chains and least upper bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """A finite prefix of an ascending sequence of outcomes.

    Index i holds the outcome of the i-th approximant at a fixed input.
    """

    elems: tuple[Outcome, ...]

    def is_chain(self) -> bool:
        return all(outcome_le(a, b) for a, b in zip(self.elems, self.elems[1:]))

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)


def lub_eventually_constant(c: Chain) -> Outcome:
    """The least upper bound of a flat chain that has stabilized.

    Flat chains step up at most once, so the last element is the lub as soon
    as it is not Bottom.  A Bottom-only prefix raises NotStabilized: the
    chain may still rise with more fuel.
    """
    if not c.elems:
        raise NotStabilized("empty chain")
    last = c.elems[-1]
    if last == BOTTOM:
        raise NotStabilized(
            f"chain is Bottom through index {len(c.elems) - 1}")
    return last

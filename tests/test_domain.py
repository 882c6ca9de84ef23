"""Order and store laws, chains and lubs, canonical rendering."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mfx.domain import (BOTTOM, Chain, EMPTY_HEAP, Heap, Ok, OkPure,
                        VBool, VCtor, VList, VNat, VNone, VRef, VSome, VUnit,
                        heap_alloc, heap_closed, heap_get, heap_set,
                        lub_eventually_constant, outcome_le, parse_heap,
                        pexpr_to_value, render_heap, render_outcome,
                        render_value, value_to_pexpr)
from mfx.errors import DanglingRef, NotStabilized

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

values = st.recursive(
    st.one_of(
        st.just(VUnit()),
        st.booleans().map(VBool),
        st.integers(min_value=0, max_value=50).map(VNat),
        st.just(VNone()),
        st.integers(min_value=0, max_value=7).map(VRef),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda xs: VList(tuple(xs))),
        inner.map(VSome),
        st.tuples(st.sampled_from(["A", "B"]), st.lists(inner, max_size=2))
          .map(lambda t: VCtor(t[0], tuple(t[1]))),
    ),
    max_leaves=8)


@st.composite
def heaps(draw):
    vals = draw(st.lists(values, max_size=4))
    return Heap(tuple(enumerate(vals)), len(vals))


@st.composite
def outcomes(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return BOTTOM
    if kind == 1:
        return OkPure(draw(values))
    return Ok(draw(values), draw(heaps()))


LAW_CASES = settings(max_examples=1000, deadline=None)


# ---------------------------------------------------------------------------
# outcome_le: partial order with Bottom least
# ---------------------------------------------------------------------------


class TestFlatOrder:
    @LAW_CASES
    @given(outcomes())
    def test_reflexive(self, a):
        assert outcome_le(a, a)

    @LAW_CASES
    @given(outcomes(), outcomes())
    def test_antisymmetric(self, a, b):
        if outcome_le(a, b) and outcome_le(b, a):
            assert a == b

    @LAW_CASES
    @given(outcomes(), outcomes(), outcomes())
    def test_transitive(self, a, b, c):
        if outcome_le(a, b) and outcome_le(b, c):
            assert outcome_le(a, c)

    @LAW_CASES
    @given(outcomes())
    def test_bottom_least(self, a):
        assert outcome_le(BOTTOM, a)

    def test_flatness(self):
        assert not outcome_le(OkPure(VNat(1)), OkPure(VNat(2)))
        assert outcome_le(BOTTOM, Ok(VNat(1), EMPTY_HEAP))
        assert outcome_le(Ok(VNat(1), EMPTY_HEAP), Ok(VNat(1), EMPTY_HEAP))


# ---------------------------------------------------------------------------
# Heap laws
# ---------------------------------------------------------------------------


class TestHeapLaws:
    def test_first_allocation(self):
        r, h = heap_alloc(EMPTY_HEAP, VNat(5))
        assert r == VRef(0)
        assert h.cells == ((0, VNat(5)),) and h.next_id == 1

    @LAW_CASES
    @given(heaps(), values)
    def test_alloc_get(self, h, v):
        r, h2 = heap_alloc(h, v)
        assert heap_get(h2, r) == v

    @LAW_CASES
    @given(heaps(), values, values)
    def test_alloc_freshness(self, h, v, w):
        r1, h1 = heap_alloc(h, v)
        r2, h2 = heap_alloc(h1, w)
        assert r1 != r2
        assert not h.contains(r1.rid)

    @LAW_CASES
    @given(heaps(), values)
    def test_alloc_frame(self, h, v):
        r, h2 = heap_alloc(h, v)
        for i, old in h.cells:
            assert heap_get(h2, VRef(i)) == old

    @LAW_CASES
    @given(heaps(), values)
    def test_get_after_set(self, h, v):
        if not h.cells:
            return
        r = VRef(h.cells[0][0])
        assert heap_get(heap_set(h, r, v), r) == v

    @LAW_CASES
    @given(heaps(), values)
    def test_set_frame(self, h, v):
        if len(h.cells) < 2:
            return
        r = VRef(h.cells[0][0])
        h2 = heap_set(h, r, v)
        for i, old in h.cells[1:]:
            assert heap_get(h2, VRef(i)) == old

    @LAW_CASES
    @given(heaps(), values, values)
    def test_last_write_wins(self, h, v, w):
        if not h.cells:
            return
        r = VRef(h.cells[0][0])
        assert heap_get(heap_set(heap_set(h, r, v), r, w), r) == w

    def test_dangling(self):
        with pytest.raises(DanglingRef):
            heap_get(EMPTY_HEAP, VRef(0))
        with pytest.raises(DanglingRef):
            heap_set(EMPTY_HEAP, VRef(0), VNat(1))

    @LAW_CASES
    @given(heaps())
    def test_extensional_equality(self, h):
        clone = Heap(tuple(h.cells), h.next_id)
        assert clone == h and hash(clone) == hash(h)


# ---------------------------------------------------------------------------
# Chains and lubs
# ---------------------------------------------------------------------------


class TestChains:
    def test_flat_chain_stabilizes(self):
        o = Ok(VNat(1), EMPTY_HEAP)
        c = Chain((BOTTOM, BOTTOM, o, o))
        assert c.is_chain()
        assert lub_eventually_constant(c) == o

    def test_all_bottom_not_stabilized(self):
        with pytest.raises(NotStabilized):
            lub_eventually_constant(Chain((BOTTOM, BOTTOM, BOTTOM)))

    def test_constant_chain(self):
        c = Chain((OkPure(VNat(3)),))
        assert lub_eventually_constant(c) == OkPure(VNat(3))

    def test_non_chain_detected(self):
        c = Chain((OkPure(VNat(1)), OkPure(VNat(2))))
        assert not c.is_chain()

    @settings(max_examples=300, deadline=None)
    @given(outcomes(), st.integers(0, 4), st.integers(1, 4))
    def test_lub_is_upper_bound_and_attained(self, o, n_bot, n_val):
        if o == BOTTOM:
            return
        c = Chain((BOTTOM,) * n_bot + (o,) * n_val)
        assert c.is_chain()
        lub = lub_eventually_constant(c)
        assert all(outcome_le(x, lub) for x in c)
        # The finite shadow of admissibility: the lub is attained, so any
        # predicate holding on every element transfers to the lub.
        assert lub in c.elems


# ---------------------------------------------------------------------------
# Rendering and heap files
# ---------------------------------------------------------------------------


class TestRendering:
    def test_value_rendering(self):
        v = VCtor("Node", (VNat(1), VRef(0)))
        assert render_value(v) == "Node(1, ref0)"
        assert render_value(VList((VNat(1), VNat(2)))) == "[1, 2]"
        assert render_value(VSome(VNone())) == "Some(None)"
        assert render_value(VUnit()) == "()"

    def test_heap_rendering_sorted(self):
        h = Heap(((0, VNat(1)), (1, VNat(2))), 2)
        assert render_heap(h) == "{0 ↦ 1, 1 ↦ 2; next=2}"
        assert render_heap(EMPTY_HEAP) == "{; next=0}"

    def test_outcome_rendering(self):
        assert render_outcome(BOTTOM) == "Bottom"
        assert render_outcome(OkPure(VList(()))) == "OkPure([])"

    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_value_pexpr_roundtrip(self, v):
        assert pexpr_to_value(value_to_pexpr(v)) == v

    def test_heap_file_roundtrip(self, traverse_prog, acyclic_heap):
        text = "\n".join(f"{i} ↦ {render_value(v)}" for i, v in acyclic_heap.cells)
        text += f"\nnext={acyclic_heap.next_id}\n"
        assert parse_heap(text, traverse_prog) == acyclic_heap

    def test_heap_file_ascii_arrow(self, traverse_prog):
        h = parse_heap("0 |-> Empty\nnext=1\n", traverse_prog)
        assert h.cells == ((0, VCtor("Empty", ())),)

    def test_heap_file_rejects_dangling(self, traverse_prog):
        with pytest.raises(ValueError):
            parse_heap("0 ↦ Node(1, ref5)\nnext=1\n", traverse_prog)

    def test_heap_file_of_10000_cells(self, traverse_prog):
        # A list of 10^4 cells at shuffled ids, read as one token stream
        # (about 11 s for 10^5 cells when each line was parsed on its own).
        rng = random.Random(4)
        ids = list(range(10_000))
        rng.shuffle(ids)
        cells = {a: VCtor("Node", (VNat(rng.randrange(100)), VRef(b)))
                 for a, b in zip(ids, ids[1:])}
        cells[ids[-1]] = VCtor("Empty", ())
        text = "".join(f"{i} ↦ {v}\n" for i, v in cells.items()) + "next=10000\n"
        assert parse_heap(text, traverse_prog) \
            == Heap(tuple(sorted(cells.items())), 10_000)

    def test_heap_closed(self, acyclic_heap):
        assert heap_closed(acyclic_heap)
        assert heap_closed(acyclic_heap, VRef(0))
        assert not heap_closed(acyclic_heap, VRef(9))

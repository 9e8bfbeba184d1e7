"""Synchronization stack: capacity, chunked spills, reload-on-demand."""

import pytest
from hypothesis import given, strategies as st

import warpsim as ws
from warpsim.errors import ModelViolation, ProgramError
from warpsim.stack import DEPTH_LIMIT, MOVE_EVENTS, StackEvent, SyncStack, Token, TokenKind

from conftest import RefOverlay


def div(pc=0, mask=1):
    return Token(mask, TokenKind.DIV, pc)


def sync(pc=0, mask=0xFFFFFFFF):
    return Token(mask, TokenKind.SYNC, pc)


def test_push_events_tag_token_kind():
    stack = SyncStack(16, 4)
    assert stack.push(sync()) == (StackEvent.SYNC_PUSH,)
    assert stack.push(div()) == (StackEvent.DIV_PUSH,)
    token, events = stack.pop()
    assert token.kind is TokenKind.DIV and events == (StackEvent.DIV_POP,)
    token, events = stack.pop()
    assert token.kind is TokenKind.SYNC and events == (StackEvent.SYNC_POP,)


def test_move_events_by_move_code():
    # 4 for a pop, plus 2 for a spill, plus 1 for a DIV token.
    E = StackEvent
    assert MOVE_EVENTS == (
        (E.SYNC_PUSH,), (E.DIV_PUSH,), (E.SPILL_STORE, E.SYNC_PUSH), (E.SPILL_STORE, E.DIV_PUSH),
        (E.SYNC_POP,), (E.DIV_POP,), (E.SPILL_LOAD, E.SYNC_POP), (E.SPILL_LOAD, E.DIV_POP))


@pytest.mark.parametrize("kind", list(TokenKind), ids=lambda kind: kind.name)
def test_a_token_kind_is_the_div_bit_of_its_move_codes(kind):
    assert MOVE_EVENTS[kind] == (StackEvent(kind),)
    assert MOVE_EVENTS[4 + kind][-1] == StackEvent(2 + kind)


def test_a_one_entry_stack_makes_all_eight_moves():
    E = StackEvent
    s = SyncStack(phys_capacity=1, spill_chunk=1)
    codes = []
    for push, code, expected, depth in [
            (div(1), 1, (E.DIV_PUSH,), 1),
            (sync(2), 2, (E.SPILL_STORE, E.SYNC_PUSH), 2),
            (None, 4, (E.SYNC_POP,), 1),
            (None, 7, (E.SPILL_LOAD, E.DIV_POP), 0),
            (sync(3), 0, (E.SYNC_PUSH,), 1),
            (div(4), 3, (E.SPILL_STORE, E.DIV_PUSH), 2),
            (None, 5, (E.DIV_POP,), 1),
            (None, 6, (E.SPILL_LOAD, E.SYNC_POP), 0)]:
        events = s.pop()[1] if push is None else s.push(push)
        assert events is MOVE_EVENTS[code] and events == expected and s.depth == depth
        codes.append(code)
    assert sorted(codes) == list(range(8)) and s.spilled_count == 0


def test_no_spill_up_to_capacity():
    stack = SyncStack(phys_capacity=16, spill_chunk=4)
    for i in range(15):
        assert StackEvent.SPILL_STORE not in stack.push(div(pc=i))
    assert stack.depth == 15
    assert stack.push(div(pc=15)) == (StackEvent.DIV_PUSH,)  # depth 16, still on chip
    assert stack.depth == 16 and stack.spilled_count == 0


def test_seventeenth_push_spills_a_chunk():
    stack = SyncStack(phys_capacity=16, spill_chunk=4)
    for i in range(16):
        stack.push(div(pc=i))
    events = stack.push(div(pc=16))
    assert events == (StackEvent.SPILL_STORE, StackEvent.DIV_PUSH)
    assert stack.onchip_count == 13
    assert stack.spilled_count == 4
    assert stack.depth == 17


def test_pop_reloads_newest_spilled_chunk():
    stack = SyncStack(phys_capacity=4, spill_chunk=4)
    for i in range(5):
        stack.push(div(pc=i))  # fifth push spills tokens 0..3
    assert stack.onchip_count == 1 and stack.spilled_count == 4
    token, events = stack.pop()
    assert token.pc == 4 and events == (StackEvent.DIV_POP,)
    token, events = stack.pop()
    assert events == (StackEvent.SPILL_LOAD, StackEvent.DIV_POP)
    assert token.pc == 3
    assert stack.onchip_count == 3 and stack.spilled_count == 0
    # LIFO order is preserved across the spill boundary.
    assert [stack.pop()[0].pc for _ in range(3)] == [2, 1, 0]


def test_pop_empty_is_a_model_violation():
    with pytest.raises(ModelViolation, match="empty"):
        SyncStack(16, 4).pop()


def test_div_token_with_empty_mask_rejected():
    with pytest.raises(ModelViolation, match="empty mask"):
        SyncStack(16, 4).push(Token(0, TokenKind.DIV, 0))
    SyncStack(16, 4).push(Token(0, TokenKind.SYNC, 0))  # SYNC may carry any mask


def test_unbounded_capacity_never_spills():
    stack = SyncStack(phys_capacity=None, spill_chunk=4)
    for i in range(1000):
        assert stack.push(div(pc=i)) == (StackEvent.DIV_PUSH,)
    assert stack.spilled_count == 0 and stack.depth == 1000


def test_push_past_the_depth_limit_is_a_model_violation():
    stack = SyncStack(16, 4)
    for i in range(DEPTH_LIMIT):
        stack.push(sync(pc=i))
    with pytest.raises(ModelViolation, match=f"depth limit of {DEPTH_LIMIT} tokens"):
        stack.push(sync())
    assert stack.depth == DEPTH_LIMIT
    stack.pop()
    stack.push(sync())  # back under the limit


def test_invalid_geometry_rejected():
    with pytest.raises(ProgramError):
        SyncStack(phys_capacity=0, spill_chunk=4)
    with pytest.raises(ProgramError):
        SyncStack(phys_capacity=4, spill_chunk=5)
    with pytest.raises(ProgramError):
        SyncStack(phys_capacity=None, spill_chunk=0)


def test_spill_cadence_on_monotone_pushes():
    """After a spill, the next chunk-1 pushes fit in the freed room."""
    for total in range(1, 26):
        stack = SyncStack(phys_capacity=16, spill_chunk=4)
        ref = RefOverlay(capacity=16, chunk=4)
        spill_positions = []
        for i in range(1, total + 1):
            events = stack.push(div(pc=i))
            assert ref.push() == (StackEvent.SPILL_STORE in events)
            if StackEvent.SPILL_STORE in events:
                spill_positions.append(i)
        assert spill_positions == [p for p in (17, 21, 25) if p <= total]
        for prev, cur in zip(spill_positions, spill_positions[1:]):
            assert cur - prev == 4


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=120),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_overlay_matches_reference_on_random_sequences(moves, chunk, extra):
    capacity = chunk + extra  # keeps chunk <= capacity
    stack = SyncStack(phys_capacity=capacity, spill_chunk=chunk)
    ref = RefOverlay(capacity=capacity, chunk=chunk)
    order = []
    counter = 0
    for move in moves:
        if move and stack.depth > 0:
            popped, events = stack.pop()
            assert ref.pop() == (StackEvent.SPILL_LOAD in events)
            assert popped.pc == order.pop()  # LIFO survives spilling
        else:
            counter += 1
            order.append(counter)
            events = stack.push(div(pc=counter))
            assert ref.push() == (StackEvent.SPILL_STORE in events)
        assert stack.depth == ref.depth
        assert stack.onchip_count <= capacity
        assert stack.spilled_count % chunk == 0
        assert stack.onchip_count + stack.spilled_count == stack.depth

"""Property tests: functional oracle, stack discipline, round-trips."""

from hypothesis import given, settings, strategies as st

import warpsim as ws
from warpsim.core import WarpState, step
from warpsim.stack import StackEvent

from conftest import (checked_run, double_oracle, loop_stack_sequence, replay_overlay,
                      single_oracle, template_program)

bounds_vectors = st.lists(st.integers(min_value=0, max_value=32),
                          min_size=32, max_size=32)


@given(bounds_vectors)
@settings(max_examples=60, deadline=None)
def test_single_loop_matches_scalar_oracle(bounds):
    result = checked_run(ws.kernel_program("single"),
                         ws.kernel_launch("single", bounds))
    counts = result.register("R4")
    accs = result.register("R0")
    for t in range(32):
        count, acc = single_oracle(bounds[t])
        assert counts[t] == count
        assert accs[t] == acc


@given(bounds_vectors)
@settings(max_examples=25, deadline=None)
def test_double_loop_matches_scalar_oracle(bounds):
    result = checked_run(ws.kernel_program("double"),
                         ws.kernel_launch("double", bounds))
    outers = result.register("R6")
    accs = result.register("R0")
    for t in range(32):
        outer, _inner, acc = double_oracle(bounds[t])
        assert outers[t] == outer
        assert accs[t] == acc


@given(bounds_vectors)
@settings(max_examples=25, deadline=None)
def test_runs_are_deterministic(bounds):
    launch = ws.kernel_launch("single", bounds)
    assert ws.run(ws.kernel_program("single"), launch) == \
        ws.run(ws.kernel_program("single"), launch)


@given(active=st.integers(min_value=1, max_value=0xFFFFFFFF),
       predicate=st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=200, deadline=None)
def test_divergence_partitions_the_active_mask(active, predicate):
    program = ws.parse_program("@P0 BRA t\nt: NOP\nEXIT")
    state = WarpState(program, ws.LaunchConfig())
    state.active_mask = active
    state.pc = 0
    state.preds[0] = predicate
    events, token = step(state, program)
    taken = predicate & active
    if taken == 0:
        assert (events, token) == ((), None) and state.pc == 1 and state.active_mask == active
    elif taken == active:
        assert (events, token) == ((), None) and state.pc == 1 and state.active_mask == active
    else:
        (kind,) = events
        assert kind is StackEvent.DIV_PUSH
        assert token.mask | state.active_mask == active
        assert token.mask & state.active_mask == 0
        assert token.mask != 0 and state.active_mask == taken


@given(bounds=bounds_vectors,
       filler=st.integers(min_value=0, max_value=3),
       extra=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_randomized_loop_templates_keep_the_invariants(bounds, filler, extra):
    program = template_program(filler, extra)
    result = checked_run(program, ws.LaunchConfig(registers={"R5": bounds}))
    counts = result.register("R4")
    assert all(counts[t] == max(bounds[t], 0) or (bounds[t] < 1 and counts[t] == 0)
               for t in range(32))
    distinct = len(set(b for b in bounds if b >= 1))
    zeros = any(b < 1 for b in bounds)
    live = any(b >= 1 for b in bounds)
    # dropouts: one DIV per distinct positive bound below the max, plus
    # one for the guard when it splits the warp
    expected_divs = 0
    if live:
        expected_divs = distinct - 1 + (1 if zeros else 0)
    assert result.div_pushes == expected_divs
    assert result.events.pushes == expected_divs + 1
    text = ws.format_program(program)
    assert ws.parse_program(text) == program


@given(bounds=bounds_vectors,
       chunk=st.integers(min_value=1, max_value=5),
       headroom=st.integers(min_value=0, max_value=12),
       kernel=st.sampled_from(["single", "double"]))
@settings(max_examples=40, deadline=None)
def test_stack_dynamics_match_structural_replay(bounds, chunk, headroom, kernel):
    """Spills predicted from loop structure alone must match the emulator.

    The oracle derives the push/pop order from the bounds (guard splits,
    per-bound dropouts, re-arming inner SSY) and prices it through the
    counter-only overlay, with no instruction semantics involved.
    """
    import dataclasses

    capacity = chunk + headroom
    profile = dataclasses.replace(ws.KEPLER, phys_capacity=capacity, spill_chunk=chunk)
    result = checked_run(ws.kernel_program(kernel),
                         ws.kernel_launch(kernel, bounds, profile))
    ref = replay_overlay(loop_stack_sequence(kernel, bounds),
                         capacity=capacity, chunk=chunk)
    assert result.events.pushes == ref.pushes
    assert result.events.pops == ref.pops
    assert result.max_depth == ref.max_depth
    assert result.spill_stores == ref.stores
    assert result.spill_loads == ref.loads


@given(bounds=bounds_vectors)
@settings(max_examples=20, deadline=None)
def test_sync_pops_restore_the_mask_recorded_by_ssy(bounds):
    result = checked_run(ws.kernel_program("double"),
                         ws.kernel_launch("double", bounds))
    pending = []
    for record in result.event_log:
        if record.kind is StackEvent.SYNC_PUSH:
            pending.append(record.token_mask)
        elif record.kind is StackEvent.DIV_PUSH:
            pending.append(None)
        elif record.kind in (StackEvent.SYNC_POP, StackEvent.DIV_POP):
            recorded = pending.pop()
            if record.kind is StackEvent.SYNC_POP:
                assert recorded is not None
                assert record.active_after == recorded
    assert pending == []


# Packed integer lanes: a differential check against a per-lane scalar
# reference that shares no code with warpsim.core.
INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
FULL = 0xFFFFFFFF

int32s = st.one_of(st.sampled_from([INT32_MIN, INT32_MIN + 1, -1, 0, 1,
                                    INT32_MAX - 1, INT32_MAX]),
                   st.integers(min_value=INT32_MIN, max_value=INT32_MAX))
lane_masks = st.one_of(st.just(FULL), st.integers(min_value=0, max_value=FULL))

# P0..P3 land in R10..R13 through a divergent branch and a partial-mask MOV.
_MATERIALISE = """
        SSY j{k}
        @P{k} BRA s{k}
        BRA u{k}
s{k}:   MOV R1{k}, 1
u{k}:   NOP.S
j{k}:   NOP
"""
PACKED_LANES = """
        IADD R3, R1, R2          ; register form
        IADD R4, R1, {imm}       ; immediate form
        ISETP.LT P0, R1, R2      ; register form
        ISETP.LT P1, R1, {imm}   ; immediate form
        MOV R5, {imm2}
        MOV R6, R2
        ISETP.LT P2, R7, 0       ; the lanes of the split mask
        SSY join
        @P2 BRA div
        MOV R8, R2               ; not-taken lanes
        BRA unwind
div:    IADD R8, R1, R2          ; partial-mask writes of packed rows
        ISETP.LT P3, R2, R1
        IADD R3, R3, {imm}
unwind: NOP.S
join:   NOP
""" + "".join(_MATERIALISE.format(k=k) for k in range(4)) + "        EXIT\n"


def _wrap(value):
    return (value - INT32_MIN) % (1 << 32) + INT32_MIN


def packed_lanes_reference(r1, r2, r7, imm, imm2, active):
    """Final R0..R15 of PACKED_LANES, one scalar lane at a time."""
    per_lane = []
    for t in range(32):
        lane = [0] * 16
        lane[1], lane[2], lane[7] = r1[t], r2[t], r7[t]
        if active >> t & 1:
            a, b = r1[t], r2[t]
            lane[3], lane[4], lane[5], lane[6] = _wrap(a + b), _wrap(a + imm), imm2, b
            preds = [a < b, a < imm, r7[t] < 0, False]
            if preds[2]:
                lane[8], preds[3], lane[3] = _wrap(a + b), b < a, _wrap(lane[3] + imm)
            else:
                lane[8] = b
            for k in range(4):
                if preds[k]:
                    lane[10 + k] = 1
        per_lane.append(lane)
    return [tuple(lane[r] for lane in per_lane) for r in range(16)]


@st.composite
def packed_lane_cases(draw):
    r1 = draw(st.lists(int32s, min_size=32, max_size=32))
    fresh = draw(st.lists(int32s, min_size=32, max_size=32))
    # Lane t of R2 is R1's value, a +-1 neighbour of it (wrapped), or fresh.
    relation = draw(st.lists(st.sampled_from([0, 1, -1, None]), min_size=32, max_size=32))
    r2 = [fresh[t] if rel is None else _wrap(r1[t] + rel) for t, rel in enumerate(relation)]
    split = draw(lane_masks)
    r7 = [-(split >> t & 1) for t in range(32)]
    active = draw(lane_masks.filter(bool))
    return r1, r2, r7, draw(int32s), draw(int32s), active


@given(packed_lane_cases())
@settings(max_examples=60, deadline=None)
def test_packed_lanes_match_a_scalar_reference(case):
    r1, r2, r7, imm, imm2, active = case
    program = ws.parse_program(PACKED_LANES.format(imm=imm, imm2=imm2))
    launch = ws.LaunchConfig(registers={"R1": r1, "R2": r2, "R7": r7}, active_mask=active)
    result = checked_run(program, launch)
    assert list(result.registers) == packed_lanes_reference(r1, r2, r7, imm, imm2, active)

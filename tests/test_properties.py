"""Property tests: functional oracle, stack discipline, round-trips."""

import math
import struct

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
    for _, events, token, after, _, _ in result.moves:  # each move is one push or one pop
        if StackEvent.SYNC_PUSH in events:
            pending.append(token.mask)
        elif StackEvent.DIV_PUSH in events:
            pending.append(None)
        else:
            recorded = pending.pop()
            if StackEvent.SYNC_POP in events:
                assert recorded is not None
                assert after == recorded
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


# Mixed int/float lanes: the same kind of check for rows that hold floats.
MIXED_LANES = """
        MOV R3, R1               ; a mixed row
        FADD32I R4, R1, {fimm}   ; a float row from a mixed one
        ISETP.LT P0, R1, R2      ; a mixed row against an int row
        ISETP.LT P1, R4, {imm}   ; a float row against an immediate
        STSLOT [0], R1
        MOV R5, R2               ; an int row for the branch to write into
        ISETP.LT P2, R7, 0       ; the lanes of the split mask
        SSY join
        @P2 BRA div
        MOV R5, R1               ; not-taken lanes write a mixed row
        BRA unwind
div:    FADD32I R5, R2, {fimm}   ; taken lanes write a float row
unwind: NOP.S
join:   NOP
""" + "".join(_MATERIALISE.format(k=k) for k in range(3)) + "        EXIT\n"


def _f32(value):
    return struct.unpack("<f", struct.pack("<f", value))[0]


F32_BOUND = _f32(1e30)
float32s = st.one_of(st.sampled_from([-0.0, math.inf, -math.inf, _f32(0.1)]),
                     st.floats(min_value=-F32_BOUND, max_value=F32_BOUND, width=32))


def mixed_lanes_reference(r1, r2, r7, fimm, imm, active):
    """Final R0..R15 and slots of MIXED_LANES, one scalar lane at a time."""
    per_lane, slots = [], []
    for t in range(32):
        lane = [0] * 16
        lane[1], lane[2], lane[7] = r1[t], r2[t], r7[t]
        slots.append({})
        if active >> t & 1:
            a, b = r1[t], r2[t]
            lane[3], lane[4] = a, _f32(a + fimm)
            preds = [a < b, lane[4] < imm, r7[t] < 0]
            slots[t][0] = a
            lane[5] = _f32(b + fimm) if preds[2] else a
            for k in range(3):
                if preds[k]:
                    lane[10 + k] = 1
        per_lane.append(lane)
    return [tuple(lane[r] for lane in per_lane) for r in range(16)], slots


@st.composite
def mixed_lane_cases(draw):
    r1 = draw(st.lists(st.one_of(int32s, float32s), min_size=32, max_size=32))
    fresh = draw(st.lists(int32s, min_size=32, max_size=32))
    # Lane t of R2 is R1's value (truncated to an int), a +-1 neighbour of it, or fresh.
    relation = draw(st.lists(st.sampled_from([0, 1, -1, None]), min_size=32, max_size=32))
    r2 = []
    for a, rel, other in zip(r1, relation, fresh):
        near = rel is not None and math.isfinite(a) and INT32_MIN <= int(a) <= INT32_MAX
        r2.append(_wrap(int(a) + rel) if near else other)
    split = draw(lane_masks)
    r7 = [-(split >> t & 1) for t in range(32)]
    fimm = draw(st.floats(min_value=-1e6, max_value=1e6, width=32))
    return r1, r2, r7, fimm, draw(int32s), draw(lane_masks.filter(bool))


def _exact(rows):
    """Rows (or slot dicts) with each lane value as its repr, so 0 != 0.0 != -0.0."""
    return [{k: repr(v) for k, v in row.items()} if isinstance(row, dict)
            else tuple(map(repr, row)) for row in rows]


@given(mixed_lane_cases())
@settings(max_examples=80, deadline=None)
def test_mixed_lanes_match_a_scalar_reference(case):
    r1, r2, r7, fimm, imm, active = case
    program = ws.parse_program(MIXED_LANES.format(fimm=repr(fimm), imm=imm))
    launch = ws.LaunchConfig(registers={"R1": r1, "R2": r2, "R7": r7}, active_mask=active)
    result = checked_run(program, launch)
    registers, slots = mixed_lanes_reference(r1, r2, r7, fimm, imm, active)
    assert _exact(result.registers) == _exact(registers)
    assert _exact(result.slots) == _exact(slots)

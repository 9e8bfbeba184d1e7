"""Property tests: functional oracle, stack discipline, round-trips."""

from hypothesis import given, settings, strategies as st

import warpsim as ws
from warpsim.core import WarpState, exec_predicated_branch
from warpsim.stack import StackEvent

from conftest import (checked_run, double_oracle, loop_stack_sequence, replay_overlay,
                      single_oracle, template_program)

bounds_vectors = st.lists(st.integers(min_value=0, max_value=32),
                          min_size=32, max_size=32)


@given(bounds_vectors)
@settings(max_examples=60, deadline=None)
def test_single_loop_matches_scalar_oracle(bounds):
    result = checked_run(ws.single_loop_program(),
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
    result = checked_run(ws.double_loop_program(),
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
    assert ws.run(ws.single_loop_program(), launch) == \
        ws.run(ws.single_loop_program(), launch)


@given(active=st.integers(min_value=1, max_value=0xFFFFFFFF),
       predicate=st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=200, deadline=None)
def test_divergence_partitions_the_active_mask(active, predicate):
    state = WarpState(ws.parse_program("NOP\nEXIT"), ws.LaunchConfig())
    state.active_mask = active
    state.pc = 0
    events, token = exec_predicated_branch(state, target=1, predicate=predicate)
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
    result = checked_run(ws.double_loop_program(),
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

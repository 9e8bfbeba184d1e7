"""Run records against a reference built by stepping; their memory; the trace API.

The references drive ``core.step`` on a fresh ``WarpState`` and read the
state around each instruction, so they share no code with the move log
that ``run`` keeps (its depth history) or with the trace rows and event
log derived from it.
"""

import dataclasses
import io
import json
import tracemalloc

import pytest

import warpsim as ws
from warpsim.core import WarpState, step

from conftest import checked_run
from test_core import EVERY_OPCODE
from test_harness import SPILLING_LOOP, spilling_loop_launch

SPILLING = dataclasses.replace(ws.KEPLER, name="spill-4-2", phys_capacity=4, spill_chunk=2)


def reference_trace(program, launch):
    """One TraceRecord per instruction, read off the state after each step."""
    state = WarpState(program, launch)
    records = []
    while not state.halted:
        pc = state.pc
        ins = program.instructions[pc]
        events, _ = step(state, program)
        records.append(ws.TraceRecord(
            len(records) + 1, pc, ins.opcode.value + (".S" if ins.pop_bit else ""),
            state.active_mask, state.stack.depth, tuple(event.name for event in events),
            state.cycle))
    return records


def reference_views(program, launch):
    """The EventRecord log and depth history, read off the state around each step."""
    state = WarpState(program, launch)
    log, history, ordinal = [], [(0, 0)], 0
    while not state.halted:
        before = state.active_mask
        events, token = step(state, program)
        ordinal += 1
        depth = state.stack.depth
        for event in events:
            spill = event in (ws.StackEvent.SPILL_STORE, ws.StackEvent.SPILL_LOAD)
            log.append(ws.EventRecord(ordinal, event, None if spill else token.mask,
                                      None if spill else token.pc, depth, before,
                                      state.active_mask))
        if events:
            history.append((ordinal, depth))
    return tuple(log), tuple(history)


def assert_views_match_reference(program, launch):
    log, history = reference_views(program, launch)
    assert log  # every program under test moves the stack
    for record_trace in (False, True):
        result = checked_run(program, launch, record_trace=record_trace)
        assert result.event_log == log
        assert ((0, 0),) + tuple((m[0], m[4]) for m in result.moves) == history
        assert result.max_depth == max(depth for _, depth in history)


def assert_trace_matches_reference(program, launch):
    result = checked_run(program, launch, record_trace=True)
    expected = reference_trace(program, launch)
    assert len(result.trace) == len(expected)
    assert list(result.trace) == expected
    sink = io.StringIO()
    ws.emit_trace(result, sink)
    assert [json.loads(line) for line in sink.getvalue().splitlines()] == [
        {"ordinal": r.ordinal, "pc": r.pc, "opcode": r.opcode,
         "active_mask": f"0x{r.active_mask:08x}", "depth": r.depth,
         "event": list(r.events), "cycle": r.cycle} for r in expected]


@pytest.mark.parametrize("n", [0, 1, 16, 17, 31])
@pytest.mark.parametrize("profile", [ws.KEPLER, ws.MAXWELL, SPILLING],
                         ids=lambda profile: profile.name)
@pytest.mark.parametrize("kernel", [kernel.value for kernel in ws.KernelId])
def test_kernel_trace_equals_the_stepped_reference(kernel, profile, n):
    assert_trace_matches_reference(ws.kernel_program(kernel),
                                   ws.kernel_launch(kernel, ws.bound_pattern(n).bounds, profile))


def test_spilling_loop_trace_equals_the_stepped_reference():
    assert_trace_matches_reference(ws.parse_program(SPILLING_LOOP), spilling_loop_launch())


def test_every_opcode_trace_equals_the_stepped_reference():
    assert_trace_matches_reference(ws.parse_program(EVERY_OPCODE),
                                   ws.LaunchConfig(registers={"R8": list(range(32))}))


@pytest.mark.parametrize("n", [0, 1, 16, 17, 31])
@pytest.mark.parametrize("profile", [ws.KEPLER, ws.MAXWELL, SPILLING],
                         ids=lambda profile: profile.name)
@pytest.mark.parametrize("kernel", [kernel.value for kernel in ws.KernelId])
def test_kernel_event_log_and_depth_history_equal_the_stepped_reference(kernel, profile, n):
    assert_views_match_reference(ws.kernel_program(kernel),
                                 ws.kernel_launch(kernel, ws.bound_pattern(n).bounds, profile))


def test_spilling_loop_event_log_and_depth_history_equal_the_stepped_reference():
    assert_views_match_reference(ws.parse_program(SPILLING_LOOP), spilling_loop_launch())


def test_every_opcode_event_log_and_depth_history_equal_the_stepped_reference():
    assert_views_match_reference(ws.parse_program(EVERY_OPCODE),
                                 ws.LaunchConfig(registers={"R8": list(range(32))}))


def test_traced_event_free_loop_stays_under_16_bytes_per_instruction():
    program = ws.parse_program("top: IADD R1, R1, 1\nBRA top\nEXIT")
    budget = 100_000
    tracemalloc.start()
    try:
        with pytest.raises(ws.RunawayLoopError):
            ws.run(program, budget=budget, record_trace=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * budget


def test_untraced_push_pop_loop_stays_under_206_bytes_per_instruction():
    # Every instruction moves a token, so each one adds an entry to the move log.
    # The peak reads 196.6 B per instruction in a fresh process and 193.1 B once
    # CPython's 6-tuple free list holds its 2000 spare tuples from an earlier run.
    program = ws.parse_program("top: SSY top\nNOP.S\nEXIT")
    budget = 50_000
    tracemalloc.start()
    try:
        with pytest.raises(ws.RunawayLoopError):
            ws.run(program, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 206 * budget


def test_trace_reads_as_a_sequence_of_records():
    program = ws.kernel_program("single")
    launch = ws.kernel_launch("single", ws.bound_pattern(5).bounds)
    trace = checked_run(program, launch, record_trace=True).trace
    expected = reference_trace(program, launch)
    assert len(trace) == len(expected) > 10
    assert (trace[0], trace[7], trace[-1], trace[-4]) == (
        expected[0], expected[7], expected[-1], expected[-4])
    assert trace[3:9] == tuple(expected[3:9])
    assert trace[::-5] == tuple(expected[::-5])
    assert list(trace) == list(iter(trace)) == expected
    with pytest.raises(IndexError):
        trace[len(expected)]


def test_traced_runs_of_equal_inputs_compare_equal():
    program = ws.kernel_program("double")
    launch = ws.kernel_launch("double", ws.bound_pattern(9).bounds)
    first = ws.run(program, launch, record_trace=True)
    second = ws.run(program, launch, record_trace=True)
    assert first.trace == second.trace and first == second
    other = ws.run(program, ws.kernel_launch("double", ws.bound_pattern(10).bounds),
                   record_trace=True)
    assert first.trace != other.trace
    assert first.trace != 5 and first.trace.__eq__(object()) is NotImplemented

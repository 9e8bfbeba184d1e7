"""Run records against a reference built by stepping; their memory; the trace API.

The reference, ``conftest.stepped``, drives ``core.step`` on a fresh
``WarpState`` and reads each move off the state around each instruction,
so it shares no code with the decoding of the move log that ``run`` keeps
(its depth history) or with the trace rows and event log derived from it.
"""

import dataclasses
import io
import json
import tracemalloc

import pytest

import warpsim as ws

from conftest import checked_run, outcome, stepped
from test_core import EVERY_OPCODE
from test_harness import SPILLING_LOOP, spilling_loop_launch

SPILLING = dataclasses.replace(ws.KEPLER, name="spill-4-2", phys_capacity=4, spill_chunk=2)


def assert_views_match_reference(program, launch):
    expected = stepped(program, launch)
    assert expected["moves"]  # every program under test moves the stack
    for record_trace in (False, True):
        result = checked_run(program, launch, record_trace=record_trace)
        assert outcome(result) == (expected if record_trace else dict(expected, trace=None))
        assert len(result.moves) == len(expected["moves"])


def assert_trace_matches_reference(program, launch):
    result = checked_run(program, launch, record_trace=True)
    expected = stepped(program, launch)
    assert outcome(result) == expected
    assert len(result.trace) == len(expected["trace"])
    sink = io.StringIO()
    ws.emit_trace(result, sink)
    assert [json.loads(line) for line in sink.getvalue().splitlines()] == [
        {"ordinal": r.ordinal, "pc": r.pc, "opcode": r.opcode,
         "active_mask": f"0x{r.active_mask:08x}", "depth": r.depth,
         "event": list(r.events), "cycle": r.cycle} for r in expected["trace"]]


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


def untraced_peak_per_instruction(source, budget):
    """tracemalloc's peak, per instruction, of a run that ends at its budget."""
    program = ws.parse_program(source)
    tracemalloc.start()
    try:
        with pytest.raises(ws.RunawayLoopError):
            ws.run(program, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / budget


def test_untraced_push_pop_loop_stays_under_32_bytes_per_instruction():
    # Every instruction moves a token, so each one adds a 23-byte record to the
    # move log; the peak reads 23.4 B per instruction (196.6 B with a tuple per move).
    assert untraced_peak_per_instruction("top: SSY top\nNOP.S\nEXIT", 50_000) < 32


def test_untraced_counted_push_pop_loop_stays_under_16_bytes_per_instruction():
    # Two moves in every four instructions: the peak reads 11.8 B per
    # instruction (97.1 B with a tuple per move).
    source = "MOV R1, 0\ntop: SSY j\nIADD R1, R1, 1\nNOP.S\nj: BRA top\nEXIT"
    assert untraced_peak_per_instruction(source, 200_000) < 16


HUGE = dataclasses.replace(SPILLING, name="huge", div_cost=10**30, spill_store_cost=10**30,
                           spill_load_cost=10**30)


@pytest.mark.parametrize("n", [5, 31])
@pytest.mark.parametrize("kernel", [kernel.value for kernel in ws.KernelId])
def test_huge_costs_give_exact_move_and_trace_cycles(kernel, n):
    # The move log derives its cycles from the prices; an int64 cycle would overflow.
    program = ws.kernel_program(kernel)
    launch = ws.kernel_launch(kernel, ws.bound_pattern(n).bounds, HUGE)
    expected = stepped(program, launch)
    result = checked_run(program, launch, record_trace=True)
    assert result.spill_stores > 0
    assert outcome(result) == expected
    rows = expected["trace"]
    assert result.cycles == rows[-1].cycle > 2**100
    if kernel == "single-instrumented":  # CLOCK reads the counter one cycle before its row
        clock = [row.cycle - 1 for row in rows if row.opcode == "CLOCK"][-1]  # after the unwind
        assert clock > 2**64
        low = clock & 0xFFFFFFFF  # join: CLOCK R6 / STSLOT [33], R6, as an int32
        assert result.slots[0][33] == low - (low >> 31 << 32)


def test_trace_reads_as_a_sequence_of_records():
    program = ws.kernel_program("single")
    launch = ws.kernel_launch("single", ws.bound_pattern(5).bounds)
    trace = checked_run(program, launch, record_trace=True).trace
    expected = list(stepped(program, launch)["trace"])
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

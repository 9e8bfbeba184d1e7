"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass line; a failure raises before the print.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

import warpsim as ws
from warpsim.stack import StackEvent

from conftest import checked_run, single_oracle, template_program


def passed(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def best_of(callable_, repeats=5):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_criterion_1_walk_through_golden():
    launch = ws.kernel_launch("single", ws.bound_pattern(2).bounds, ws.KEPLER)
    program = ws.kernel_program("single")
    result = checked_run(program, launch)

    log = [(r.kind, r.token_mask) for r in result.event_log]
    assert log == [
        (StackEvent.SYNC_PUSH, 0xFFFFFFFF),
        (StackEvent.DIV_PUSH, 0x80000000),
        (StackEvent.DIV_PUSH, 0x40000000),
        (StackEvent.DIV_POP, 0x40000000),
        (StackEvent.DIV_POP, 0x80000000),
        (StackEvent.SYNC_POP, 0xFFFFFFFF),
    ]
    restored = [after for _, events, _, after, _, _ in result.moves
                if StackEvent.DIV_POP in events or StackEvent.SYNC_POP in events]
    assert restored == [0x40000000, 0x80000000, 0xFFFFFFFF]
    assert [0] + [move[4] for move in result.moves] == [0, 1, 2, 3, 2, 1, 0]

    runtime = best_of(lambda: ws.run(program, launch))
    assert runtime < 1e-3, f"n=2 run took {runtime * 1e3:.3f} ms"
    passed(1, "walk-through golden test")


def test_criterion_2_push_count_formulas():
    start = time.perf_counter()
    single = ws.sweep("single", ws.KEPLER)
    double = ws.sweep("double", ws.KEPLER)
    elapsed = time.perf_counter() - start
    for row in single:
        assert row.total_pushes == row.n + 1
    for row in double:
        assert row.total_pushes == row.n * (65 - row.n) // 2 + 33
    assert elapsed < 1.0, f"full sweep took {elapsed:.3f} s"
    passed(2, "push-count formulas, sweep < 1 s")


def test_criterion_3_max_depth_formulas(kepler_sweeps):
    for row in kepler_sweeps["single"]:
        assert row.max_depth == row.n + 1
    for row in kepler_sweeps["double"]:
        assert row.max_depth == row.n + 2
    passed(3, "max-depth formulas")


def test_criterion_4_kepler_no_spill_timing_law(kepler_sweeps):
    single = kepler_sweeps["single"]
    for row in single[:16]:
        assert row.predicted_cycles - single[0].predicted_cycles == 32 * row.n
        assert row.predicted_cycles == 1732 + 32 * row.n
    double = kepler_sweeps["double"]
    for row in double[:15]:
        delta = row.predicted_cycles - double[0].predicted_cycles
        assert delta == 16 * row.n * (65 - row.n)
        assert row.predicted_cycles == -16 * row.n ** 2 + 1040 * row.n + 57024
    passed(4, "Kepler no-spill timing law")


def test_criterion_5_spill_onset_and_cadence(kepler_sweeps):
    spills = [row.spill_stores for row in kepler_sweeps["single"]]
    assert spills[:16] == [0] * 16, "no spill before the 17th entry"
    assert spills[16] == 1, "first spill exactly at n=16"
    increments = [n for n in range(1, 32) if spills[n] == spills[n - 1] + 1]
    assert increments == [16, 20, 24, 28]
    assert spills == [ws.expected_spill_count("single", n) for n in range(32)]
    passed(5, "spill onset at n=16, cadence every 4")


def test_criterion_6_extra_branches_equal_spills(kepler_sweeps):
    for row in kepler_sweeps["double"]:
        assert row.extra_branches == row.spill_stores
    passed(6, "extra branches equal spill count")


def test_criterion_7_spill_round_trip_cost():
    for profile, round_trip in ((ws.KEPLER, 84), (ws.MAXWELL, 176)):
        assert profile.spill_store_cost + profile.spill_load_cost == round_trip
        quiet = profile.without_spilling()
        for kernel in ("single", "double"):
            spilling = ws.sweep(kernel, profile)
            unbounded = ws.sweep(kernel, quiet)
            for with_spill, without in zip(spilling, unbounded):
                extra = with_spill.predicted_cycles - without.predicted_cycles
                assert extra == round_trip * with_spill.spill_stores
    passed(7, "spill round trip adds exactly 84/176 cycles")


def test_criterion_8_functional_oracle_1000_vectors():
    rng = random.Random(20260810)
    program = ws.kernel_program("single")
    start = time.perf_counter()
    for _ in range(1000):
        bounds = [rng.randint(0, 32) for _ in range(32)]
        result = ws.run(program, ws.kernel_launch("single", bounds))
        counts = result.register("R4")
        accs = result.register("R0")
        for t in range(32):
            count, acc = single_oracle(bounds[t])
            assert counts[t] == count
            assert accs[t] == acc  # bit-exact, well inside 1 ulp per addition
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"1000 oracle runs took {elapsed:.3f} s"
    passed(8, "functional oracle on 1000 random bound vectors")


def test_criterion_9_stack_balance_invariant_suite(kepler_results):
    audited = 0
    for kernel in ("single", "double", "single-instrumented"):
        for result in kepler_results[kernel].values():
            ws.verify_result(result)  # balance, partition, restoration
            assert result.events.pushes == result.events.pops
            assert result.moves[-1][4] == 0
            audited += 1
    rng = random.Random(7)
    for _ in range(25):
        program = template_program(rng.randint(0, 3), rng.randint(0, 2))
        bounds = [rng.randint(0, 32) for _ in range(32)]
        checked_run(program, ws.LaunchConfig(registers={"R5": bounds}))
        audited += 1
    assert audited == 96 + 25
    passed(9, "stack-balance invariants on every run")


def test_criterion_10_instrumented_attribution():
    program = ws.kernel_program("single-instrumented")
    reference_in_loop = None
    post_deltas = {}
    for n in range(16):
        launch = ws.kernel_launch("single-instrumented",
                                  ws.bound_pattern(n).bounds, ws.KEPLER)
        slots = checked_run(program, launch).slots[0]
        in_loop = [slots[k + 1] - slots[k] for k in range(1, 32)]
        if reference_in_loop is None:
            reference_in_loop = in_loop
        assert in_loop == reference_in_loop, f"in-loop deltas moved at n={n}"
        post_deltas[n] = slots[ws.FINAL_TIMESTAMP_SLOT] - slots[32]
    for n in range(16):
        assert post_deltas[n] - post_deltas[0] == 32 * n
    passed(10, "post-unwind delta grows by exactly 32 per divergent lane")

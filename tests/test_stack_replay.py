"""The benchmark's stack replay, run in tier-1 on every kernel and on generated programs.

``benchmarks/workloads.py`` replays a run's ``event_log`` on a fresh
``SyncStack``: the stack must produce the logged events, spills included,
and pop the logged tokens.  The asm-spill workload's check rests on that
replay, so this test imports the module read-only and runs it under a
spilling 4/2 profile.  The interpreter loop moves tokens without calling
``SyncStack``, so the replay is also run under every small capacity and
chunk, where an off-by-one in the loop's spill or reload rule would show.
"""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import warpsim as ws

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import asmgen  # noqa: E402
import workloads  # noqa: E402

SPILLING = dataclasses.replace(ws.KEPLER, name="spill-4-2", phys_capacity=4, spill_chunk=2)
ASM_PROFILE = ws.parse_profile(asmgen.PROFILE_TEXT)


def replay_checked(result, profile):
    """The replay's events, after the benchmark's own checks of them."""
    stack = profile.new_stack()
    produced = workloads.replay(result.event_log, stack)
    workloads.check_replay(result, produced, stack)
    assert ws.charge(result.events, profile) == workloads.expected_charge(produced, profile)
    return produced


@pytest.mark.parametrize("n", [5, 17, 31])
@pytest.mark.parametrize("kernel", [kernel.value for kernel in ws.KernelId])
def test_kernel_event_log_replays_on_a_spilling_stack(kernel, n):
    result = ws.verify_result(ws.run_kernel(kernel, n, SPILLING))
    produced = replay_checked(result, SPILLING)
    assert produced.count(ws.StackEvent.SPILL_STORE) == result.spill_stores > 0


@pytest.mark.parametrize("index", [0, 5])
def test_generated_asm_spill_program_event_log_replays(index):
    gen = asmgen.generate(1, index)
    result = ws.verify_result(ws.run(ws.parse_program(gen.text),
                                     ws.LaunchConfig(registers=gen.launch, profile=ASM_PROFILE)))
    produced = replay_checked(result, ASM_PROFILE)
    assert produced.count(ws.StackEvent.SPILL_LOAD) == result.spill_loads > 0


def test_replay_rejects_a_log_whose_pop_names_another_token():
    result = ws.run_kernel("single", 9, SPILLING)
    log = list(result.event_log)
    i = next(i for i, record in enumerate(log) if record.kind is ws.StackEvent.DIV_POP)
    log[i] = log[i]._replace(token_mask=log[i].token_mask ^ 1)
    with pytest.raises(workloads.CheckFailed, match="replayed pop"):
        workloads.replay(log, SPILLING.new_stack())


# (capacity, chunk): every on-chip capacity 1..6 and every chunk 1..capacity.
small_stacks = st.integers(1, 6).flatmap(lambda cap: st.tuples(st.just(cap), st.integers(1, cap)))


def with_stack(profile, stack):
    cap, chunk = stack
    return dataclasses.replace(profile, name=f"spill-{cap}-{chunk}", phys_capacity=cap,
                               spill_chunk=chunk)


@given(stack=small_stacks, kernel=st.sampled_from([k.value for k in ws.KernelId]),
       n=st.integers(0, 31))
@settings(max_examples=60, deadline=None)
def test_kernel_runs_replay_under_every_small_stack(stack, kernel, n):
    profile = with_stack(ws.KEPLER, stack)
    replay_checked(ws.verify_result(ws.run_kernel(kernel, n, profile)), profile)


@given(stack=small_stacks, seed=st.integers(0, 2**32 - 1), index=st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_generated_programs_replay_under_every_small_stack(stack, seed, index):
    profile = with_stack(ASM_PROFILE, stack)
    gen = asmgen.generate(seed, index)
    result = ws.verify_result(ws.run(ws.parse_program(gen.text),
                                     ws.LaunchConfig(registers=gen.launch, profile=profile)))
    replay_checked(result, profile)

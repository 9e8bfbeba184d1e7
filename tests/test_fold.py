"""The lane fold: runs on classes of identical launch lanes against unfolded references.

``run`` sorts the launch lanes into classes of identical lanes and runs
the warp on one lane per class.  Two references share no code with the
fold:

* ``conftest.stepped``: a 32-lane ``WarpState`` driven by ``step``,
  which never folds, read around each instruction;
* ``asmgen.reference``: the asm-spill benchmark's per-lane scalar
  evaluator, imported read-only, which imports nothing from warpsim.

Values are compared by ``repr``, so ``1`` differs from ``1.0`` and
``0.0`` from ``-0.0``.
"""

import dataclasses
import gc
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import warpsim as ws
import warpsim.cli
from warpsim.core import lanes

from conftest import outcome, stepped

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import asmgen  # noqa: E402

FULL = 0xFFFFFFFF
SPILLING = ws.parse_profile(asmgen.PROFILE_TEXT)  # a 4-entry stack, spilled 2 at a time
KERNELS = [kernel.value for kernel in ws.KernelId]


def folded(program, launch, budget=ws.DEFAULT_BUDGET):
    """A traced ``run``'s result in the shape :func:`stepped` gives."""
    try:
        result = ws.run(program, launch, budget=budget, record_trace=True)
    except ws.ModelViolation as exc:
        return type(exc), str(exc)
    return outcome(result)


def classes(launch):
    """The number of distinct launch lanes, as the fold counts them (by repr)."""
    rows = [tuple(map(repr, values)) for values in launch.registers.values()]
    return len({(launch.active_mask >> t & 1, *(row[t] for row in rows)) for t in range(32)})


@st.composite
def repeated(draw, values):
    """32 lane values drawn from a pool of one to four."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=32, max_size=32))


masks = st.sampled_from([FULL, 0x0000FFFF, 0x55555555]) | st.integers(1, FULL)


@given(kernel=st.sampled_from(KERNELS), bounds=repeated(st.integers(0, 32)), mask=masks,
       profile=st.sampled_from([ws.KEPLER, SPILLING]),
       budget=st.sampled_from([ws.DEFAULT_BUDGET, 1, 60]) | st.integers(1, 3000))
@settings(max_examples=40, deadline=None)
def test_kernels_with_repeated_bounds_match_the_stepped_warp(kernel, bounds, mask, profile,
                                                            budget):
    launch = dataclasses.replace(ws.kernel_launch(kernel, bounds, profile), active_mask=mask)
    assert classes(launch) <= 8
    assert folded(ws.kernel_program(kernel), launch, budget) == \
        stepped(ws.kernel_program(kernel), launch, budget)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", [0, 1, 18, 19, 20, 30, 31])  # n + 1 classes; 20 run 21 lanes
def test_kernel_points_match_the_stepped_warp(kernel, n):
    launch = ws.kernel_launch(kernel, ws.bound_pattern(n).bounds, SPILLING)
    assert classes(launch) == n + 1
    assert folded(ws.kernel_program(kernel), launch) == stepped(ws.kernel_program(kernel), launch)


def test_a_fold_of_twenty_classes_leaves_no_freed_rows_behind():
    # CPython 3.11 keeps up to 2,000 freed 20-tuples and reuses none, about
    # 400 KB after one double-loop run on 20 lanes; a fold of 20 runs 21 lanes.
    program = ws.kernel_program("double")
    launch = ws.kernel_launch("double", ws.bound_pattern(19).bounds)
    ws.run(program, launch)
    gc.collect()
    tracemalloc.start()
    try:
        ws.run(program, launch)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 50_000


def repeat_lanes(gen, picks):
    """``gen`` with lane t launched with the values of lane ``picks[t]``."""
    launch = {name: [values[p] for p in picks] for name, values in gen.launch.items()}
    return dataclasses.replace(gen, launch=launch)


def masked_reference(gen, mask):
    """``asmgen.reference`` with the lanes outside ``mask`` left as launched."""
    registers, slots = asmgen.reference(gen)
    registers = [list(row) for row in registers]
    slots = list(slots)
    for t in range(32):
        if not mask >> t & 1:
            for r in range(asmgen.REGISTERS):
                value = gen.launch.get(f"R{r}", [0] * 32)[t]
                registers[r][t] = asmgen.f32(value) if isinstance(value, float) else value
            slots[t] = {}
    return repr(tuple(map(tuple, registers))), repr(tuple(slots))


@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 999),
       picks=repeated(st.integers(0, 31)), mask=masks)
@settings(max_examples=40, deadline=None)
def test_generated_programs_with_repeated_lanes_match_both_references(seed, index, picks,
                                                                     mask):
    gen = repeat_lanes(asmgen.generate(seed, index), picks)
    program = ws.parse_program(gen.text)
    launch = ws.LaunchConfig(gen.launch, active_mask=mask, profile=SPILLING)
    result = ws.verify_result(ws.run(program, launch, record_trace=True))
    assert (repr(result.registers), repr(result.slots)) == masked_reference(gen, mask)
    assert outcome(result) == stepped(program, launch)


@pytest.mark.parametrize("picks", [[0] * 32, [5] * 32, [t % 3 for t in range(32)],
                                   [31 - t // 8 for t in range(32)], [t % 20 for t in range(32)]])
@pytest.mark.parametrize("mask", [FULL, 0xFFFF0000, 0x5A5A5A5A])
def test_every_lane_equal_or_a_few_copied_over_all(picks, mask):
    gen = repeat_lanes(asmgen.generate(7, 11), picks)
    program = ws.parse_program(gen.text)
    launch = ws.LaunchConfig(gen.launch, active_mask=mask, profile=SPILLING)
    result = ws.verify_result(ws.run(program, launch, record_trace=True))
    assert (repr(result.registers), repr(result.slots)) == masked_reference(gen, mask)
    assert outcome(result) == stepped(program, launch)


# Each fails in a class of several lanes; an unfolded run names the lowest
# failing lane, or the lanes of its masks.
FAILING = {
    "fadd": ("FADD32I R2, R1, 3e38\nEXIT", [0.0] * 5 + [3e38] * 27),
    "stslot": ("STSLOT [R1], R1\nEXIT", [0, 4] * 3 + [-1] * 26),
    "exit-mask": ("ISETP.LT P0, R1, 1\n@P0 BRA 3\nBRA 4\nNOP.S\nEXIT", [0, 0, 1] * 10 + [1, 0]),
}


@pytest.mark.parametrize("name", FAILING)
@pytest.mark.parametrize("mask", [FULL, 0xFFFFFFF0])
def test_error_messages_name_the_lanes_of_an_unfolded_run(name, mask):
    text, values = FAILING[name]
    program = ws.parse_program(text)
    launch = ws.LaunchConfig({"R1": values}, active_mask=mask)
    error = stepped(program, launch)
    assert error[0] is ws.ModelViolation
    assert folded(program, launch) == error


HAZARD_PROGRAM = """
        MOV R2, R1
        FADD32I R3, R1, 0.0
        ISETP.LT P0, R1, 1
        SSY join
        @P0 BRA skip
        STSLOT [3], R1
skip:   NOP.S
join:   EXIT
"""

# Lanes that differ only in the sign of a zero, only as 1 and 1.0 in a row
# that holds floats, or only in their launch-mask bit.
HAZARDS = {
    "zero-sign": ([0.0, -0.0] * 16, FULL, "0.0,-0.0," * 15 + "0.0,-0.0"),
    "int-float": ([1, 1.0] * 16, FULL, "1,1.0," * 15 + "1,1.0"),
    "mask-bit": ([7] * 32, 0x0F0F0F0F, None),
}


@pytest.mark.parametrize("name", HAZARDS)
def test_lanes_that_differ_only_by_an_equality_hazard_stay_apart(name):
    values, mask, _ = HAZARDS[name]
    program = ws.parse_program(HAZARD_PROGRAM)
    launch = ws.LaunchConfig({"R1": values}, active_mask=mask)
    assert classes(launch) == 2
    assert outcome(ws.verify_result(ws.run(program, launch, record_trace=True))) == \
        stepped(program, launch)


@pytest.mark.parametrize("name", [name for name, hazard in HAZARDS.items() if hazard[2]])
def test_equality_hazards_through_the_cli(name, tmp_path, monkeypatch, capsys):
    values, _, option = HAZARDS[name]
    source = tmp_path / "hazard.asm"
    source.write_text(HAZARD_PROGRAM)
    results = []

    def run(*args, **kwargs):
        results.append(ws.run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(warpsim.cli, "run", run)
    code = warpsim.cli.main(["run", "--program", str(source), "--reg", f"R1={option}"])
    assert (code, capsys.readouterr().err) == (0, "")
    program = ws.parse_program(HAZARD_PROGRAM)
    # The CLI's run records no trace.
    assert outcome(results[0]) == dict(stepped(program, ws.LaunchConfig({"R1": values})),
                                       trace=None)


def permute_mask(mask, perm):
    return sum(1 << perm[t] for t in lanes(mask))


def permuted(values, perm):
    """Lane ``perm[t]`` gets lane t's value."""
    out = [None] * 32
    for t, value in enumerate(values):
        out[perm[t]] = value
    return out


def assert_permuted(result, moved, perm):
    """``moved`` is ``result`` with its lanes permuted by ``perm``."""
    assert repr(moved.registers) == repr(tuple(map(tuple, (permuted(row, perm)
                                                           for row in result.registers))))
    assert repr(moved.slots) == repr(tuple(permuted(result.slots, perm)))
    assert len(moved.moves) == len(result.moves)
    for (ordinal, events, token, after, depth, cycle), move in zip(result.moves, moved.moves):
        assert move == (ordinal, events, token._replace(mask=permute_mask(token.mask, perm)),
                        permute_mask(after, perm), depth, cycle)
    assert (moved.events, moved.cycles, moved.max_depth, moved.executed_instructions,
            moved.executed_branches) == (result.events, result.cycles, result.max_depth,
                                         result.executed_instructions, result.executed_branches)
    assert moved.final_active_mask == permute_mask(result.final_active_mask, perm)


def permute_launch(launch, perm):
    return dataclasses.replace(
        launch, registers={name: permuted(values, perm)
                           for name, values in launch.registers.items()},
        active_mask=permute_mask(launch.active_mask, perm))


@given(kernel=st.sampled_from(KERNELS),
       bounds=st.lists(st.integers(0, 32), min_size=32, max_size=32) | repeated(
           st.integers(0, 32)),
       mask=masks, perm=st.permutations(range(32)))
@settings(max_examples=30, deadline=None)
def test_permuting_the_lanes_of_a_kernel_launch_permutes_its_run(kernel, bounds, mask, perm):
    program = ws.kernel_program(kernel)
    launch = dataclasses.replace(ws.kernel_launch(kernel, bounds, SPILLING), active_mask=mask)
    assert_permuted(ws.run(program, launch), ws.run(program, permute_launch(launch, perm)),
                    perm)


@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 999),
       picks=repeated(st.integers(0, 31)), mask=masks, perm=st.permutations(range(32)))
@settings(max_examples=30, deadline=None)
def test_permuting_the_lanes_of_a_generated_launch_permutes_its_run(seed, index, picks, mask,
                                                                   perm):
    gen = repeat_lanes(asmgen.generate(seed, index), picks)
    program = ws.parse_program(gen.text)
    launch = ws.LaunchConfig(gen.launch, active_mask=mask, profile=SPILLING)
    assert_permuted(ws.run(program, launch), ws.run(program, permute_launch(launch, perm)),
                    perm)

"""Built-in kernels: bound patterns, structure, counters, lane results."""

import pytest

import warpsim as ws
from warpsim.errors import ProgramError
from warpsim.stack import StackEvent

from conftest import checked_run, double_oracle, single_oracle


class TestBoundPattern:
    def test_row_zero_is_uniform(self):
        assert ws.bound_pattern(0).bounds == (32,) * 32

    def test_row_two(self):
        bounds = ws.bound_pattern(2).bounds
        assert bounds[:30] == (32,) * 30
        assert bounds[30] == 31 and bounds[31] == 30

    def test_row_thirty_one(self):
        bounds = ws.bound_pattern(31).bounds
        assert bounds[0] == 32
        assert all(bounds[t] == 32 - t for t in range(1, 32))

    def test_all_rows_well_formed(self):
        previous = None
        for n in range(32):
            bounds = ws.bound_pattern(n).bounds
            assert all(1 <= b <= 32 for b in bounds)
            # non-increasing along the warp
            assert all(a >= b for a, b in zip(bounds, bounds[1:]))
            # pointwise non-increasing as divergence grows
            if previous is not None:
                assert all(b <= p for b, p in zip(bounds, previous))
            previous = bounds

    @pytest.mark.parametrize("n", [-1, 32, 100])
    def test_out_of_range(self, n):
        with pytest.raises(ProgramError):
            ws.bound_pattern(n)


class TestSingleLoop:
    def test_structure_in_dump(self):
        text = ws.format_program(ws.kernel_program("single"))
        assert "SSY " in text
        assert "@P0 BRA " in text
        assert "NOP.S" in text
        assert text.index("SSY") < text.index("@P0 BRA")

    def test_walk_through_n2_token_sequence(self):
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(2).bounds))
        log = [(events, token.mask, after) for _, events, token, after, _, _ in result.moves]
        assert log == [
            ((StackEvent.SYNC_PUSH,), 0xFFFFFFFF, 0xFFFFFFFF),
            ((StackEvent.DIV_PUSH,), 0x80000000, 0x7FFFFFFF),
            ((StackEvent.DIV_PUSH,), 0x40000000, 0x3FFFFFFF),
            ((StackEvent.DIV_POP,), 0x40000000, 0x40000000),
            ((StackEvent.DIV_POP,), 0x80000000, 0x80000000),
            ((StackEvent.SYNC_POP,), 0xFFFFFFFF, 0xFFFFFFFF),
        ]
        assert [0] + [move[4] for move in result.moves] == [0, 1, 2, 3, 2, 1, 0]
        # both DIV tokens park their lanes at the pop-bit NOP
        unwind_pc = ws.kernel_program("single").labels["unwind"]
        assert all(token.pc == unwind_pc for _, events, token, _, _, _ in result.moves
                   if events == (StackEvent.DIV_PUSH,))

    def test_uniform_bounds_never_diverge(self):
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(0).bounds))
        assert result.div_pushes == 0
        assert result.sync_pushes == 1 and result.pops == 1
        # guard branch once, loop branch 32 times (31 taken, 1 fall-through)
        assert result.executed_branches == 33

    @pytest.mark.parametrize("n", [0, 7, 31])
    def test_div_push_count_is_n(self, n):
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(n).bounds))
        assert result.div_pushes == n
        assert result.events.pushes == n + 1
        assert result.max_depth == n + 1

    @pytest.mark.parametrize("n", [0, 2, 16, 31])
    def test_lane_results_match_scalar_oracle(self, n):
        bounds = ws.bound_pattern(n).bounds
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", bounds))
        counts = result.register("R4")
        accs = result.register("R0")
        for t in range(32):
            count, acc = single_oracle(bounds[t])
            assert counts[t] == count == bounds[t]
            assert accs[t] == acc

    def test_frozen_accumulator_values(self):
        # Values computed with an independent numpy float32 scalar loop:
        # 32 adds of 1.3332999944686889648 and, for the nested kernel,
        # 32 x (32 inner adds + one outer add of 2.3333001136779785156).
        single = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(0).bounds))
        assert single.register("R0") == (42.66560745239258,) * 32
        double = checked_run(ws.kernel_program("double"),
                             ws.kernel_launch("double", ws.bound_pattern(0).bounds))
        assert double.register("R0") == (1439.9571533203125,) * 32

    def test_unwind_instruction_executes_once_per_pop(self):
        # one execution per DIV pop plus the final SYNC pop
        for n in (0, 1, 5):
            result = checked_run(ws.kernel_program("single"),
                                 ws.kernel_launch("single", ws.bound_pattern(n).bounds),
                                 record_trace=True)
            unwind_pc = ws.kernel_program("single").labels["unwind"]
            executions = sum(1 for r in result.trace if r.pc == unwind_pc)
            assert executions == n + 1


class TestDoubleLoop:
    def test_push_total_at_zero_is_thirty_three(self):
        result = checked_run(ws.kernel_program("double"),
                             ws.kernel_launch("double", ws.bound_pattern(0).bounds))
        assert result.events.pushes == 33
        assert result.div_pushes == 0
        assert result.sync_pushes == 33  # one outer SSY, 32 inner re-arms

    def test_push_total_at_thirty_one(self):
        result = checked_run(ws.kernel_program("double"),
                             ws.kernel_launch("double", ws.bound_pattern(31).bounds))
        assert result.events.pushes == 31 * 34 // 2 + 33 == 560

    @pytest.mark.parametrize("n", [1, 15, 31])
    def test_max_depth_is_n_plus_two(self, n):
        result = checked_run(ws.kernel_program("double"),
                             ws.kernel_launch("double", ws.bound_pattern(n).bounds))
        assert result.max_depth == n + 2

    @pytest.mark.parametrize("n", [0, 3, 31])
    def test_lane_results_match_scalar_oracle(self, n):
        bounds = ws.bound_pattern(n).bounds
        result = checked_run(ws.kernel_program("double"),
                             ws.kernel_launch("double", bounds))
        outer_counts = result.register("R6")
        accs = result.register("R0")
        for t in range(32):
            outer, _inner, acc = double_oracle(bounds[t])
            assert outer_counts[t] == outer == bounds[t]
            assert accs[t] == acc

    @pytest.mark.parametrize("n", [0, 5, 13])
    def test_unwind_execution_counts_derive_from_bounds(self, n):
        # Each pop re-executes its carrier once, so the inner unwind
        # runs (inner SYNCs + inner DIVs) times and the outer unwind
        # (outer SYNC + outer DIVs) times; both follow from the bounds.
        bounds = ws.bound_pattern(n).bounds
        inner_divs = 0
        outer_divs = 0
        for j in range(1, 33):
            active = [b for b in bounds if b >= j]
            if not active:
                break
            inner_divs += len(set(active)) - 1
            survivors = [b for b in active if b >= j + 1]
            if survivors and len(survivors) != len(active):
                outer_divs += 1
        program = ws.kernel_program("double")
        result = checked_run(program,
                             ws.kernel_launch("double", bounds),
                             record_trace=True)
        inner_pc = program.labels["inner_unwind"]
        outer_pc = program.labels["outer_unwind"]
        assert sum(1 for r in result.trace if r.pc == inner_pc) == 32 + inner_divs
        assert sum(1 for r in result.trace if r.pc == outer_pc) == 1 + outer_divs
        assert result.div_pushes == inner_divs + outer_divs

    def test_inner_sync_never_outlives_its_outer_iteration(self):
        program = ws.kernel_program("double")
        inner_ssy = next(i for i, ins in enumerate(program.instructions)
                         if ins.opcode is ws.Opcode.SSY and i != 3)
        outer_bra = next(i for i, ins in enumerate(program.instructions)
                         if ins.opcode is ws.Opcode.BRA
                         and ins.target == program.labels["outer_body"])
        inner_unwind = program.labels["inner_unwind"]
        result = checked_run(ws.kernel_program("double"),
                             ws.kernel_launch("double", ws.bound_pattern(6).bounds),
                             record_trace=True)
        alive = 0
        for record in result.trace:
            if record.pc == inner_ssy and "SYNC_PUSH" in record.events:
                alive += 1
            if record.pc == inner_unwind and "SYNC_POP" in record.events:
                alive -= 1
            if record.pc == outer_bra:
                assert alive == 0
        assert alive == 0


class TestInstrumentedLoop:
    def test_slot_layout_per_lane(self):
        for n in (0, 4, 15):
            bounds = ws.bound_pattern(n).bounds
            result = checked_run(
                ws.kernel_program("single-instrumented"),
                ws.kernel_launch("single-instrumented", bounds))
            for t in range(32):
                slots = result.slots[t]
                expected = set(range(1, bounds[t] + 1)) | {ws.FINAL_TIMESTAMP_SLOT}
                assert set(slots) == expected
            # lane 0 always iterates 32 times
            assert set(result.slots[0]) == set(range(1, 33)) | {33}

    def test_counters_match_plain_single_loop_at_n0(self):
        bounds = ws.bound_pattern(0).bounds
        plain = checked_run(ws.kernel_program("single"),
                            ws.kernel_launch("single", bounds))
        instrumented = checked_run(ws.kernel_program("single-instrumented"),
                                   ws.kernel_launch("single-instrumented", bounds))
        assert plain.events == instrumented.events
        assert plain.max_depth == instrumented.max_depth

    def test_timestamps_increase_along_each_lane(self):
        result = checked_run(ws.kernel_program("single-instrumented"),
                             ws.kernel_launch("single-instrumented",
                                              ws.bound_pattern(9).bounds))
        for t in range(32):
            ordered = [value for _, value in sorted(result.slots[t].items())]
            assert ordered == sorted(ordered)

    @pytest.mark.parametrize("profile", [
        ws.MAXWELL,
        ws.ArchProfile(name="lab", div_cost=100, spill_store_cost=0, spill_load_cost=0),
    ])
    def test_post_unwind_delta_grows_by_div_cost_on_any_profile(self, profile):
        # The attribution law is profile-generic: each extra divergent
        # lane adds one DIV pop, charged div_cost, after the last
        # in-loop timestamp of lane 0 and before the trailing one.
        program = ws.kernel_program("single-instrumented")
        deltas = {}
        for n in (0, 1, 8, 15):
            launch = ws.kernel_launch("single-instrumented",
                                      ws.bound_pattern(n).bounds, profile)
            slots = checked_run(program, launch).slots[0]
            deltas[n] = slots[ws.FINAL_TIMESTAMP_SLOT] - slots[32]
        for n, delta in deltas.items():
            assert delta - deltas[0] == profile.div_cost * n


def test_kernel_launch_plumbing():
    launch = ws.kernel_launch("double", ws.bound_pattern(1).bounds)
    assert set(launch.registers) == {"R8", "R9"}
    with pytest.raises(ProgramError, match="bounds"):
        ws.kernel_launch("single", [1, 2, 3])
    with pytest.raises(ValueError):
        ws.kernel_program("octuple")
    assert ws.kernel_program(ws.KernelId.SINGLE_LOOP) is ws.kernel_program("single")


@pytest.mark.parametrize("kernel,labels", [
    ("single", {"body": 8, "unwind": 12, "join": 13}),
    ("double", {"outer_body": 6, "inner_body": 10, "inner_unwind": 14, "outer_step": 15,
                "outer_unwind": 19, "join": 20}),
    ("single-instrumented", {"body": 6, "unwind": 12, "join": 13}),
])
def test_each_kernel_is_parsed_once(kernel, labels):
    program = ws.kernel_program(kernel)
    assert ws.kernel_program(ws.KernelId(kernel)) is program
    assert ws.kernel_program(kernel) is program
    assert dict(program.labels) == labels
    assert ws.parse_program(ws.format_program(program)) == program

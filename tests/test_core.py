"""Warp interpreter semantics: branching, pop-bit, masking, errors."""

import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import warpsim as ws
from warpsim import core
from warpsim.core import WarpState, step, unpack_row
from warpsim.errors import ModelViolation, ProgramError, RunawayLoopError
from warpsim.stack import StackEvent, Token, TokenKind

from conftest import checked_run

FULL = 0xFFFFFFFF
SMALL_STACK = ws.ArchProfile("small-stack", div_cost=32, spill_store_cost=40,
                             spill_load_cost=44, phys_capacity=4, spill_chunk=2)


def fresh_state(source="NOP\nEXIT", **launch_kwargs):
    program = ws.parse_program(source)
    return WarpState(program, ws.LaunchConfig(**launch_kwargs)), program


def branch_state(pc, target):
    """A fresh state at ``pc`` of a program whose instruction ``pc`` is ``@P0 BRA`` to ``target``."""
    lines = ["NOP"] * (pc + 2) + ["EXIT"]
    lines[pc] = "@P0 BRA t"
    lines[target] = "t: " + lines[target]
    state, program = fresh_state("\n".join(lines))
    state.pc = pc
    return state, program


def branch(state, program, predicate):
    """Step the ``@P0 BRA`` at ``state.pc`` with P0 holding ``predicate``."""
    state.preds[0] = predicate
    return step(state, program)


INACTIVE_FLOAT_IADD = """
        SSY join
        ISETP.LT P0, R5, 16
        @P0 BRA flt
        {add}
        BRA unwind
flt:    FADD32I R1, RZ, 1.5
unwind: NOP.S
join:   EXIT
"""

INACTIVE_LARGE_FADD = """
        SSY join
        ISETP.LT P0, R5, 16
        @P0 BRA big
        FADD32I R2, R1, 3e38
        BRA unwind
big:    FADD32I R1, RZ, 3e38
unwind: NOP.S
join:   EXIT
"""

# Straight-line use of every opcode and of both forms of every reg|int
# and [reg|int] operand; R8 holds the lane index.
EVERY_OPCODE = """
        MOV R1, 7           ; immediate form: 7
        MOV R2, R8          ; register form: t
        IADD R3, R2, -10    ; immediate form: t - 10
        IADD R4, R3, R1     ; register form: t - 3
        FADD32I R5, RZ, 0.5
        ISETP.LT P0, R8, 3  ; immediate form: lanes 0..2
        ISETP.LT P1, R8, R1 ; register form: lanes 0..6
        SSY join
        @P2 BRA join        ; taken by no lane
        BRA next            ; bare BRA: taken by every lane
        MOV R1, 99          ; skipped
next:   CLOCK R6            ; 10 instructions issued before it
        NOP.S               ; pops the SYNC token
join:   STSLOT [R2], R4     ; register form: slot t
        STSLOT [40], R5     ; immediate form: slot 40
        EXIT
"""


class TestPredicatedBranch:
    def test_none_taken_falls_through(self):
        state, program = branch_state(pc=5, target=2)
        assert branch(state, program, predicate=0) == ((), None)
        assert state.pc == 6
        assert state.active_mask == FULL
        assert state.stack.depth == 0

    def test_all_taken_jumps_without_push(self):
        state, program = branch_state(pc=5, target=2)
        assert branch(state, program, predicate=FULL) == ((), None)
        assert state.pc == 2
        assert state.active_mask == FULL
        assert state.stack.depth == 0

    def test_partial_pushes_not_taken_lanes(self):
        state, program = branch_state(pc=9, target=2)
        events, token = branch(state, program, predicate=0x7FFFFFFF)
        assert events == (StackEvent.DIV_PUSH,)
        assert token == Token(0x80000000, TokenKind.DIV, 10)
        assert state.active_mask == 0x7FFFFFFF
        assert state.pc == 2

    def test_partial_with_masked_warp(self):
        state, program = branch_state(pc=9, target=2)
        state.active_mask = 0x7FFFFFFF
        events, token = branch(state, program, predicate=0x3FFFFFFF)
        assert events == (StackEvent.DIV_PUSH,)
        assert token.mask == 0x40000000
        assert state.active_mask == 0x3FFFFFFF

    def test_predicate_restricted_to_active_lanes(self):
        state, program = branch_state(pc=0, target=1)
        state.active_mask = 0x0000FFFF
        # every *active* lane takes it: uniform
        assert branch(state, program, predicate=FULL) == ((), None)
        assert state.active_mask == 0x0000FFFF

    def test_mask_partition_property(self):
        # pushed mask and surviving mask partition the incoming mask
        state, program = branch_state(pc=0, target=1)
        for active, pred in [(FULL, 0x13579BDF), (0xFF00FF00, 0x0F0F0F0F), (0x3, 0x1)]:
            state.active_mask = active
            state.pc = 0
            events, token = branch(state, program, pred)
            taken = pred & active
            if 0 < taken < active:
                assert events == (StackEvent.DIV_PUSH,)
                assert token.mask & state.active_mask == 0
                assert token.mask | state.active_mask == active
                state.stack.pop()


class TestStep:
    def test_ssy_pushes_current_mask_and_target(self):
        state, program = fresh_state("SSY 2\nNOP.S\nEXIT")
        events, token = step(state, program)
        assert events == (StackEvent.SYNC_PUSH,)
        assert token == Token(FULL, TokenKind.SYNC, 2)
        assert state.pc == 1

    def test_pop_restores_mask_and_pc_then_executes_carrier(self):
        state, program = fresh_state("IADD.S R1, R1, 1\nEXIT")
        state.stack.push(Token(0x40000000, TokenKind.DIV, 0))
        step(state, program)
        assert state.active_mask == 0x40000000
        assert state.pc == 0  # token pointed back at the carrier
        # carrier executed under the restored mask: only lane 30 written
        r1 = unpack_row(state.regs[1])
        assert r1[30] == 1
        assert sum(r1) == 1

    def test_sync_pop_restores_full_mask(self):
        state, program = fresh_state("NOP.S\nEXIT")
        state.active_mask = 0x40000000
        state.stack.push(Token(FULL, TokenKind.SYNC, 1))
        events, token = step(state, program)
        assert events == (StackEvent.SYNC_POP,)
        assert token == Token(FULL, TokenKind.SYNC, 1)
        assert state.active_mask == FULL
        assert state.pc == 1

    def test_spilling_push_and_reloading_pop_return_both_events(self):
        state, program = fresh_state("@P0 BRA 2\nNOP.S\nEXIT", profile=SMALL_STACK)
        for pc in range(4):
            state.stack.push(Token(FULL, TokenKind.SYNC, pc))
        state.preds[0] = 0x1
        events, token = step(state, program)
        assert events == (StackEvent.SPILL_STORE, StackEvent.DIV_PUSH)
        assert token == Token(FULL - 1, TokenKind.DIV, 1)
        assert (state.stack.onchip_count, state.stack.spilled_count) == (3, 2)
        pops = [(1, TokenKind.DIV), (3, TokenKind.SYNC), (2, TokenKind.SYNC), (1, TokenKind.SYNC)]
        for pc, kind in pops:  # the fourth pop finds the on-chip segment empty
            state.pc = 1
            events, token = step(state, program)
            assert (token.kind, token.pc) == (kind, pc)
        assert events == (StackEvent.SPILL_LOAD, StackEvent.SYNC_POP)
        assert (state.stack.onchip_count, state.stack.spilled_count) == (1, 0)

    def test_isetp_on_a_float_row_compares_active_lanes_only(self):
        state, program = fresh_state(
            "FADD32I R1, RZ, 2.5\nISETP.LT P0, R1, 3\nISETP.LT P1, R2, R1\nEXIT",
            registers={"R2": [t / 2 for t in range(32)]})  # lane 5 holds 2.5 too
        active, old = 0x00FF00F3, 0x5A5A5A5A
        state.active_mask = active
        state.preds[0] = state.preds[1] = old
        for _ in range(3):
            step(state, program)
        r1 = unpack_row(state.regs[1])
        assert type(state.regs[1]) is list  # the list form of a row
        assert r1 == [2.5 if active >> t & 1 else 0 for t in range(32)]
        for pred, less in [(0, lambda t: r1[t] < 3), (1, lambda t: t / 2 < r1[t])]:
            lt = sum(1 << t for t in range(32) if active >> t & 1 and less(t))
            assert state.preds[pred] == (old & ~active & FULL) | lt
        assert state.preds[0] & active == active and state.preds[1] & active == 0b10011

    def test_pop_on_empty_stack_raises(self):
        state, program = fresh_state("NOP.S\nEXIT")
        with pytest.raises(ModelViolation, match="empty synchronization stack"):
            step(state, program)

    def test_pc_out_of_range_raises(self):
        state, program = fresh_state()
        state.pc = 40
        with pytest.raises(ModelViolation, match="out of range"):
            step(state, program)


class TestRun:
    def test_budget_exceeded(self):
        with pytest.raises(RunawayLoopError):
            ws.run(ws.parse_program("loop: BRA loop\nEXIT"), budget=1000)

    def test_zero_budget_runs_nothing(self):
        # The CLI rejects --budget below 1; the library treats 0 as an
        # empty budget, which benchmarks/layers.py uses to time a prefix.
        with pytest.raises(RunawayLoopError, match="no EXIT after 0"):
            ws.run(ws.parse_program("EXIT"), budget=0)

    def test_exit_with_tokens_left_is_an_error(self):
        with pytest.raises(ModelViolation, match="EXIT with 1 tokens"):
            ws.run(ws.parse_program("SSY 1\nEXIT"))

    def test_write_masking_under_partial_launch_mask(self):
        result = checked_run(ws.parse_program("MOV R1, 5\nEXIT"),
                             ws.LaunchConfig(active_mask=0x0000FFFF))
        assert result.register("R1") == (5,) * 16 + (0,) * 16
        assert result.final_active_mask == 0x0000FFFF

    def test_rz_reads_zero_and_drops_writes(self):
        result = checked_run(ws.parse_program("""
            MOV R1, 7
            IADD RZ, R1, 1   ; discarded
            IADD R2, RZ, 3   ; RZ reads as 0
            EXIT
        """))
        assert result.register("RZ") == (0,) * 32
        assert result.register("R2") == (3,) * 32

    def test_pt_reads_true_and_drops_writes(self):
        result = checked_run(ws.parse_program("""
            ISETP.LT PT, R0, -5   ; false everywhere, but PT is immutable
            @PT BRA skip
            MOV R1, 9             ; must be skipped
        skip: EXIT
        """))
        assert result.register("R1") == (0,) * 32

    def test_rz_row_is_not_a_result_register(self):
        result = checked_run(ws.parse_program(".registers 3\nMOV R2, 5\nMOV RZ, 6\nEXIT"))
        assert result.registers == ((0,) * 32, (0,) * 32, (5,) * 32)
        assert result.register("RZ") == (0,) * 32

    def test_int32_wraparound(self):
        result = checked_run(ws.parse_program("""
            MOV R1, 2147483647
            IADD R1, R1, 1
            EXIT
        """))
        assert result.register("R1") == (-2147483648,) * 32

    def test_iadd_register_register(self):
        result = checked_run(
            ws.parse_program("IADD R3, R1, R2\nEXIT"),
            ws.LaunchConfig(registers={"R1": list(range(32)), "R2": [10] * 32}),
        )
        assert result.register("R3") == tuple(10 + t for t in range(32))

    def test_float32_rounding_matches_numpy(self):
        import numpy as np

        result = checked_run(ws.parse_program("""
            FADD32I R0, R0, 1.3332999944686889648
            FADD32I R0, R0, 1.3332999944686889648
            EXIT
        """))
        expected = float(np.float32(np.float32(1.3332999944686889648) +
                                    np.float32(1.3332999944686889648)))
        assert result.register("R0") == (expected,) * 32

    def test_clock_reads_counter_at_issue(self):
        result = checked_run(ws.parse_program("CLOCK R1\nNOP\nCLOCK R2\nEXIT"))
        assert result.register("R1") == (0,) * 32
        assert result.register("R2") == (2,) * 32  # issue cost 1 per instruction

    def test_store_slot_register_and_immediate(self):
        result = checked_run(ws.parse_program("""
            MOV R1, 4
            MOV R2, 99
            STSLOT [R1], R2
            STSLOT [0], R1
            EXIT
        """))
        assert result.slots[0] == {4: 99, 0: 4}
        assert result.slots[31] == {4: 99, 0: 4}

    @pytest.mark.parametrize("setup", [
        "FADD32I R1, RZ, inf",
        "FADD32I R1, RZ, inf\nFADD32I R1, R1, -inf",
        "MOV R1, -3",
        "FADD32I R1, RZ, 1.5",
    ], ids=["inf", "nan", "negative", "fraction"])
    def test_store_slot_index_must_be_a_non_negative_integer(self, setup):
        with pytest.raises(ModelViolation, match="slot index"):
            ws.run(ws.parse_program(f"{setup}\nMOV R0, 7\nSTSLOT [R1], R0\nEXIT"))

    @pytest.mark.parametrize("add", ["IADD R2, R1, 1", "IADD R2, R3, R1"])
    def test_iadd_of_a_float_is_a_model_violation(self, add):
        with pytest.raises(ModelViolation, match="IADD"):
            ws.run(ws.parse_program(f"FADD32I R1, RZ, 1.5\n{add}\nEXIT"))

    @pytest.mark.parametrize("add", ["IADD R2, R1, 1", "IADD R2, R1, R7"])
    def test_iadd_ignores_a_float_in_an_inactive_lane(self, add):
        # Lanes 0..15 write a float to R1 on the taken path; the IADD runs
        # afterwards on lanes 16..31 only, whose R1 still holds 0.
        result = checked_run(ws.parse_program(INACTIVE_FLOAT_IADD.format(add=add)),
                             ws.LaunchConfig(registers={"R5": list(range(32)), "R7": [1] * 32}))
        assert result.register("R2") == (0,) * 16 + (1,) * 16
        assert result.register("R1") == (1.5,) * 16 + (0,) * 16

    @pytest.mark.parametrize("imm", ["3e38", "-3e38"])
    def test_fadd_outside_float32_range_is_a_model_violation(self, imm):
        program = ws.parse_program(f"FADD32I R1, RZ, {imm}\nFADD32I R1, R1, {imm}\nEXIT")
        with pytest.raises(ModelViolation, match="float32 range"):
            ws.run(program)

    def test_fadd_ignores_an_overflow_in_an_inactive_lane(self):
        # Lanes 0..15 hold 3e38 in R1 when lanes 16..31 alone add 3e38 to it.
        result = checked_run(ws.parse_program(INACTIVE_LARGE_FADD),
                             ws.LaunchConfig(registers={"R5": list(range(32))}))
        large = ws.f32(3e38)
        assert result.register("R2") == (0,) * 16 + (large,) * 16
        assert result.register("R1") == (large,) * 16 + (0,) * 16

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_launch_float_outside_float32_is_a_program_error(self, value):
        launch = ws.LaunchConfig(registers={"R1": [0.0] * 31 + [value]})
        with pytest.raises(ProgramError, match="launch register R1 .*float32 range"):
            ws.run(ws.parse_program("NOP\nEXIT"), launch)

    @pytest.mark.parametrize("value,message", [
        (float("nan"), "NaN"), (1 << 31, "32-bit signed"), (-(1 << 31) - 1, "32-bit signed"),
        (99999999999, "32-bit signed"), (0xFFFFFFFF, "32-bit signed")])
    def test_launch_value_follows_the_immediate_rules(self, value, message):
        for fill in (0, 0.0):
            bad = ws.LaunchConfig(registers={"R1": [fill] * 31 + [value]})
            with pytest.raises(ProgramError, match=f"launch register R1 .*{message}"):
                ws.run(ws.parse_program("NOP\nEXIT"), bad)
        edges = [-(1 << 31), (1 << 31) - 1, float("inf"), float("-inf")] * 8
        result = ws.run(ws.parse_program("MOV R2, R1\nEXIT"),
                        ws.LaunchConfig(registers={"R1": edges}))
        assert result.register("R2") == tuple(edges)

    @pytest.mark.parametrize("value,want", [
        (np.float32(1.5), 1.5), (Fraction(3, 2), 1.5), (Fraction(-5), -5.0),
        (np.float64(0.1), ws.f32(0.1)), (np.int64(-7), -7), (np.uint8(200), 200),
        (True, 1)])
    def test_launch_values_keep_their_number_type(self, value, want):
        program = ws.parse_program("MOV R2, R1\nEXIT")
        for first in (value, 0, 0.25):
            row = [first] * 31 + [value]
            got = ws.run(program, ws.LaunchConfig(registers={"R1": row})).register("R2")
            assert got[31] == want and type(got[31]) is type(want)
            if first is not value:
                assert got[:31] == tuple(row[:31])

    @pytest.mark.parametrize("value", [Decimal("2.7"), "7", 1 + 0j, None])
    def test_launch_value_that_is_no_real_number_is_a_program_error(self, value):
        program = ws.parse_program("NOP\nEXIT")
        for row in ([value] * 32, [0] * 31 + [value], [0.5] + [value] * 31):
            with pytest.raises(ProgramError) as err:
                ws.run(program, ws.LaunchConfig(registers={"R3": row}))
            assert str(err.value) == (f"launch register R3 holds {value!r}, "
                                      "not an integer or a real number")

    def test_launch_rows_equal_their_lane_by_lane_conversion(self):
        rng = random.Random(5)
        pool = [0, -1, 7, (1 << 31) - 1, -(1 << 31), 0.1, -2.5, 1e30, float("inf"), True]
        for _ in range(200):
            row = [rng.choice(pool) for _ in range(32)]
            if rng.random() < 0.3:
                row = [float(v) for v in row]
            want = tuple(ws.f32(v) if isinstance(v, float) else int(v) for v in row)
            got = ws.run(ws.parse_program("MOV R2, R1\nEXIT"),
                         ws.LaunchConfig(registers={"R1": row})).register("R2")
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_every_opcode_executes(self):
        program = ws.parse_program(EVERY_OPCODE)
        assert {ins.opcode for ins in program.instructions} == set(ws.Opcode)
        launch = ws.LaunchConfig(registers={"R8": list(range(32))})
        state = WarpState(program, launch)
        while not state.halted:
            step(state, program)
        lane = range(32)
        registers = [(0,) * 32] * 16
        registers[1:7] = [(7,) * 32, tuple(lane), tuple(t - 10 for t in lane),
                          tuple(t - 3 for t in lane), (0.5,) * 32, (10,) * 32]
        registers[8] = tuple(lane)
        assert [tuple(unpack_row(reg)) for reg in state.regs[:-1]] == registers
        assert state.preds[:-1] == [0b111, 0x7F, 0, 0, 0, 0, 0]
        assert state.slots == [{t: t - 3, 40: 0.5} for t in lane]
        result = checked_run(program, launch)
        assert list(result.registers) == registers and list(result.slots) == state.slots
        assert result.cycles == state.cycle == 15

    def test_spill_records_carry_no_token(self):
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(9).bounds, SMALL_STACK))
        assert result.spill_stores == result.spill_loads == 3
        spills = [r for r in result.event_log if r.kind >= StackEvent.SPILL_STORE]
        moves = {r.ordinal: r for r in result.event_log if r.kind < StackEvent.SPILL_STORE}
        assert len(spills) == 6 and len(moves) == result.events.pushes + result.pops
        for spill in spills:
            assert (spill.token_mask, spill.token_pc) == (None, None)
            move = moves[spill.ordinal]
            assert move.token_mask is not None and move.token_pc is not None
            pushes = (StackEvent.SYNC_PUSH, StackEvent.DIV_PUSH)
            assert (move.kind in pushes) == (spill.kind is StackEvent.SPILL_STORE)
        assert all(r.token_mask is not None for r in moves.values())

    def test_counters_and_ordinals(self):
        result = checked_run(ws.parse_program("""
            SSY 4
            @P0 BRA 3
            NOP
            NOP.S
            EXIT
        """))
        assert result.executed_instructions == 5
        assert result.executed_branches == 1
        assert result.events.sync_pushes == 1 and result.events.sync_pops == 1
        assert ((0, 0),) + tuple((m[0], m[4]) for m in result.moves) == ((0, 0), (1, 1), (4, 0))

    def test_determinism_bit_identical(self):
        launch = ws.kernel_launch("double", ws.bound_pattern(9).bounds)
        first = ws.run(ws.kernel_program("double"), launch)
        second = ws.run(ws.kernel_program("double"), launch)
        assert first == second

    def test_launch_validation(self):
        program = ws.parse_program("NOP\nEXIT")
        with pytest.raises(ProgramError, match="32 values"):
            ws.run(program, ws.LaunchConfig(registers={"R1": [1, 2, 3]}))
        with pytest.raises(ProgramError, match="RZ"):
            ws.run(program, ws.LaunchConfig(registers={"RZ": [0] * 32}))
        with pytest.raises(ProgramError, match="^launch active mask 0x0 invalid$"):
            ws.run(program, ws.LaunchConfig(active_mask=0))
        with pytest.raises(ProgramError, match="active mask"):
            ws.run(program, ws.LaunchConfig(active_mask=1 << 32))

    def test_two_launch_names_for_one_register_are_rejected(self):
        program = ws.parse_program("MOV R2, R1\nEXIT")
        for names in (("r1", "R1"), ("R1", " R1"), ("R01", "R1")):
            registers = {name: [value] * 32 for value, name in enumerate(names)}
            with pytest.raises(ProgramError, match=f"{names[0]} and {names[1]} .*R1"):
                ws.run(program, ws.LaunchConfig(registers=registers))
        result = checked_run(program, ws.LaunchConfig(registers={"R1": [3] * 32, "R2": [4] * 32}))
        assert result.register("R2") == (3,) * 32

    def test_lanes_cache_stays_within_its_cap(self):
        # Lane t adds its own random step to R1, so the sign mask of R1 differs
        # on almost every iteration, and STSLOT looks up each mask's lanes.
        iterations = core._LANES_CACHE_MAX + 200
        program = ws.parse_program(f"""
        loop:   IADD R1, R1, R2
                ISETP.LT P0, R1, 0
                SSY next
                @P0 BRA store
                BRA unwind
        store:  STSLOT [0], R1
        unwind: NOP.S
        next:   IADD R3, R3, 1
                ISETP.LT P1, R3, {iterations}
                @P1 BRA loop
                EXIT
        """)
        rng = random.Random(0)
        steps = [rng.randrange(-2**31, 2**31) for _ in range(32)]
        result = checked_run(program, ws.LaunchConfig(registers={"R2": steps}))
        masks = {after for _, events, _, after, _, _ in result.moves
                 if StackEvent.DIV_PUSH in events}
        assert len(masks) > core._LANES_CACHE_MAX
        assert 0 < len(core._lanes_cache) <= core._LANES_CACHE_MAX

    def test_trace_records_shape(self):
        result = checked_run(ws.parse_program("SSY 2\nNOP.S\nEXIT"), record_trace=True)
        assert [r.opcode for r in result.trace] == ["SSY", "NOP.S", "EXIT"]
        assert result.trace[0].events == ("SYNC_PUSH",)
        assert result.trace[1].events == ("SYNC_POP",)
        assert [r.depth for r in result.trace] == [1, 0, 0]
        assert [r.ordinal for r in result.trace] == [1, 2, 3]


class TestVerifyResult:
    def test_accepts_good_runs(self):
        checked_run(ws.kernel_program("single"),
                    ws.kernel_launch("single", ws.bound_pattern(17).bounds))

    def test_rejects_tampered_results(self):
        import dataclasses

        result = ws.run(ws.kernel_program("single"),
                        ws.kernel_launch("single", ws.bound_pattern(3).bounds))
        bad = dataclasses.replace(result, max_depth=result.max_depth + 1)
        with pytest.raises(ModelViolation):
            ws.verify_result(bad)
        bad = dataclasses.replace(result, final_active_mask=1)
        with pytest.raises(ModelViolation):
            ws.verify_result(bad)
        bad = dataclasses.replace(
            result, events=dataclasses.replace(result.events, spill_stores=1))
        with pytest.raises(ModelViolation):
            ws.verify_result(bad)
        bad = dataclasses.replace(result, events=dataclasses.replace(
            result.events, sync_pushes=result.events.sync_pushes + 1))
        with pytest.raises(ModelViolation) as err:
            ws.verify_result(bad)
        assert str(err.value) == "push/pop imbalance: 5 != 4"


    @pytest.mark.parametrize("message,tamper", [
        ("depth history jumps from 0 to 2",
         lambda moves: _edit_first(moves, StackEvent.SYNC_PUSH, "depth", lambda m: 2)),
        ("must start and end at depth 0", lambda moves: moves[:-1]),
        ("inconsistent with push/pop counters", lambda moves: ()),
        ("DIV token with empty mask",
         lambda moves: _edit_first(moves, StackEvent.DIV_PUSH, "token",
                                   lambda m: m["token"]._replace(mask=0))),
        ("overlaps the surviving active mask",
         lambda moves: _edit_first(moves, StackEvent.DIV_PUSH, "token", lambda m: m["token"]
                                   ._replace(mask=m["token"].mask | m["active_after"]))),
        # A move's mask before it is the previous move's active_after, here that of
        # the SYNC push just ahead of the first DIV push.
        ("does not partition",
         lambda moves: _edit_first(moves, StackEvent.SYNC_PUSH, "active_after",
                                   lambda m: m["active_after"] ^ 1)),
        ("did not restore the token mask",
         lambda moves: _edit_first(moves, StackEvent.SYNC_POP, "active_after",
                                   lambda m: m["active_after"] ^ 1)),
        ("did not restore the token mask",
         lambda moves: _edit_first(moves, StackEvent.DIV_POP, "active_after",
                                   lambda m: m["active_after"] ^ 1)),
    ], ids=["jump", "end-depth", "counters", "empty-div", "overlap", "partition", "sync-pop",
            "div-pop"])
    def test_rejects_a_tampered_move_log(self, message, tamper):
        import dataclasses

        result = ws.verify_result(ws.run(ws.kernel_program("single"),
                                         ws.kernel_launch("single", ws.bound_pattern(3).bounds)))
        bad = dataclasses.replace(result, moves=tamper(result.moves))
        assert bad.moves != result.moves
        with pytest.raises(ModelViolation, match=message):
            ws.verify_result(bad)


MOVE_FIELDS = ("ordinal", "events", "token", "active_after", "depth", "cycle")


def _edit_first(moves, kind, field, edit):
    """``moves`` with ``field`` of the first move that raised ``kind`` set to ``edit(move)``.

    ``edit`` reads the move as a dict of its fields by name.
    """
    i = next(i for i, move in enumerate(moves) if kind in move[1])
    move = dict(zip(MOVE_FIELDS, moves[i]))
    move[field] = edit(move)
    return moves[:i] + (tuple(move.values()),) + moves[i + 1:]

"""Warp interpreter semantics: branching, pop-bit, masking, errors."""

import dataclasses
import gc
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import warpsim as ws
from warpsim import core
from warpsim.core import MoveLog, WarpState, step, unpack_row
from warpsim.errors import ModelViolation, ProgramError, RunawayLoopError
from warpsim.stack import MOVE_EVENTS, StackEvent, Token, TokenKind

from conftest import checked_run, stepped

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
        assert state.tokens == []

    def test_all_taken_jumps_without_push(self):
        state, program = branch_state(pc=5, target=2)
        assert branch(state, program, predicate=FULL) == ((), None)
        assert state.pc == 2
        assert state.active_mask == FULL
        assert state.tokens == []

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
                state.tokens.pop()


class TestStep:
    def test_ssy_pushes_current_mask_and_target(self):
        state, program = fresh_state("SSY 2\nNOP.S\nEXIT")
        events, token = step(state, program)
        assert events == (StackEvent.SYNC_PUSH,)
        assert token == Token(FULL, TokenKind.SYNC, 2)
        assert state.pc == 1

    def test_pop_restores_mask_and_pc_then_executes_carrier(self):
        state, program = fresh_state("IADD.S R1, R1, 1\nEXIT")
        state.tokens.append(Token(0x40000000, TokenKind.DIV, 0))
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
        state.tokens.append(Token(FULL, TokenKind.SYNC, 1))
        events, token = step(state, program)
        assert events == (StackEvent.SYNC_POP,)
        assert token == Token(FULL, TokenKind.SYNC, 1)
        assert state.active_mask == FULL
        assert state.pc == 1

    def test_spilling_push_and_reloading_pop_return_both_events(self):
        state, program = fresh_state("@P0 BRA 2\nNOP.S\nEXIT", profile=SMALL_STACK)
        state.tokens.extend(Token(FULL, TokenKind.SYNC, pc) for pc in range(4))  # on-chip: full
        state.preds[0] = 0x1
        events, token = step(state, program)
        assert events == (StackEvent.SPILL_STORE, StackEvent.DIV_PUSH)
        assert token == Token(FULL - 1, TokenKind.DIV, 1)
        assert (len(state.tokens), state.spilled) == (5, 2)
        pops = [(1, TokenKind.DIV), (3, TokenKind.SYNC), (2, TokenKind.SYNC), (1, TokenKind.SYNC)]
        for pc, kind in pops:  # the fourth pop finds the on-chip segment empty
            state.pc = 1
            events, token = step(state, program)
            assert (token.kind, token.pc) == (kind, pc)
        assert events == (StackEvent.SPILL_LOAD, StackEvent.SYNC_POP)
        assert (len(state.tokens), state.spilled) == (1, 0)

    def test_isetp_on_a_float_row_compares_active_lanes_only(self):
        state, program = fresh_state(
            "FADD32I R1, RZ, 2.5\nISETP.LT P0, R1, 3\nISETP.LT P1, R2, R1\n"
            "ISETP.LT P2, R1, -2147483648\nISETP.LT P3, R1, 2147483647\nEXIT",
            registers={"R2": [t / 2 for t in range(32)]})  # lane 5 holds 2.5 too
        active, old = 0x00FF00F3, 0x5A5A5A5A
        state.active_mask = active
        state.preds[:4] = [old] * 4
        for _ in range(5):
            step(state, program)
        r1 = unpack_row(state.regs[1])
        assert type(state.regs[1]) is list  # the list form of a row
        assert r1 == [2.5 if active >> t & 1 else 0 for t in range(32)]
        for pred, less in [(0, lambda t: r1[t] < 3), (1, lambda t: t / 2 < r1[t]),
                           (2, lambda t: r1[t] < -2**31), (3, lambda t: r1[t] < 2**31 - 1)]:
            lt = sum(1 << t for t in range(32) if active >> t & 1 and less(t))
            assert state.preds[pred] == (old & ~active & FULL) | lt
        assert state.preds[0] & active == active and state.preds[1] & active == 0b10011
        assert state.preds[2] & active == 0 and state.preds[3] & active == active

    def test_a_popped_div_token_logs_move_code_5(self):
        state, program = fresh_state("NOP.S\nEXIT")
        state.active_mask = 0xFFFF0000
        state.tokens.append(Token(0x0000FFFF, TokenKind.DIV, 1))
        events, token = step(state, program)
        assert events is MOVE_EVENTS[5]  # the log's events are the code's very tuple
        assert token == Token(0x0000FFFF, TokenKind.DIV, 1)
        assert (state.tokens, state.active_mask, state.pc) == ([], 0x0000FFFF, 1)

    def test_pop_on_empty_stack_raises(self):
        state, program = fresh_state("NOP\nIADD.S R1, R1, 1\nEXIT")
        step(state, program)
        state.active_mask = 0x00FF00FF

        def snapshot():
            return (state.pc, state.active_mask, state.cycle, state.halted, list(state.tokens),
                    list(state.regs), list(state.preds), repr(state.slots))

        before = snapshot()
        with pytest.raises(ModelViolation, match="empty synchronization stack"):
            step(state, program)
        assert snapshot() == before  # the raise leaves the state as it was

    def test_a_carrier_that_raises_after_its_pop_keeps_the_popped_mask_and_pc(self):
        state, program = fresh_state("FADD32I.S R1, R1, 3e38\nEXIT",
                                     registers={"R1": [3e38] * 32})
        state.active_mask = 0xFFFF0000
        state.tokens.append(Token(0x0000FFFF, TokenKind.DIV, 1))
        with pytest.raises(ModelViolation, match="outside the float32 range"):
            step(state, program)
        assert (state.pc, state.active_mask, state.cycle) == (1, 0x0000FFFF, 0)
        assert state.tokens == [] and not state.halted
        assert unpack_row(state.regs[1]) == [ws.f32(3e38)] * 32  # not written

    def test_a_stepped_exit_halts_and_charges_one_cycle(self):
        state, program = fresh_state("NOP\nEXIT")
        assert step(state, program) == ((), None)
        assert not state.halted
        assert step(state, program) == ((), None)
        assert state.halted
        assert (state.pc, state.cycle) == (1, 2)
        with pytest.raises(ModelViolation, match="step after EXIT: the warp has halted"):
            step(state, program)
        assert state.halted
        assert (state.pc, state.cycle) == (1, 2)

    def test_pc_out_of_range_raises(self):
        state, program = fresh_state()
        state.pc = 40
        with pytest.raises(ModelViolation, match="out of range"):
            step(state, program)


class TestTheWarpOwnsItsStack:
    """A run or a step moves the tokens of ``WarpState.tokens`` and builds no SyncStack."""

    @pytest.fixture(autouse=True)
    def refuse_sync_stacks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SyncStack was constructed")
        monkeypatch.setattr(ws.stack.SyncStack, "__init__", refuse)

    @pytest.mark.parametrize("kernel", list(ws.KernelId))
    def test_a_run_of_each_kernel(self, kernel):
        launch = ws.kernel_launch(kernel, ws.bound_pattern(9).bounds, SMALL_STACK)
        result = checked_run(ws.kernel_program(kernel), launch)
        assert result.spill_stores == result.spill_loads > 0

    def test_a_step_sequence(self):
        state, program = fresh_state("SSY 3\n@P0 BRA 2\nNOP.S\nEXIT")
        state.preds[0] = 0x0000FFFF
        moves = []
        while not state.halted:
            moves.append(step(state, program)[0])
        E = StackEvent
        assert moves == [(E.SYNC_PUSH,), (E.DIV_PUSH,), (E.DIV_POP,), (E.SYNC_POP,), ()]
        assert (state.tokens, state.spilled, state.active_mask) == ([], 0, FULL)


class TestRun:
    def test_budget_exceeded(self):
        with pytest.raises(RunawayLoopError):
            ws.run(ws.parse_program("loop: BRA loop\nEXIT"), budget=1000)

    def test_zero_budget_runs_nothing(self):
        # The CLI rejects --budget below 1; the library treats 0 as an
        # empty budget, which benchmarks/layers.py uses to time a prefix.
        with pytest.raises(RunawayLoopError, match="no EXIT after 0"):
            ws.run(ws.parse_program("EXIT"), budget=0)

    @pytest.mark.parametrize("budget,message", [
        (2.5, "budget 2.5 is not an integer"), ("3", "budget '3' is not an integer"),
        (True, "budget True is not an integer"), (None, "budget None is not an integer"),
        (-1, "budget -1 must be >= 0")])
    def test_a_budget_that_is_no_int_at_least_zero_is_a_program_error(self, budget, message):
        with pytest.raises(ProgramError) as err:
            ws.run(ws.parse_program("EXIT"), budget=budget)
        assert str(err.value) == message

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
        assert result.register("R2") == (2,) * 32  # one cycle per instruction

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

    @pytest.mark.parametrize("add, value", [
        ("IADD R2, R1, 1", 1), ("IADD R2, R1, R7", 1),
        ("IADD R2, R1, -2147483648", -2**31), ("IADD R2, R1, 2147483647", 2**31 - 1)])
    def test_iadd_ignores_a_float_in_an_inactive_lane(self, add, value):
        # Lanes 0..15 write a float to R1 on the taken path; the IADD runs
        # afterwards on lanes 16..31 only, whose R1 still holds 0.
        result = checked_run(ws.parse_program(INACTIVE_FLOAT_IADD.format(add=add)),
                             ws.LaunchConfig(registers={"R5": list(range(32)), "R7": [1] * 32}))
        assert result.register("R2") == (0,) * 16 + (value,) * 16
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

    def test_lanes_lists_the_set_bits_of_any_mask(self):
        def want(mask):
            return tuple(t for t in range(32) if mask >> t & 1)
        rng = random.Random(11)
        one_byte = [b << 8 * k for k in range(4) for b in range(256)]
        spread = [rng.getrandbits(32) & rng.getrandbits(32) for _ in range(1500)]
        wide = [-1, -2, 1 << 40 | 0x81]  # as before: the lanes of the low 32 bits
        masks = one_byte + spread + wide + [0, FULL] + [rng.getrandbits(32) for _ in range(1500)]
        core._lanes_cache.clear()
        for mask in masks + masks[:300]:  # the first 300 again, after the cache has cleared
            assert core.lanes(mask) == want(mask), hex(mask)
        assert len(set(masks)) > core._LANES_CACHE_MAX >= len(core._lanes_cache)

    def test_lane_list_misses_leave_no_freed_tuples_behind(self):
        # As the twenty-lane FADD32I test: CPython 3.11 keeps up to 2,000 freed
        # 20-tuples and reuses none.  Each mask has 20 lanes in its low three
        # bytes and 1 to 8 in the top byte, so a miss that added byte tuples
        # left to right would free a 20-tuple.  The masks have 21 to 28 lanes,
        # because any cached 20-lane result parks when the cache clears.
        rng = random.Random(3)
        masks = set()
        while len(masks) < 2_000:
            masks.add(sum(1 << t for t in rng.sample(range(24), 20)) | rng.randrange(1, 256) << 24)

        def misses():
            core._lanes_cache.clear()
            for mask in masks:
                core.lanes(mask)
            core._lanes_cache.clear()

        misses()
        gc.collect()
        tracemalloc.start()
        try:
            misses()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 50_000

    @pytest.mark.parametrize("row,form,want", [
        ([float("inf"), float("-inf")] + [0.5] * 30, list, None),
        ([-0.0] * 32, list, None),
        ([0.1] * 32, list, [0.10000000149011612] * 32),
        ([1, 0.5] * 16, list, None),
        ([0.5] + [1] * 31, list, None),
        ([True, False] * 16, int, [1, 0] * 16),
        ([True] + [0.5] * 31, list, [1] + [0.5] * 31),
        ([(1 << 31) - 1, -(1 << 31)] * 16, int, None),
        ([(1 << 31) - 1, -(1 << 31), -0.0] + [0] * 29, list, None),
        ([float("nan")] + [0.5] * 31, "NaN", None),
        ([0.5] * 31 + [float("nan")], "NaN", None),
        ([0, float("nan")] * 16, "NaN", None),
        ([float("nan"), 1 << 31] + [0.5] * 30, "NaN", None),
        ([1 << 31, float("nan")] + [0.5] * 30, "2147483648, outside the 32-bit signed range", None),
        ([0] * 31 + [1 << 31], "2147483648, outside the 32-bit signed range", None),
        ([0] * 31 + [-(1 << 31) - 1], "-2147483649, outside the 32-bit signed range", None),
        ([0.5] * 31 + [1 << 31], "2147483648, outside the 32-bit signed range", None),
        ([3.5e38] + [0.5] * 31, "a value outside the float32 range", None),
        ([float("nan"), 1e39] + [0.5] * 30, "a value outside the float32 range", None),
        ([1, float("nan"), -1e39] + [0] * 29, "a value outside the float32 range", None),
    ], ids=["infinities", "negative-zero", "rounded", "mixed", "float-first", "bools",
            "bool-and-floats", "int32-edges", "int32-edges-and-zero", "nan-first", "nan-last",
            "nan-mixed", "nan-before-int", "int-before-nan", "int32-max+1", "int32-min-1",
            "int-in-floats", "float32-overflow", "overflow-before-nan", "overflow-mixed"])
    def test_a_launch_row_keeps_its_form_values_and_errors(self, row, form, want):
        # want: the lane values (by repr, so -0.0 and 1 against 1.0 count), or the row itself.
        if isinstance(form, str):
            with pytest.raises(ProgramError) as err:
                core._launch_row("R1", row)
            assert str(err.value) == f"launch register R1 holds {form}"
            return
        got = core._launch_row("R1", row)
        assert type(got) is form
        assert repr(list(unpack_row(got))) == repr(row if want is None else want)

    def test_trace_records_shape(self):
        result = checked_run(ws.parse_program("SSY 2\nNOP.S\nEXIT"), record_trace=True)
        assert [r.opcode for r in result.trace] == ["SSY", "NOP.S", "EXIT"]
        assert result.trace[0].events == ("SYNC_PUSH",)
        assert result.trace[1].events == ("SYNC_POP",)
        assert [r.depth for r in result.trace] == [1, 0, 0]
        assert [r.ordinal for r in result.trace] == [1, 2, 3]


# A row that mixes ints and floats, with -0.0 and both infinities.
MIXED = [-0.0, float("inf"), 7, -3, 2.5, float("-inf"), 0, 2.0 ** 100] * 4
ALTERNATE = 0x5A5A5A5A


class TestActiveLanes:
    """Under a partial mask, FADD32I and MOV of a list row write only the active lanes."""

    @pytest.mark.parametrize("source", [
        [t * 0.25 for t in range(32)],         # 32 distinct lanes: no fold
        [(t % 4) * 0.25 for t in range(32)],   # repeated lanes: a folded run
        MIXED[::-1],
    ], ids=["distinct", "folded", "mixed"])
    @pytest.mark.parametrize("text", ["FADD32I R2, R1, 1.5", "MOV R2, R1"])
    def test_inactive_lanes_keep_their_values_bit_for_bit(self, text, source):
        launch = ws.LaunchConfig(registers={"R1": source, "R2": MIXED}, active_mask=ALTERNATE)
        got = checked_run(ws.parse_program(f"{text}\nEXIT"), launch).register("R2")
        for t in range(32):
            if ALTERNATE >> t & 1:
                want = ws.f32(source[t] + 1.5) if text.startswith("FADD") else source[t]
            else:
                want = MIXED[t]
            assert repr(got[t]) == repr(want), t

    @pytest.mark.parametrize("folded", [False, True])
    def test_an_overflow_in_an_active_lane_names_its_launch_lane(self, folded):
        big = ws.f32(3e38)
        values = [float(t % 4 if folded else t) for t in range(32)]
        values[5] = values[21] = values[29] = big  # lane 5 is inactive
        launch = ws.LaunchConfig(registers={"R1": values, "R2": [0.5] * 32},
                                 active_mask=0xFFF00000)
        program = ws.parse_program("FADD32I R2, R1, 3e38\nEXIT")
        with pytest.raises(ModelViolation) as err:
            ws.run(program, launch)
        assert str(err.value) == (f"FADD32I result {big + big!r} in lane 21 "
                                  "is outside the float32 range")
        state = WarpState(program, launch)
        with pytest.raises(ModelViolation, match="in lane 21 "):
            step(state, program)
        assert state.regs[2] == [0.5] * 32 and state.pc == 0

    @pytest.mark.parametrize("mask", [ALTERNATE, FULL])
    @pytest.mark.parametrize("old", [[0.5] * 32, list(range(32))], ids=["list", "packed"])
    def test_a_copied_row_is_not_aliased(self, old, mask):
        source = [t + 0.75 for t in range(32)]
        launch = ws.LaunchConfig(registers={"R3": old, "R4": source}, active_mask=mask)
        result = checked_run(ws.parse_program(
            "MOV R3, R4\nFADD32I R4, R4, 1.0\nMOV R4, 9\nEXIT"), launch)
        assert result.register("R3") == tuple(
            source[t] if mask >> t & 1 else old[t] for t in range(32))

    def test_a_partial_fadd_of_twenty_lanes_leaves_no_freed_rows_behind(self):
        # As tests/test_fold.py: CPython 3.11 keeps up to 2,000 freed
        # 20-tuples and reuses none, so 20 active lanes add and round on 21.
        program = ws.parse_program("""
                MOV R5, 0
        loop:   FADD32I R1, R1, 0.5
                IADD R5, R5, 1
                ISETP.LT P0, R5, 3000
                @P0 BRA loop
                EXIT
        """)
        launch = ws.LaunchConfig(registers={"R1": [t + 0.25 for t in range(32)]},
                                 active_mask=(1 << 20) - 1)
        ws.run(program, launch)
        gc.collect()
        tracemalloc.start()
        try:
            ws.run(program, launch)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 50_000


class TestVerifyResult:
    def test_accepts_good_runs(self):
        checked_run(ws.kernel_program("single"),
                    ws.kernel_launch("single", ws.bound_pattern(17).bounds))

    def test_rejects_tampered_results(self):
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
        result = ws.verify_result(ws.run(ws.kernel_program("single"),
                                         ws.kernel_launch("single", ws.bound_pattern(3).bounds)))
        bad = dataclasses.replace(result, moves=packed(tamper(tuple(result.moves)), result.moves))
        assert bad.moves != result.moves
        with pytest.raises(ModelViolation, match=message):
            ws.verify_result(bad)

    @pytest.mark.parametrize("program,launch", [
        (ws.kernel_program("single"),
         ws.kernel_launch("single", ws.bound_pattern(9).bounds, SMALL_STACK)),
        (ws.parse_program("NOP\nMOV R1, 3\nEXIT"), ws.LaunchConfig()),
    ], ids=["spilling-kernel", "no-moves"])
    def test_rejects_a_cycle_count_the_move_log_does_not_give(self, program, launch):
        result = ws.verify_result(ws.run(program, launch))
        if not result.moves:  # every instruction costs one cycle
            assert result.cycles == 3
        bad = dataclasses.replace(result, cycles=result.cycles + 1)
        with pytest.raises(ModelViolation) as err:
            ws.verify_result(bad)
        assert str(err.value) == (f"cycles inconsistent with the move log: the log's prices "
                                  f"give {result.cycles}, the run counted {result.cycles + 1}")


def test_a_move_log_packs_back_from_the_tuples_it_reads_as():
    moves = ws.run(ws.kernel_program("single"),
                   ws.kernel_launch("single", ws.bound_pattern(9).bounds, SMALL_STACK)).moves
    assert len(moves.records) == 23 * len(moves) and moves.prices[7] == 1 + 31 + 44
    assert packed(list(moves), moves) == moves


@pytest.mark.parametrize("name", ["records", "prices"])
def test_a_move_log_is_frozen(name):
    moves = ws.run(ws.kernel_program("single"),
                   ws.kernel_launch("single", ws.bound_pattern(3).bounds)).moves
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(moves, name, getattr(moves, name)[:0])


@pytest.mark.parametrize("profile, prices", [
    (ws.KEPLER, (1, 1, 41, 41, 1, 32, 45, 76)),
    (SMALL_STACK, (1, 1, 41, 41, 1, 32, 45, 76)),
    (ws.MAXWELL, (1, 1, 89, 89, 1, 26, 89, 114)),
], ids=["kepler", "small-stack", "maxwell"])
def test_move_prices_by_move_code(profile, prices):
    # SYNC/DIV push, the same after a spill store, SYNC/DIV pop, the same after a spill load.
    assert profile.move_prices == prices
    result = ws.run(ws.parse_program("NOP\nEXIT"), ws.LaunchConfig(profile=profile))
    assert result.moves.prices == prices  # the run prices its moves by its launch profile


def test_a_spilling_run_records_the_depth_of_its_stack():
    program = ws.kernel_program("double")
    launch = ws.kernel_launch("double", ws.bound_pattern(9).bounds, SMALL_STACK)
    result = checked_run(program, launch)
    expected = stepped(program, launch)
    assert any(StackEvent.SPILL_STORE in move[1] for move in expected["moves"])
    assert [move[4] for move in result.moves] == [move[4] for move in expected["moves"]]
    assert result.max_depth == expected["max_depth"]


MOVE_FIELDS = ("ordinal", "events", "token", "active_after", "depth", "cycle")


def packed(moves, like):
    """``(ordinal, events, token, active_after, depth, cycle)`` tuples as a MoveLog
    with the prices of ``like``; a cycle that the prices do not give is lost."""
    return MoveLog(b"".join(
        core._RECORD.pack(ordinal, MOVE_EVENTS.index(events), token.mask, token.pc,
                          after, depth)
        for ordinal, events, token, after, depth, _ in moves), like.prices)


def _edit_first(moves, kind, field, edit):
    """``moves`` with ``field`` of the first move that raised ``kind`` set to ``edit(move)``.

    ``edit`` reads the move as a dict of its fields by name.
    """
    i = next(i for i, move in enumerate(moves) if kind in move[1])
    move = dict(zip(MOVE_FIELDS, moves[i]))
    move[field] = edit(move)
    return moves[:i] + (tuple(move.values()),) + moves[i + 1:]

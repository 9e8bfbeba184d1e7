"""32-lane warp interpreter with synchronization-stack re-convergence.

Execution follows the classic branch-synchronization-stack discipline:

* ``SSY target`` pushes a SYNC token carrying the current active mask
  and the re-convergence address, then falls through.
* A predicated branch taken by *no* active lane falls through; taken by
  *all* active lanes it just jumps; taken by a proper subset it pushes a
  DIV token holding the not-taken lanes and the fall-through address,
  masks execution down to the taken lanes, and jumps.
* An instruction with the pop-bit set first pops a token, restoring
  active mask and pc from it, and then executes as the carrier under the
  restored mask, without advancing pc afterwards.  A DIV token whose pc
  points back at the carrier therefore re-executes it, once per parked
  lane group, until the final SYNC pop re-converges the warp.
* Everything else executes lane-wise on active lanes and falls through.

Lane state is 32-bit: integer results wrap, float results round to
float32.  Inactive lanes never observe register, predicate, or slot
writes.

A register row takes one of two forms.  While every lane holds an int
it is one packed Python ``int``: lane t sits in bits 64t..64t+31 as a
uint32 two's-complement value and the upper 32 bits of each field stay
zero, so ``IADD``, ``ISETP.LT``, ``MOV``, ``CLOCK`` and masked writes
are a few big-int operations on all 32 lanes at once (SWAR, "SIMD
within a register").  A row in which some lane holds a float is a
``list`` of 32 lane values.  Rows are unpacked to lane values only by
``STSLOT``, by ``FADD32I`` reading an int row, by a masked write that
mixes the two forms, by ``IADD`` and ``ISETP.LT`` when an operand row is
a list, and for :attr:`RunResult.registers`.

A run is a pure function of (program, launch, profile); equal inputs
give bit-identical results.

A run logs one tuple per instruction that moved a stack token
(:attr:`RunResult.moves`, the run's depth history); its event log and
trace rows are views of it.  A traced run (``record_trace=True``) adds only a pc log (:class:`Trace`).

The live cycle counter implements the pop-attributed cost policy: each
instruction executes, then advances it once by the profile's issue cost
plus :attr:`ArchProfile.live_event_cycles` of each stack event it caused
(a DIV-pop carrier thus advances it by ``div_cost`` total, and spill
traffic adds its store/load legs).  ``CLOCK`` reads the counter at
issue, before the instruction's own charge.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count, islice
from numbers import Real
from typing import Mapping, NamedTuple, Union

from . import isa
from .cost import KEPLER, ArchProfile, CostEvents
from .errors import ModelViolation, ProgramError, RunawayLoopError
from .isa import Instruction, Opcode, PRED_PT, Program, REG_RZ
from .stack import StackEvent, Token, TokenKind

WARP_SIZE = 32
FULL_MASK = 0xFFFFFFFF
DEFAULT_BUDGET = 10_000_000

_MASK32 = 0xFFFFFFFF
_BIAS = 0x80000000
_ZEROS = (0,) * WARP_SIZE
_NO_EVENTS: tuple = ((), None)  # (events, token) of an instruction that moves no token
_PACK32 = struct.Struct(f"<{WARP_SIZE}f")

# Packed rows: 64-bit lane fields, value in the low 32 bits (see the module docstring).
_LANES = struct.Struct("<" + "i4x" * WARP_SIZE)  # packed row bytes <-> int32 lane values
_ROW_BYTES = _LANES.size
_ONES = sum(1 << 64 * t for t in range(WARP_SIZE))  # 1 in every lane field
_LOW = _MASK32 * _ONES                               # the 32 value bits of every field
_SIGN = _BIAS * _ONES                                # the sign bit of every field
_HIGH = _ONES << 32                                  # bit 32 of every field
# Field mask of the 8 lanes of one mask byte; four lookups build any lane mask.
_FIELD_BYTE = tuple(sum(_MASK32 << 64 * i for i in range(8) if b >> i & 1) for b in range(256))
# ISETP.LT difference byte: 1 (no borrow) means a >= b, so digit "0".
_LT_DIGITS = bytes.maketrans(b"\x00\x01", b"10")

_LANES_CACHE_MAX = 1024
_lanes_cache: dict[int, tuple[int, ...]] = {}


def lanes(mask: int) -> tuple[int, ...]:
    """Lane indices of the set bits of a 32-bit mask (bit t = lane t)."""
    cached = _lanes_cache.get(mask)
    if cached is None:
        if len(_lanes_cache) >= _LANES_CACHE_MAX:  # divergence can make up to 2**32 masks
            _lanes_cache.clear()
        cached = tuple(t for t in range(WARP_SIZE) if mask >> t & 1)
        _lanes_cache[mask] = cached
    return cached


def unpack_row(row) -> Sequence:
    """The 32 lane values of a register row: a tuple for a packed row, else the row itself."""
    if type(row) is int:
        return _LANES.unpack(row.to_bytes(_ROW_BYTES, "little"))
    return row


def _row(values: list):
    """A list of lane values as a register row: packed unless some lane holds a float."""
    try:
        return int.from_bytes(_LANES.pack(*values), "little")
    except struct.error:  # a float lane
        return values


def _field_mask(mask: int) -> int:
    """The value bits of the lane fields selected by a 32-bit lane mask."""
    table = _FIELD_BYTE
    return (table[mask & 255] | table[mask >> 8 & 255] << 512
            | table[mask >> 16 & 255] << 1024 | table[mask >> 24] << 1536)


def _wrap32(value: int) -> int:
    return ((value + _BIAS) & _MASK32) - _BIAS


@dataclass
class LaunchConfig:
    """Initial per-lane register values, active mask, and cost profile.

    ``registers`` maps register names ("R5") to 32 per-lane values; all
    unnamed registers start at 0.  This stands in for the kernel-
    parameter loads a real launch would perform.
    """

    registers: Mapping[str, Sequence[Union[int, float]]] = field(default_factory=dict)
    active_mask: int = FULL_MASK
    profile: ArchProfile = field(default_factory=lambda: KEPLER)


class WarpState:
    """Mutable execution state of one simulated warp."""

    __slots__ = ("pc", "active_mask", "launch_mask", "regs", "preds", "stack",
                 "cycle", "halted", "slots", "_issue_cost", "_event_cycles")

    def __init__(self, program: Program, launch: LaunchConfig):
        if type(launch.active_mask) is not int:
            raise ProgramError(f"launch active mask {launch.active_mask!r} is not an integer")
        if not 0 < launch.active_mask <= FULL_MASK:
            raise ProgramError(f"launch active mask {launch.active_mask:#x} invalid")
        self.pc = 0
        self.active_mask = launch.active_mask
        self.launch_mask = launch.active_mask
        self.regs: list = [0] * (program.register_file_size + 1)  # RZ (index -1) reads 0
        names: dict[int, str] = {}
        for name, values in launch.registers.items():
            index = isa.register_index(name, program.register_file_size)
            if index == REG_RZ:
                raise ProgramError("cannot assign launch values to RZ")
            if index in names:
                raise ProgramError(f"launch registers {names[index]} and {name} "
                                   f"name one register, R{index}")
            names[index] = name
            self.regs[index] = _launch_row(name, values)
        self.preds = [0] * program.predicate_file_size + [_MASK32]  # PT (index -1)
        self.stack = launch.profile.new_stack()
        self.cycle = 0
        self.halted = False
        self.slots: list[dict[int, Union[int, float]]] = [{} for _ in range(WARP_SIZE)]
        self._issue_cost = launch.profile.issue_cost
        self._event_cycles = launch.profile.live_event_cycles


def _launch_row(name: str, values: Sequence) -> Union[int, list]:
    """The register row of one launch register's values, by the immediate rules:
    int32 integers, float32 reals, no NaN (+-inf is legal)."""
    if len(values) != WARP_SIZE:
        raise ProgramError(f"launch register {name} needs {WARP_SIZE} values, got {len(values)}")
    try:
        return int.from_bytes(_LANES.pack(*values), "little")  # all int32 integers
    except struct.error:  # a lane that is no integer, or outside int32
        pass
    try:
        if {*map(type, values)} == {float}:
            row = list(_PACK32.unpack(_PACK32.pack(*values)))
        else:
            row = [_launch_value(name, value) for value in values]
    except OverflowError:
        raise ProgramError(
            f"launch register {name} holds a value outside the float32 range") from None
    for value in row:
        if value != value:
            raise ProgramError(f"launch register {name} holds NaN")
        if type(value) is int and not isa.INT32_MIN <= value <= isa.INT32_MAX:
            raise ProgramError(f"launch register {name} holds {value}, "
                               "outside the 32-bit signed range")
    return row


def _launch_value(name: str, value) -> Union[int, float]:
    """An integer through ``operator.index``, another real as a float32 float."""
    try:
        return operator.index(value)
    except TypeError:
        if not isinstance(value, Real):
            raise ProgramError(f"launch register {name} holds {value!r}, "
                               "not an integer or a real number") from None
    return isa.f32(float(value))


class EventRecord(NamedTuple):
    """One stack event and the token it moved (none for a spill), read off the move log.

    Masks and depths live in the move log itself, :attr:`RunResult.moves`.
    """

    ordinal: int
    kind: StackEvent
    token_mask: Union[int, None]
    token_pc: Union[int, None]


class TraceRecord(NamedTuple):
    """Post-instruction snapshot for trace emission."""

    ordinal: int
    pc: int
    opcode: str
    active_mask: int
    depth: int
    events: tuple[str, ...]
    cycle: int


@dataclass
class Trace(Sequence):
    """The trace of one run: a pc log plus the run's stack-move log.

    Each move marks the row of its instruction with the active mask,
    depth, events and cycle after it.  Every other row keeps the
    previous row's mask and depth (at first the launch mask and 0), has
    no events, and adds the issue cost to the previous cycle (at first 0).
    It reads as a sequence of :class:`TraceRecord`, built on first access.
    """

    pcs: list[int]
    moves: tuple[tuple, ...]
    labels: tuple[str, ...]  # opcode label by pc
    launch_mask: int
    issue_cost: int
    _records: Union[tuple[TraceRecord, ...], None] = field(
        default=None, init=False, repr=False, compare=False)

    def rows(self):
        """Yield runs ``(pcs, (active_mask, depth, event names), ordinals, cycles)``.

        A run is a stretch of event-free rows or one row with events.  All
        runs draw on one iterator over the pc log: consume each in turn.
        """
        pcs = iter(self.pcs)
        issue = self.issue_cost
        mask, depth, cycle, done = self.launch_mask, 0, 0, 0
        names: dict = {}
        for ordinal, events, _, mask_after, depth_after, cycle_after in self.moves:
            if ordinal - 1 > done:
                yield (islice(pcs, ordinal - 1 - done), (mask, depth, ()),
                       count(done + 1), count(cycle + issue, issue))
            event_names = names.get(events)
            if event_names is None:
                event_names = names[events] = tuple([_EVENT_NAMES[e] for e in events])
            yield ((next(pcs),), (mask_after, depth_after, event_names),
                   (ordinal,), (cycle_after,))
            mask, depth, cycle, done = mask_after, depth_after, cycle_after, ordinal
        yield pcs, (mask, depth, ()), count(done + 1), count(cycle + issue, issue)

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index):
        if self._records is None:
            labels = self.labels
            self._records = tuple(
                TraceRecord(ordinal, pc, labels[pc], mask, depth, names, cycle)
                for pcs, (mask, depth, names), ordinals, cycles in self.rows()
                for ordinal, pc, cycle in zip(ordinals, pcs, cycles))
        return self._records[index]

    def __iter__(self):
        return iter(self[:])


@dataclass(frozen=True)
class RunResult:
    """Counters, stack-move log, and final state of one completed run.

    ``moves`` holds ``(ordinal, events, token, active_after, depth, cycle)``
    per token move and is the run's depth history; only a move changes the
    mask, so the mask before it is the previous ``active_after`` (or launch).
    """

    events: CostEvents
    executed_instructions: int
    executed_branches: int
    cycles: int
    max_depth: int
    registers: tuple[tuple, ...]
    slots: tuple[dict, ...]
    moves: tuple[tuple, ...]
    final_active_mask: int
    launch_mask: int
    trace: Union[Trace, None] = None

    @property
    def event_log(self) -> tuple[EventRecord, ...]:
        """``moves`` as one :class:`EventRecord` per stack event; the benchmark replays it."""
        return tuple(EventRecord(ordinal, event, None, None) if event >= _SPILL_STORE else
                     EventRecord(ordinal, event, token.mask, token.pc)
                     for ordinal, events, token, _, _, _ in self.moves for event in events)

    @property
    def sync_pushes(self) -> int:
        return self.events.sync_pushes

    @property
    def div_pushes(self) -> int:
        return self.events.div_pushes

    @property
    def pops(self) -> int:
        return self.events.pops

    @property
    def spill_stores(self) -> int:
        return self.events.spill_stores

    @property
    def spill_loads(self) -> int:
        return self.events.spill_loads

    def register(self, name: str) -> tuple:
        """Final per-lane values of a register by name."""
        index = isa.register_index(name, len(self.registers))
        return _ZEROS if index == REG_RZ else self.registers[index]


# Enum members as module globals for the per-instruction and per-event paths:
# on CPython 3.11 an ``Opcode.X`` read goes through ``EnumType.__getattr__``
# and costs about ten global reads.
_SSY, _BRA, _NOP, _IADD, _FADD, _ISETP, _MOV, _CLOCK, _STSLOT, _EXIT = (
    Opcode.SSY, Opcode.BRA, Opcode.NOP, Opcode.IADD, Opcode.FADD_IMM, Opcode.ISETP_LT,
    Opcode.MOV, Opcode.CLOCK, Opcode.STORE_SLOT, Opcode.EXIT)
_SYNC, _DIV = TokenKind.SYNC, TokenKind.DIV
_DIV_PUSH, _SYNC_POP, _DIV_POP, _SPILL_STORE = (
    StackEvent.DIV_PUSH, StackEvent.SYNC_POP, StackEvent.DIV_POP, StackEvent.SPILL_STORE)
_EVENT_NAMES = tuple(event.name for event in StackEvent)  # trace labels, by StackEvent


def step(state: WarpState, program: Program):
    """Execute one instruction; returns (stack events, the token moved) or ((), None).

    Dispatch order mirrors the hardware model: SSY, then predicated
    branches, then EXIT, then the pop-bit, then plain lane-wise execution.
    """
    pc = state.pc
    if not 0 <= pc < len(program.instructions):
        raise ModelViolation(f"program counter {pc} out of range")
    return _exec_one(state, program.instructions[pc])


def _exec_one(state: WarpState, ins: Instruction):
    """Execute one instruction, then charge its issue and stack events to the clock.

    All control flow is here; :func:`_exec_plain` runs the lane-wise opcodes.
    """
    op = ins.opcode
    if op is _SSY:
        token = Token(state.active_mask, _SYNC, ins.target)
        events = state.stack.push(token)
        state.pc += 1
    elif op is _BRA:  # a bare BRA reads PT; a partial branch parks the not-taken lanes at pc+1
        active = state.active_mask
        taken = state.preds[PRED_PT if ins.pred is None else ins.pred] & active
        if taken == 0 or taken == active:
            state.pc = ins.target if taken else state.pc + 1
            state.cycle += state._issue_cost
            return _NO_EVENTS
        token = Token(active ^ taken, _DIV, state.pc + 1)
        events = state.stack.push(token)
        state.active_mask = taken
        state.pc = ins.target
    elif op is _EXIT:
        if state.stack.depth != 0:
            raise ModelViolation(
                f"EXIT with {state.stack.depth} tokens still on the stack"
            )
        if state.active_mask != state.launch_mask:
            raise ModelViolation(
                f"EXIT with active mask {state.active_mask:#010x}, "
                f"expected launch mask {state.launch_mask:#010x}"
            )
        state.halted = True
        state.cycle += state._issue_cost
        return _NO_EVENTS
    elif ins.pop_bit:
        token, events = state.stack.pop()
        state.active_mask = token.mask
        state.pc = token.pc
        _exec_plain(state, ins)
    else:
        _exec_plain(state, ins)
        state.pc += 1
        state.cycle += state._issue_cost
        return _NO_EVENTS
    cycles = state._issue_cost
    for event in events:
        cycles += state._event_cycles[event]
    state.cycle += cycles
    return events, token


def _exec_plain(state: WarpState, ins: Instruction) -> None:
    """Lane-wise execution of the non-control opcodes under the active mask.

    A ``reg|int`` operand is its immediate when its register field is None.
    """
    op = ins.opcode
    if op is _NOP:
        return
    regs = state.regs
    active = state.active_mask

    if op is _IADD:
        xs = regs[ins.src_a]
        ys = ins.imm if ins.src_b is None else regs[ins.src_b]
        if type(xs) is int and type(ys) is int:
            if ins.src_b is None:
                ys = (ys & _MASK32) * _ONES
            values = (xs + ys) & _LOW  # no carry leaves a 64-bit field
        else:  # a float has no integer bits to wrap; only active lanes count
            xs = unpack_row(xs)
            ys = (ys,) * WARP_SIZE if ins.src_b is None else unpack_row(ys)
            values = [0] * WARP_SIZE
            for t in lanes(active):
                if type(xs[t]) is float or type(ys[t]) is float:
                    raise ModelViolation(
                        "IADD of a float register value; IADD adds integers")
                values[t] = _wrap32(xs[t] + ys[t])
            values = _row(values)
    elif op is _FADD:
        imm = ins.imm
        # Sums are exact in double precision, then rounded once to
        # float32, which equals a correctly rounded float32 addition.
        xs = regs[ins.src_a]
        if type(xs) is int:
            xs = unpack_row(xs)
        try:
            values = list(_PACK32.unpack(_PACK32.pack(*[x + imm for x in xs])))
        except OverflowError:  # only active lanes must stay in float32 range
            values = [0] * WARP_SIZE
            for t in lanes(active):
                try:
                    values[t] = isa.f32(xs[t] + imm)
                except OverflowError:
                    raise ModelViolation(f"FADD32I result {xs[t] + imm!r} in lane {t} "
                                         "is outside the float32 range") from None
    elif op is _ISETP:
        va = regs[ins.src_a]
        vb = ins.imm if ins.src_b is None else regs[ins.src_b]
        if type(va) is int and type(vb) is int:
            if ins.src_b is None:
                vb = ((vb + _BIAS) & _MASK32) * _ONES
            else:
                vb ^= _SIGN
            # Per field, biased a + 2**32 - biased b borrows from bit 32 iff a < b.
            diff = ((va ^ _SIGN) | _HIGH) - vb
            mask = int(diff.to_bytes(_ROW_BYTES, "big")[3::8].translate(_LT_DIGITS), 2) & active
        else:
            va = unpack_row(va)
            vb = (vb,) * WARP_SIZE if ins.src_b is None else unpack_row(vb)
            mask = 0
            for t in lanes(active):
                if va[t] < vb[t]:
                    mask |= 1 << t
        pdst = ins.pdst
        if pdst != PRED_PT:
            state.preds[pdst] = (state.preds[pdst] & ~active & _MASK32) | mask
        return
    elif op is _MOV:
        if ins.src_a is None:
            values = (ins.imm & _MASK32) * _ONES
        else:
            values = regs[ins.src_a]
            if type(values) is not int:
                values = list(values)
    elif op is _CLOCK:
        values = (state.cycle & _MASK32) * _ONES
    elif op is _STSLOT:
        source = unpack_row(regs[ins.src_a])
        slots = state.slots
        if ins.slot_reg is not None:
            indices = unpack_row(regs[ins.slot_reg])
            for t in lanes(active):
                index = indices[t]
                if type(index) is not int or index < 0:
                    raise ModelViolation(
                        f"STSLOT slot index {index!r} in lane {t} is not an integer >= 0")
                slots[t][index] = source[t]
        else:
            slot = ins.slot
            for t in lanes(active):
                slots[t][slot] = source[t]
        return
    else:  # pragma: no cover - exhaustive over opcodes
        raise ModelViolation(f"cannot execute opcode {op.value}")

    # Masked register write; RZ destinations are discarded.
    dst = ins.dst
    if dst == REG_RZ:
        return
    if active == FULL_MASK:
        regs[dst] = values
        return
    reg = regs[dst]
    if type(reg) is int and type(values) is int:
        regs[dst] = reg ^ ((reg ^ values) & _field_mask(active))
        return
    if type(reg) is int or type(values) is int:  # the forms mix: write lane by lane
        reg = list(unpack_row(reg))
        values = unpack_row(values)
    for t in lanes(active):
        reg[t] = values[t]
    regs[dst] = reg if op is _FADD else _row(reg)  # FADD32I leaves a float lane


def run(program: Program, launch: Union[LaunchConfig, None] = None, *,
        budget: int = DEFAULT_BUDGET, record_trace: bool = False) -> RunResult:
    """Run a program to EXIT and collect counters and histories.

    Raises :class:`RunawayLoopError` once ``budget`` instructions have
    executed without reaching EXIT, and :class:`ModelViolation` for pops
    from an empty stack or an EXIT that leaves tokens on the stack.  With
    ``record_trace`` the result's ``trace`` is a :class:`Trace` of the run;
    otherwise it is None.
    """
    if launch is None:
        launch = LaunchConfig()
    state = WarpState(program, launch)

    counts = [0] * len(StackEvent)
    moves: list[tuple] = []
    executed = 0
    branches = 0
    instructions = program.instructions
    stack = state.stack
    pcs: Union[list[int], None] = [] if record_trace else None

    while not state.halted:
        if executed >= budget:
            raise RunawayLoopError(
                f"no EXIT after {budget} instructions; raise the budget or fix the loop"
            )
        pc = state.pc  # a Program keeps every target, and so every pc, in range
        ins = instructions[pc]
        events, token = _exec_one(state, ins)
        executed += 1
        if ins.opcode is _BRA:
            branches += 1

        if events:  # exactly one push or pop: the depth moves by one
            for event in events:
                counts[event] += 1
            moves.append((executed, events, token, state.active_mask, stack.depth,
                          state.cycle))
        if record_trace:
            pcs.append(pc)

    moves = tuple(moves)
    return RunResult(
        events=CostEvents(*counts),
        executed_instructions=executed,
        executed_branches=branches,
        cycles=state.cycle,
        max_depth=max((move[4] for move in moves), default=0),
        registers=tuple(_ZEROS if reg == 0 else tuple(unpack_row(reg))
                        for reg in state.regs[:-1]),
        slots=tuple(dict(s) for s in state.slots),
        moves=moves,
        final_active_mask=state.active_mask,
        launch_mask=state.launch_mask,
        trace=Trace(pcs, moves, tuple(ins.opcode.value + (".S" if ins.pop_bit else "")
                                      for ins in instructions),
                    state.launch_mask, state._issue_cost) if record_trace else None,
    )


def verify_result(result: RunResult) -> RunResult:
    """Audit the stack and mask discipline of a completed run.

    Checks push/pop and spill balance, a clean final state, the mask
    partition at every divergence, and full-mask restoration at every
    SYNC pop.  Raises :class:`ModelViolation` on the first failure;
    returns the result for chaining.
    """
    events = result.events
    if events.pushes != events.pops:
        raise ModelViolation(f"push/pop imbalance: {events.pushes} != {events.pops}")
    if events.spill_stores != events.spill_loads:
        raise ModelViolation(
            f"spill imbalance: {events.spill_stores} stores, {events.spill_loads} loads"
        )
    if result.final_active_mask != result.launch_mask:
        raise ModelViolation("run ended without full re-convergence")

    depth = peak = 0
    before = result.launch_mask
    for _, moved, token, after, cur, _ in result.moves:
        if cur != depth + 1 and cur != depth - 1:
            raise ModelViolation(f"depth history jumps from {depth} to {cur}")
        depth = cur
        if depth > peak:
            peak = depth
        for kind in moved:
            if kind is _DIV_PUSH:
                if token.mask == 0:
                    raise ModelViolation("DIV token with empty mask")
                if token.mask & after:
                    raise ModelViolation("DIV token overlaps the surviving active mask")
                if (token.mask | after) != before:
                    raise ModelViolation("divergence does not partition the active mask")
            elif kind is _SYNC_POP or kind is _DIV_POP:
                if after != token.mask:
                    raise ModelViolation("pop did not restore the token mask")
        before = after
    if depth != 0:
        raise ModelViolation("depth history must start and end at depth 0")
    # A +-1 walk from depth 0 back to 0 has as many ups as downs, and pushes == pops.
    if len(result.moves) != events.pushes + events.pops:
        raise ModelViolation("depth history inconsistent with push/pop counters")
    if peak != result.max_depth:
        raise ModelViolation("max_depth inconsistent with depth history")
    return result

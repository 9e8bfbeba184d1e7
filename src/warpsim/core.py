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

A register row takes one of two forms.  A row of ints is one packed
Python ``int``: lane t sits in bits 64t..64t+31 as a uint32 two's-
complement value and the upper 32 bits of each field stay zero, so
``IADD``, ``ISETP.LT``, ``MOV``, ``CLOCK`` and masked writes are a few
big-int operations on all lanes at once (SWAR, "SIMD within a
register").  A row in which some lane holds a float is a ``list`` of
lane values (a masked ``FADD32I`` or ``MOV`` writes one in place, so it
may come to hold only ints).  Rows are unpacked to lane values only by
``STSLOT``, by ``FADD32I`` reading an int row, by a masked write that
mixes the two forms, by ``IADD`` and ``ISETP.LT`` when an operand row
is a list, and for :attr:`RunResult.registers`.

No instruction reads a lane id, so :func:`run` runs one lane per class of
identical launch lanes (:func:`_fold`) and expands each move's masks, then
the results, to lanes; :class:`WarpState` and :func:`step` keep 32 lanes.
A run is a pure function of (program, launch, profile); equal inputs
give bit-identical results.

One loop, :func:`_interpret`, executes instructions for both :func:`run`
and :func:`step`.  It keeps the warp's pc, active mask, cycle and rows in
locals, moves the tokens of the warp's own stack, :attr:`WarpState.tokens`,
and writes pc, mask, cycle, ``halted`` and the spilled count back to the
:class:`WarpState` on every exit, a raise too.

A run logs one packed 23-byte record per instruction that moved a stack
token (:class:`MoveLog`, :attr:`RunResult.moves`, the run's depth
history); its event log and trace rows are views of it.  A traced run
(``record_trace=True``) adds only a pc log (:class:`Trace`).

The live cycle counter implements the pop-attributed cost policy: each
instruction executes, then advances it once by its price: one cycle, or
for each of the eight kinds of move (:data:`stack.MOVE_EVENTS`) its
entry of :attr:`ArchProfile.move_prices`, one plus the cycles of its
stack events (so a DIV-pop carrier costs ``div_cost`` in all).  The move
log derives each move's cycle from the same prices instead of storing
it.
``CLOCK`` reads the counter at issue, before the instruction's own
charge.
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
from .stack import (DEPTH_LIMIT, EMPTY_POP, MOVE_EVENTS, PAST_DEPTH_LIMIT, StackEvent, Token,
                    TokenKind)

WARP_SIZE = 32
FULL_MASK = 0xFFFFFFFF
DEFAULT_BUDGET = 10_000_000

_MASK32 = 0xFFFFFFFF
_BIAS = 0x80000000
_ZEROS = (0,) * WARP_SIZE
_F64 = struct.Struct(f"<{WARP_SIZE}d")  # a launch list row's lanes as doubles, for _fold


class _Width:
    """The constants of k-lane rows (see the module docstring): the all-lanes mask; a 1,
    the value bits, sign bit and bit 32 of each field; row bytes; int32 and float32 structs."""

    def __init__(self, k: int):
        ones = sum(1 << 64 * t for t in range(k))
        self.size, self.full, self.ones, self.low, self.sign, self.high, self.row_bytes = (
            k, (1 << k) - 1, ones, _MASK32 * ones, _BIAS * ones, ones << 32, 8 * k)
        self.lanes, self.f32 = struct.Struct("<" + "i4x" * k), struct.Struct(f"<{k}f")


# CPython 3.11 keeps up to 2,000 freed 20-tuples (400 KB) and reuses none: 20 classes run 21 lanes.
_WIDTHS = tuple(_Width(k + (k == 20)) for k in range(WARP_SIZE + 1))  # by class count
_W32 = _WIDTHS[WARP_SIZE]
_UNIT_MASKS = tuple(1 << t for t in range(WARP_SIZE))  # classes of a 32-lane state: lane t alone
# Field mask of the 8 lanes of one mask byte; four lookups build any lane mask.
_FIELD_BYTE = tuple(sum(_MASK32 << 64 * i for i in range(8) if b >> i & 1) for b in range(256))
# ISETP.LT difference byte: 1 (no borrow) means a >= b, so digit "0".
_LT_DIGITS = bytes.maketrans(b"\x00\x01", b"10")

_LANES_CACHE_MAX = 1024
_lanes_cache: dict[int, tuple[int, ...]] = {}
# By byte k of a mask, then its value b: the lanes of its set bits, 8k + i for bit i of b.
_L0, _L1, _L2, _L3 = (tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
                      for k in range(4))


def lanes(mask: int) -> tuple[int, ...]:
    """Lane indices of the set bits of a 32-bit mask (bit t = lane t), kept in a
    cache of at most ``_LANES_CACHE_MAX`` masks; a miss joins its four bytes' lanes."""
    cached = _lanes_cache.get(mask)
    if cached is None:
        if len(_lanes_cache) >= _LANES_CACHE_MAX:  # divergence can make up to 2**32 masks
            _lanes_cache.clear()
        # One tuple display: adding byte tuples would free partial sums, 20-tuples too.
        cached = (*_L0[mask & 255], *_L1[mask >> 8 & 255], *_L2[mask >> 16 & 255],
                  *_L3[mask >> 24 & 255])
        _lanes_cache[mask] = cached
    return cached


def unpack_row(row, width: _Width = _W32) -> Sequence:
    """The lane values of a register row: a tuple for a packed row, else the row itself."""
    if type(row) is int:
        return width.lanes.unpack(row.to_bytes(width.row_bytes, "little"))
    return row


def _row(values: list, width: _Width):
    """A list of lane values as a register row: packed unless some lane holds a float."""
    try:
        return int.from_bytes(width.lanes.pack(*values), "little")
    except struct.error:  # a float lane
        return values


def _field_mask(mask: int) -> int:
    """The value bits of the lane fields selected by a 32-bit lane mask."""
    table = _FIELD_BYTE
    return (table[mask & 255] | table[mask >> 8 & 255] << 512
            | table[mask >> 16 & 255] << 1024 | table[mask >> 24] << 1536)


def _widen(members: Sequence[int], mask: int) -> int:
    """The lane mask of a class mask (``members[c]``: the lanes of class c)."""
    return sum(members[c] for c in lanes(mask))


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
    """Mutable state of one warp; lane c stands for the launch lanes ``members[c]``.

    ``tokens``: its stack, ``(mask, kind, pc)`` tuples (a :class:`Token` is one) oldest
    first, the oldest ``spilled`` in backing memory, sized and priced by ``profile``.
    """

    __slots__ = ("pc", "active_mask", "launch_mask", "regs", "preds", "tokens", "spilled",
                 "cycle", "halted", "slots", "width", "members", "profile")

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
        self.tokens: list[tuple[int, int, int]] = []
        self.spilled = 0
        self.cycle = 0
        self.halted = False
        self.slots: list[dict[int, Union[int, float]]] = [{} for _ in range(WARP_SIZE)]
        self.width, self.members, self.profile = _W32, _UNIT_MASKS, launch.profile


def _launch_row(name: str, values: Sequence) -> Union[int, list]:
    """The register row of one launch register's values, by the immediate rules:
    int32 integers, float32 reals, no NaN (+-inf is legal)."""
    if len(values) != WARP_SIZE:
        raise ProgramError(f"launch register {name} needs {WARP_SIZE} values, got {len(values)}")
    try:
        if type(values[0]) is not float:  # a float in lane 0: no int row, so no struct.error
            return int.from_bytes(_W32.lanes.pack(*values), "little")  # all int32 integers
    except struct.error:  # a lane that is no integer, or outside int32
        pass
    try:
        if {*map(type, values)} == {float}:
            row = list(_W32.f32.unpack(_W32.f32.pack(*values)))
            if (total := sum(row)) == total:  # a NaN lane, or +inf and -inf, sum to NaN
                return row
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


# Enum members as module globals for the per-instruction and per-move paths:
# on CPython 3.11 an ``Opcode.X`` read goes through ``EnumType.__getattr__``
# and costs about ten global reads.
_BRA, _IADD, _FADD, _ISETP, _MOV, _CLOCK, _STSLOT, _EXIT = (
    Opcode.BRA, Opcode.IADD, Opcode.FADD_IMM, Opcode.ISETP_LT, Opcode.MOV, Opcode.CLOCK,
    Opcode.STORE_SLOT, Opcode.EXIT)
_SPILL_STORE = StackEvent.SPILL_STORE

# By move code (its index in stack.MOVE_EVENTS): the trace names of its events.
_MOVE_NAMES = tuple(tuple(event.name for event in events) for events in MOVE_EVENTS)
# By StackEvent: the two move codes that raise it.
_EVENT_CODES = tuple(tuple(code for code, events in enumerate(MOVE_EVENTS) if event in events)
                     for event in StackEvent)
# One move: ordinal, code, token mask, token pc, active mask after, depth after
# (stack.DEPTH_LIMIT keeps it in 16 bits); 23 bytes, no padding.
_RECORD = struct.Struct("<qBIIIH")
# The same record for readers that skip fields ("x" pads): a decoded field is a
# new int, so each reader decodes only the fields it reads.
_AUDIT_FIELDS = struct.Struct("<8xBI4xIH")  # code, token mask, active after, depth
_TRACE_FIELDS = struct.Struct("<qB8xIH")    # ordinal, code, active after, depth
_EVENT_FIELDS = struct.Struct("<qBII6x")    # ordinal, code, token mask, token pc


@dataclass(frozen=True, slots=True)
class MoveLog:
    """The stack moves of one run, one packed 23-byte record per move.

    A record holds the instruction's ordinal, the move code (its index in
    :data:`stack.MOVE_EVENTS`), the moved token's mask and pc, and the
    active mask and depth after the move.  A move's cycle is derived, not
    stored: the previous move's (at first 0), plus one per instruction
    between the two, plus ``prices[code]`` (the profile's
    ``move_prices``); so it stays an exact int for any costs.  The log iterates as
    ``(ordinal, events, token, active_after, depth, cycle)`` tuples,
    decoded as they are read, has a length, and equals another log with
    the same bytes and prices.
    """

    records: bytes = field(repr=False)
    prices: tuple[int, ...]  # by move code

    def __len__(self) -> int:
        return len(self.records) // _RECORD.size

    def __iter__(self):
        prices = self.prices
        cycle = done = 0
        for ordinal, code, mask, pc, after, depth in _RECORD.iter_unpack(self.records):
            cycle += ordinal - done - 1 + prices[code]
            done = ordinal
            yield (ordinal, MOVE_EVENTS[code], Token(mask, TokenKind(code & 1), pc),
                   after, depth, cycle)


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


@dataclass(frozen=True)
class Trace:
    """The trace of one run: a pc log plus the run's stack-move log.

    Each move marks the row of its instruction with the active mask,
    depth, events and cycle after it.  Every other row keeps the
    previous row's mask and depth (at first the launch mask and 0), has
    no events, and adds one to the previous cycle (at first 0).
    It iterates as :class:`TraceRecord`s, built as they are read, and
    indexes or slices like a tuple of them.
    """

    pcs: list[int]
    moves: MoveLog
    labels: tuple[str, ...]  # opcode label by pc
    launch_mask: int

    def rows(self):
        """Yield runs ``(pcs, (active_mask, depth, event names), ordinals, cycles)``.

        A run is a stretch of event-free rows or one row with events.  All
        runs draw on one iterator over the pc log: consume each in turn.
        """
        pcs = iter(self.pcs)
        prices = self.moves.prices
        mask, depth, cycle, done = self.launch_mask, 0, 0, 0
        for ordinal, code, mask_after, depth_after in _TRACE_FIELDS.iter_unpack(
                self.moves.records):
            if ordinal - 1 > done:
                yield (islice(pcs, ordinal - 1 - done), (mask, depth, ()),
                       count(done + 1), count(cycle + 1))
                cycle += ordinal - 1 - done
            cycle += prices[code]
            yield ((next(pcs),), (mask_after, depth_after, _MOVE_NAMES[code]),
                   (ordinal,), (cycle,))
            mask, depth, done = mask_after, depth_after, ordinal
        yield pcs, (mask, depth, ()), count(done + 1), count(cycle + 1)

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self):
        labels = self.labels
        for pcs, (mask, depth, names), ordinals, cycles in self.rows():
            for ordinal, pc, cycle in zip(ordinals, pcs, cycles):
                yield TraceRecord(ordinal, pc, labels[pc], mask, depth, names, cycle)

    def __getitem__(self, index):
        return tuple(self)[index]


@dataclass(frozen=True)
class RunResult:
    """Counters, stack-move log, and final state of one completed run.

    ``moves``, the run's depth history, is a :class:`MoveLog`: it iterates as
    ``(ordinal, events, token, active_after, depth, cycle)`` tuples, has a
    length and compares equal to another log.  Only a move changes the mask,
    so the mask before it is the previous ``active_after`` (or launch).
    """

    events: CostEvents
    executed_instructions: int
    executed_branches: int
    cycles: int
    max_depth: int
    registers: tuple[tuple, ...]
    slots: tuple[dict, ...]
    moves: MoveLog
    final_active_mask: int
    launch_mask: int
    trace: Union[Trace, None] = None

    @property
    def event_log(self) -> tuple[EventRecord, ...]:
        """``moves`` as one :class:`EventRecord` per stack event; the benchmark replays it."""
        return tuple(EventRecord(ordinal, event, None, None) if event >= _SPILL_STORE else
                     EventRecord(ordinal, event, mask, pc)
                     for ordinal, code, mask, pc in _EVENT_FIELDS.iter_unpack(self.moves.records)
                     for event in MOVE_EVENTS[code])

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


def step(state: WarpState, program: Program):
    """Execute one instruction; returns (stack events, the token moved) or ((), None).

    It runs :func:`run`'s loop for one instruction and reads the move
    record it logs, if any, through :class:`MoveLog`.  A halted warp
    raises :class:`ModelViolation` and is left as it was.
    """
    if state.halted:
        raise ModelViolation("step after EXIT: the warp has halted")
    if not 0 <= state.pc < len(program.instructions):
        raise ModelViolation(f"program counter {state.pc} out of range")
    records = _interpret(state, program.instructions, 1)[5]
    for _, events, token, *_ in MoveLog(bytes(records), state.profile.move_prices):
        return events, token
    return (), None


def _interpret(state: WarpState, instructions: Sequence[Instruction], budget: int,
               pcs: Union[list[int], None] = None, widen: Union[dict, None] = None, wide: int = 0):
    """The interpreter loop: execute up to ``budget`` instructions from ``state.pc``,
    stopping after ``EXIT``, and charge each its price.

    Dispatch order: an instruction with a target (``SSY`` or ``BRA``,
    which never carry the pop-bit) takes the one push path, where ``SSY``
    pushes a SYNC token and a partial ``BRA`` a DIV token; then the
    pop-bit, then lane-wise execution, ending at EXIT.  A ``reg|int`` or
    ``[reg|int]`` operand is its immediate when its register field is
    None.  An instruction that raises leaves ``pc``, ``active_mask`` and
    ``cycle`` as they were before it, except that a carrier's pop has
    restored its token's mask and pc.  Tokens move on ``state.tokens`` by
    the rules of :mod:`stack` under ``state.profile``; a token's kind is its
    push's move code before any spill, and a pop's code is 4 plus it.

    Each move appends one :data:`_RECORD`, its masks widened to lanes by
    ``widen`` (class mask -> lane mask; None when each class is one lane)
    and ``wide``, the active lanes; ``pcs`` collects each instruction's
    pc.  Returns (instructions executed, branches, peak depth, active
    lanes, move counts by code, move records).
    """
    pc, active, cycle, halted = state.pc, state.active_mask, state.cycle, state.halted
    regs, preds, slots, width = state.regs, state.preds, state.slots, state.width
    ones, low, sign, high, full, row_bytes, f32 = (
        width.ones, width.low, width.sign, width.high, width.full, width.row_bytes, width.f32)
    tokens, spilled, profile = state.tokens, state.spilled, state.profile
    cap, chunk, depth = profile.phys_capacity or DEPTH_LIMIT, profile.spill_chunk, len(tokens)
    prices, pack = profile.move_prices, _RECORD.pack
    imms: dict[int, int] = {}  # immediate -> its packed row, widened once per run
    counts, records = [0] * len(MOVE_EVENTS), bytearray()
    trace = None if pcs is None else pcs.append
    executed = branches = peak = fields_of = 0
    try:
        for executed in range(1, budget + 1):
            ins = instructions[pc]  # a Program keeps every target, and so every pc, in range
            op = ins.opcode
            if trace is not None:
                trace(pc)
            if ins.target is not None:  # SSY or BRA, the opcodes with a target (isa.SPECS)
                if op is _BRA:  # a bare BRA reads PT; a partial branch parks the rest at pc+1
                    branches += 1
                    taken = preds[PRED_PT if ins.pred is None else ins.pred] & active
                    if taken == 0 or taken == active:
                        pc = ins.target if taken else pc + 1
                        cycle += 1
                        continue
                    mask, code, to = active ^ taken, 1, pc + 1  # a DIV token
                    nxt, after = ins.target, taken
                else:  # SSY: a SYNC token keeps the active lanes until its target
                    mask, code, to = active, 0, ins.target
                    nxt, after = pc + 1, active
                if depth == DEPTH_LIMIT:
                    raise ModelViolation(PAST_DEPTH_LIMIT)
                tokens.append((mask, code, to))
                depth += 1
                if depth - spilled > cap:  # the on-chip part overflows: its oldest chunk spills
                    code, spilled = code + 2, spilled + chunk
                if widen is None:
                    wide = after
                elif code & 1:  # a DIV token's lanes
                    mask = widen.get(mask) or widen.setdefault(mask, _widen(state.members, mask))
                    wide ^= mask
                else:  # the SYNC token's lanes, for its pop
                    widen[active] = mask = wide
                if depth > peak:
                    peak = depth
                records += pack(executed, code, mask, to, wide, depth)
                counts[code] += 1
                active, pc = after, nxt
                cycle += prices[code]
                continue
            if ins.pop_bit:  # restore the token's mask and pc, then execute as the carrier there
                if not depth:
                    raise ModelViolation(EMPTY_POP)
                active, code, pc = tokens.pop()
                depth -= 1
                code += 4
                if depth < spilled:  # the newest spilled chunk reloads
                    code, spilled = code + 2, spilled - chunk
                nxt, charge = pc, prices[code]
                wide = active if widen is None else widen[active]  # its lanes, noted at its push
                records += pack(executed, code, wide, pc, wide, depth)
                counts[code] += 1
            else:
                nxt, charge = pc + 1, 1

            if op is _IADD:
                src_b, xs = ins.src_b, regs[ins.src_a]
                ys = (imms.get(ins.imm) or imms.setdefault(ins.imm, (ins.imm & _MASK32) * ones)
                      if src_b is None else regs[src_b])
                if type(xs) is int and type(ys) is int:
                    values = (xs + ys) & low  # no carry leaves a 64-bit field
                else:  # a float has no integer bits to wrap; only active lanes count
                    xs, ys = unpack_row(xs, width), unpack_row(ys, width)
                    values = [0] * width.size
                    for t in lanes(active):
                        if type(xs[t]) is float or type(ys[t]) is float:
                            raise ModelViolation(
                                "IADD of a float register value; IADD adds integers")
                        values[t] = ((xs[t] + ys[t] + _BIAS) & _MASK32) - _BIAS
                    values = _row(values, width)
            elif op is _FADD:
                # Sums are exact in double precision, then rounded once to
                # float32, which equals a correctly rounded float32 addition.
                imm, xs = ins.imm, regs[ins.src_a]
                try:
                    if active != full and type(xs) is list and type(reg := regs[ins.dst]) is list:
                        ts = lanes(active)  # a list row into a list row: the active lanes, in place
                        sums = [xs[t] + imm for t in ts]
                        if len(ts) == 20:
                            sums.append(0.0)  # never a 20-tuple (see _WIDTHS)
                        f32k = _WIDTHS[len(ts)].f32
                        for t, value in zip(ts, f32k.unpack(f32k.pack(*sums))):
                            reg[t] = value
                        pc, cycle = nxt, cycle + charge
                        continue
                    values = list(f32.unpack(f32.pack(
                        *[x + imm for x in (unpack_row(xs, width) if type(xs) is int else xs)])))
                except OverflowError:  # only active lanes must stay in float32 range
                    xs, values = unpack_row(regs[ins.src_a], width), [0] * width.size
                    for t in lanes(active):
                        try:
                            values[t] = isa.f32(xs[t] + imm)
                        except OverflowError:
                            raise ModelViolation(f"FADD32I result {xs[t] + imm!r} in lane "
                                                 f"{lanes(state.members[t])[0]} is outside the "
                                                 "float32 range") from None
            elif op is _ISETP:
                src_b, va = ins.src_b, regs[ins.src_a]
                vb = (imms.get(ins.imm) or imms.setdefault(ins.imm, (ins.imm & _MASK32) * ones)
                      if src_b is None else regs[src_b])
                if type(va) is int and type(vb) is int:
                    # Per field, biased a + 2**32 - biased b borrows from bit 32 iff a < b.
                    diff = (((va ^ sign) | high) - (vb ^ sign)).to_bytes(row_bytes, "big")
                    mask = int(diff[3::8].translate(_LT_DIGITS), 2) & active
                else:
                    va, vb, mask = unpack_row(va, width), unpack_row(vb, width), 0
                    for t in lanes(active):
                        if va[t] < vb[t]:
                            mask |= 1 << t
                if ins.pdst != PRED_PT:
                    preds[ins.pdst] = (preds[ins.pdst] & ~active & _MASK32) | mask
            elif op is _MOV:
                if ins.src_a is None:
                    values = imms.get(ins.imm) or imms.setdefault(ins.imm,
                                                                  (ins.imm & _MASK32) * ones)
                elif type(values := regs[ins.src_a]) is not int and active == full:
                    values = list(values)  # a copy: regs[dst] = values would alias the source
            elif op is _CLOCK:
                values = (cycle & _MASK32) * ones
            elif op is _STSLOT:
                source = unpack_row(regs[ins.src_a], width)
                if ins.src_b is None:
                    index = ins.imm  # read once, not once per lane
                    for t in lanes(active):
                        slots[t][index] = source[t]
                else:
                    indices = unpack_row(regs[ins.src_b], width)
                    for t in lanes(active):
                        if type(index := indices[t]) is not int or index < 0:
                            raise ModelViolation(f"STSLOT slot index {index!r} in lane "
                                                 f"{lanes(state.members[t])[0]} is not an "
                                                 "integer >= 0")
                        slots[t][index] = source[t]
                    del indices
                del source  # a live row would hold a tuple free-list slot of its width
            elif op is _EXIT:
                if depth:
                    raise ModelViolation(f"EXIT with {depth} tokens still on the stack")
                if active != state.launch_mask:
                    raise ModelViolation(
                        f"EXIT with active mask {_widen(state.members, active):#010x}, expected "
                        f"launch mask {_widen(state.members, state.launch_mask):#010x}")
                halted = True
                cycle += 1
                break

            # Masked register write: ISETP, STSLOT and NOP have no dst; RZ discards.
            dst = ins.dst
            if dst is not None and dst != REG_RZ:
                if active == full:
                    regs[dst] = values
                elif type(reg := regs[dst]) is int and type(values) is int:
                    if fields_of != active:  # the active lanes' field mask, kept until they change
                        fields_of, fields = active, _field_mask(active)
                    regs[dst] = reg ^ ((reg ^ values) & fields)
                elif type(reg) is list and type(values) is list:  # FADD32I or MOV: in place
                    for t in lanes(active):
                        reg[t] = values[t]
                else:  # the forms mix: lane by lane
                    reg, values = list(unpack_row(reg, width)), unpack_row(values, width)
                    for t in lanes(active):
                        reg[t] = values[t]
                    regs[dst] = reg if op is _FADD else _row(reg, width)  # FADD32I leaves a float
            pc = nxt
            cycle += charge
    finally:
        state.pc, state.active_mask, state.cycle, state.halted = pc, active, cycle, halted
        state.spilled = spilled
    return executed, branches, peak, wide, counts, records


def _fold(state: WarpState) -> Union[list[int], None]:
    """Fold a fresh state to one lane per class of identical launch lanes, numbered
    by their lowest lane; return each lane's class, or None if all 32 lanes differ."""
    regs = state.regs
    launched = [index for index, row in enumerate(regs) if row]
    # Equal lanes have equal fingerprints: the mask and the rows, XORed field by field.
    fingerprint = _field_mask(state.launch_mask)
    for n, row in enumerate(map(regs.__getitem__, launched)):
        fingerprint ^= (row << 32 * (n & 1) if type(row) is int
                        else int.from_bytes(_F64.pack(*row), "little"))
    if len(set(memoryview(fingerprint.to_bytes(_W32.row_bytes, "little")).cast("Q"))) == WARP_SIZE:
        return None
    # A lane's key: its mask bit and values (repr tells 0.0 from -0.0, and 1 from 1.0).
    keys = list(zip(f"{state.launch_mask:032b}"[::-1], *[
        unpack_row(row) if type(row) is int else map(repr, row)
        for row in map(regs.__getitem__, launched)]))
    classes: dict = {}  # key -> the lanes of its class
    for key, lane in zip(keys, _UNIT_MASKS):
        classes[key] = classes.get(key, 0) | lane
    lanes_of = list(map(dict(zip(classes, range(len(classes)))).__getitem__, keys))
    state.width = width = _WIDTHS[len(classes)]
    spare = [0] * (width.size - len(classes))  # lanes that stand for no launch lane
    for index in launched:  # a class's lanes hold equal values: keep one
        regs[index] = _row([*dict(zip(lanes_of, unpack_row(regs[index]))).values(), *spare], width)
    state.members = members = list(classes.values()) + spare
    state.active_mask = state.launch_mask = sum(
        1 << c for c, mask in enumerate(members) if mask & state.launch_mask)
    del state.slots[len(members):]
    return lanes_of


def run(program: Program, launch: Union[LaunchConfig, None] = None, *,
        budget: int = DEFAULT_BUDGET, record_trace: bool = False) -> RunResult:
    """Run a program to EXIT and collect counters and histories.

    Raises :class:`RunawayLoopError` once ``budget`` instructions have
    executed without reaching EXIT, :class:`ProgramError` for a budget
    that is not an int >= 0, and :class:`ModelViolation` for pops
    from an empty stack or an EXIT that leaves tokens on the stack.  With
    ``record_trace`` the result's ``trace`` is a :class:`Trace` of the run;
    otherwise it is None.
    """
    if type(budget) is not int:  # a bool is no budget either
        raise ProgramError(f"budget {budget!r} is not an integer")
    if budget < 0:
        raise ProgramError(f"budget {budget} must be >= 0")
    if launch is None:
        launch = LaunchConfig()
    state = WarpState(program, launch)
    lanes_of = _fold(state)
    widen = None if lanes_of is None else dict(zip(_UNIT_MASKS, state.members))  # class mask -> lanes
    pcs: Union[list[int], None] = [] if record_trace else None
    instructions = program.instructions
    executed, branches, peak, wide, counts, records = _interpret(
        state, instructions, budget, pcs, widen, launch.active_mask)
    if not state.halted:
        raise RunawayLoopError(
            f"no EXIT after {budget} instructions; raise the budget or fix the loop")

    moves = MoveLog(bytes(records), state.profile.move_prices)
    expand = tuple if lanes_of is None else operator.itemgetter(*lanes_of)  # classes -> lanes
    return RunResult(
        events=CostEvents(*[counts[a] + counts[b] for a, b in _EVENT_CODES]),
        executed_instructions=executed,
        executed_branches=branches,
        cycles=state.cycle,
        max_depth=peak,
        registers=tuple(_ZEROS if reg == 0 else expand(unpack_row(reg, state.width))
                        for reg in state.regs[:-1]),
        slots=tuple(state.slots) if lanes_of is None else tuple(map(dict, expand(state.slots))),
        moves=moves,
        final_active_mask=wide,
        launch_mask=launch.active_mask,
        trace=Trace(pcs, moves, tuple(ins.opcode.value + (".S" if ins.pop_bit else "")
                                      for ins in instructions),
                    launch.active_mask) if record_trace else None,
    )


def verify_result(result: RunResult) -> RunResult:
    """Audit the stack and mask discipline of a completed run.

    Checks push/pop and spill balance, a clean final state, the mask
    partition at every divergence, and full-mask restoration at every
    SYNC pop, all read off the packed move log.  The log's prices must
    also give the run's cycle count.  Raises :class:`ModelViolation` on
    the first failure; returns the result for chaining.
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

    moves = result.moves
    prices = moves.prices
    depth = peak = spent = 0
    before = result.launch_mask
    for code, token_mask, after, cur in _AUDIT_FIELDS.iter_unpack(moves.records):
        if cur != depth + 1 and cur != depth - 1:
            raise ModelViolation(f"depth history jumps from {depth} to {cur}")
        depth = cur
        if depth > peak:
            peak = depth
        spent += prices[code]
        if code >= 4:  # a pop
            if after != token_mask:
                raise ModelViolation("pop did not restore the token mask")
        elif code & 1:  # a DIV push
            if token_mask == 0:
                raise ModelViolation("DIV token with empty mask")
            if token_mask & after:
                raise ModelViolation("DIV token overlaps the surviving active mask")
            if (token_mask | after) != before:
                raise ModelViolation("divergence does not partition the active mask")
        before = after
    if depth != 0:
        raise ModelViolation("depth history must start and end at depth 0")
    # A +-1 walk from depth 0 back to 0 has as many ups as downs, and pushes == pops.
    if len(moves) != events.pushes + events.pops:
        raise ModelViolation("depth history inconsistent with push/pop counters")
    if peak != result.max_depth:
        raise ModelViolation("max_depth inconsistent with depth history")
    # The last move's cycle plus one per later instruction: each move costs
    # its price and every other instruction one cycle.
    logged = spent + result.executed_instructions - len(moves)
    if logged != result.cycles:
        raise ModelViolation(f"cycles inconsistent with the move log: the log's prices "
                             f"give {logged}, the run counted {result.cycles}")
    return result

"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own machinery:
per-lane loop results come from plain numpy float32 scalar loops, and
stack spill behavior comes from a counter-only occupancy tracker driven
by an abstract push/pop sequence derived from loop structure alone.
The run-level reference, :func:`stepped`, drives ``core.step`` on an
unfolded 32-lane ``WarpState`` and reads each move off the state around
each instruction (its token list and spilled count), not off what
``step`` returns, so it shares no code with the lane fold, the move log's
decoding, or the trace rows and event log that ``run`` derives from
that log.
"""

import numpy as np
import pytest

import warpsim as ws
from warpsim.core import WarpState, step, unpack_row

BODY = np.float32(ws.BODY_STEP)
OUTER = np.float32(ws.OUTER_STEP)


def checked_run(program, launch=None, **kwargs):
    """run() plus the full invariant audit."""
    return ws.verify_result(ws.run(program, launch, **kwargs))


def stepped(program, launch, budget=ws.DEFAULT_BUDGET):
    """What ``run`` must give, in the shape of :func:`outcome`, read off a 32-lane
    state stepped by ``step``; or ``(error type, message)`` if the run raises.

    A step that deepens the stack pushed its new top token, one that
    shallows it popped the old top; a grown spilled count is a spill
    store before the push, a shrunk one a spill load before the pop.
    """
    state = WarpState(program, launch)
    moves, log, trace, counts = [], [], [], [0] * len(ws.StackEvent)
    branches = 0
    try:
        while not state.halted:
            if len(trace) >= budget:
                raise ws.RunawayLoopError(
                    f"no EXIT after {budget} instructions; raise the budget or fix the loop")
            pc = state.pc
            ins = program.instructions[pc]
            branches += ins.opcode is ws.Opcode.BRA
            depth, spilled = len(state.tokens), state.spilled
            top = state.tokens[-1] if depth else None
            step(state, program)
            events = ()
            if len(state.tokens) != depth:
                pushed = len(state.tokens) > depth
                mask, kind, to = state.tokens[-1] if pushed else top
                token = ws.Token(mask, ws.TokenKind(kind), to)
                spills = ((ws.StackEvent.SPILL_STORE,) if state.spilled > spilled else
                          (ws.StackEvent.SPILL_LOAD,) if state.spilled < spilled else ())
                move = token.kind.name + ("_PUSH" if pushed else "_POP")
                events = spills + (ws.StackEvent[move],)
            ordinal = len(trace) + 1
            trace.append(ws.TraceRecord(
                ordinal, pc, ins.opcode.value + (".S" if ins.pop_bit else ""),
                state.active_mask, len(state.tokens), tuple(event.name for event in events),
                state.cycle))
            for event in events:
                counts[event] += 1
                spill = event in (ws.StackEvent.SPILL_STORE, ws.StackEvent.SPILL_LOAD)
                log.append(ws.EventRecord(ordinal, event, None if spill else token.mask,
                                          None if spill else token.pc))
            if events:
                moves.append((ordinal, events, token, state.active_mask, len(state.tokens),
                              state.cycle))
    except ws.ModelViolation as exc:  # RunawayLoopError included
        return type(exc), str(exc)
    return {
        "moves": tuple(moves), "event_log": tuple(log), "trace": tuple(trace),
        "events": ws.CostEvents(*counts), "executed": len(trace), "branches": branches,
        "cycles": state.cycle, "max_depth": max((move[4] for move in moves), default=0),
        "final_mask": state.active_mask, "launch_mask": state.launch_mask,
        "registers": repr(tuple(tuple(unpack_row(row)) for row in state.regs[:-1])),
        "slots": repr(tuple(state.slots)),
    }


def outcome(result):
    """Every field of a ``RunResult``, in the shape :func:`stepped` gives.

    Values are compared by ``repr``, so ``1`` differs from ``1.0`` and
    ``0.0`` from ``-0.0``; an untraced result has trace None.
    """
    return {
        "moves": tuple(result.moves), "event_log": result.event_log,
        "trace": None if result.trace is None else tuple(result.trace),
        "events": result.events, "executed": result.executed_instructions,
        "branches": result.executed_branches, "cycles": result.cycles,
        "max_depth": result.max_depth, "final_mask": result.final_active_mask,
        "launch_mask": result.launch_mask,
        "registers": repr(result.registers), "slots": repr(result.slots),
    }


def single_oracle(bound):
    """(body count, accumulator) for one lane of the single loop."""
    acc = np.float32(0.0)
    count = 0
    if bound >= 1:
        i = 0
        while True:
            i += 1
            acc = np.float32(acc + BODY)
            count += 1
            if not i < bound:
                break
    return count, float(acc)


def double_oracle(bound):
    """(outer count, inner count, accumulator) for one lane, bounds equal."""
    acc = np.float32(0.0)
    outer = inner = 0
    if bound >= 1:
        j = 0
        while True:
            j += 1
            if bound >= 1:
                i = 0
                while True:
                    i += 1
                    acc = np.float32(acc + BODY)
                    inner += 1
                    if not i < bound:
                        break
            acc = np.float32(acc + OUTER)
            outer += 1
            if not j < bound:
                break
    return outer, inner, float(acc)


class RefOverlay:
    """Counter-only model of the capacity/chunk spill overlay."""

    def __init__(self, capacity=16, chunk=4):
        self.capacity = capacity
        self.chunk = chunk
        self.onchip = 0
        self.spilled = 0
        self.stores = 0
        self.loads = 0
        self.max_depth = 0
        self.pushes = 0
        self.pops = 0

    @property
    def depth(self):
        return self.onchip + self.spilled

    def push(self):
        spill = self.capacity is not None and self.onchip == self.capacity
        if spill:
            self.onchip -= self.chunk
            self.spilled += self.chunk
            self.stores += 1
        self.onchip += 1
        self.pushes += 1
        self.max_depth = max(self.max_depth, self.depth)
        return spill

    def pop(self):
        fill = self.onchip == 0
        if fill:
            assert self.spilled >= self.chunk
            self.onchip += self.chunk
            self.spilled -= self.chunk
            self.loads += 1
        self.onchip -= 1
        self.pops += 1
        return fill


def loop_stack_sequence(kernel, bounds):
    """Abstract push(+1)/pop(-1) sequence for a loop kernel.

    Derived from loop structure only: lanes with bound < 1 split off at
    the guard (one DIV, popped immediately when they reach the unwind
    point), lanes leave a loop at their bound value (one DIV per
    proper-subset departure), and each re-convergence point pops
    everything pushed above it.
    """
    live = [b for b in bounds if b >= 1]
    zeros = len(live) != len(bounds)
    seq = [+1]  # outer/only SYNC
    if not live:
        return seq + [-1]  # guard taken by everyone: straight to the pop
    guard = [+1, -1] if zeros else []  # guard DIV parks the loop lanes
    if kernel == "single":
        drops = len(set(live)) - 1
        return seq + guard + [+1] * drops + [-1] * drops + [-1]
    assert kernel == "double"
    seq += guard
    outer_divs = 0
    for j in range(1, max(live) + 1):
        active = [b for b in live if b >= j]
        seq.append(+1)  # inner SSY re-arms every outer iteration
        drops = len(set(active)) - 1
        seq += [+1] * drops + [-1] * drops
        seq.append(-1)  # inner SYNC pop
        survivors = [b for b in active if b >= j + 1]
        if survivors and len(survivors) != len(active):
            seq.append(+1)  # outer DIV
            outer_divs += 1
    seq += [-1] * outer_divs + [-1]  # outer unwind and SYNC pop
    return seq


def replay_overlay(seq, capacity=16, chunk=4):
    ref = RefOverlay(capacity, chunk)
    for move in seq:
        if move > 0:
            ref.push()
        else:
            ref.pop()
    assert ref.depth == 0
    return ref


def template_program(filler_nops, extra_adds):
    """Single-loop shape with a padded body, for randomized structure."""
    lines = ["MOV R4, 0", "ISETP.LT P0, R5, 1", "SSY join", "@P0 BRA unwind"]
    lines += ["NOP"] * filler_nops
    lines.append("body: IADD R4, R4, 1")
    lines += [f"IADD R{6 + k % 2}, R{6 + k % 2}, {k}" for k in range(extra_adds)]
    lines += [f"FADD32I R0, R0, {ws.BODY_STEP!r}", "ISETP.LT P0, R4, R5", "@P0 BRA body",
              "unwind: NOP.S", "join: EXIT"]
    return ws.parse_program("\n".join(lines))


@pytest.fixture(scope="session")
def kepler_sweeps():
    """Full Kepler sweeps for both plain kernels, computed once."""
    return {kernel: ws.sweep(kernel, ws.KEPLER) for kernel in ("single", "double")}


@pytest.fixture(scope="session")
def kepler_results():
    """Full Kepler run results per kernel and n, computed once."""
    out = {}
    for kernel in ("single", "double", "single-instrumented"):
        out[kernel] = {n: checked_run(
            ws.kernel_program(kernel),
            ws.kernel_launch(kernel, ws.bound_pattern(n).bounds, ws.KEPLER),
        ) for n in range(32)}
    return out

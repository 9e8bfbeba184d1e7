"""Seeded generator of well-nested divergent-loop programs, with an
independent per-lane scalar reference.

The reference evaluates each generated program one lane at a time, as a
plain sequential program, and never imports warpsim.  SIMT execution of a
well-nested program must leave every lane's registers and slots exactly
as that lane's scalar run does, so the two can be compared bit for bit.

Only well-nested, valid programs are drawn: counted do-while loops with
a guard, optionally nested one level, with per-lane bounds.  Hostile
inputs (non-finite or negative ``STSLOT`` indices, unbounded ``SSY``
loops) are not generated; they belong to the emulator's own robustness
tests.

Each program's *shape* (loop nesting, body sizes, operation mix and the
multiset of per-lane bound tuples) depends only on its index in the
pass, and the seed decides everything else: registers, immediates,
statement order and which lane gets which bounds.  A warp executes the
same number of instructions under any lane permutation of the bounds, so
the emulated work of a pass does not depend on the seed.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

WARP = 32
REGISTERS = 16
INT_REGS = (0, 1, 2)
FLOAT_REGS = (3, 4)
COUNTER_REGS = (5, 6, 7, 8)
BOUND_REGS = (9, 10, 11, 12)

# The on-chip stack is small so the spill and reload path does most of
# the stack work.
PROFILE_TEXT = """\
# small on-chip stack: 4 entries, spilled 2 at a time
name = spill42
div_cost = 32
phys_capacity = 4
spill_chunk = 2
spill_store_cost = 40
spill_load_cost = 44
"""

_F32 = struct.Struct("<f")


def f32(value: float) -> float:
    return _F32.unpack(_F32.pack(value))[0]


def wrap32(value: int) -> int:
    return ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000


@dataclass
class Loop:
    counter: int
    bound: int
    body: list


@dataclass
class GenProgram:
    """One generated program: source text, launch values and its AST."""

    index: int
    text: str
    body: list
    launch: dict  # register name -> 32 per-lane values

    @property
    def lines(self) -> int:
        return len(self.text.splitlines())


def _shape(index: int) -> list:
    """Seed-independent structure: [(ops, inner_ops or None), ...] per top loop."""
    rng = random.Random(index)
    kinds = ("iadd_rr", "iadd_ri", "fadd", "mov_r", "mov_i", "mov_f", "stslot_r", "stslot_i")
    loops = []
    for _ in range(rng.choice((1, 1, 2))):
        ops = [rng.choice(kinds) for _ in range(rng.randint(2, 4))]
        inner = None
        if rng.random() < 0.5:
            inner = [rng.choice(kinds) for _ in range(rng.randint(1, 3))]
        loops.append((ops, inner))
    prologue = [rng.choice(("iadd_ri", "mov_i", "fadd")) for _ in range(rng.randint(0, 2))]
    # One bound tuple per lane: outer bounds spread over many distinct
    # values so lanes leave one group at a time and the stack climbs.
    tuples = []
    for _ in range(WARP):
        row = []
        for ops, inner in loops:
            if inner is None:
                row.append(rng.randint(0, 9))
            else:
                row.append(rng.randint(0, 4))
                row.append(rng.randint(0, 4))
        tuples.append(tuple(row))
    return [prologue, loops, tuples]


def generate(seed: int, index: int) -> GenProgram:
    prologue, loops, tuples = _shape(index)
    rng = random.Random(seed * 1_000_003 + index)
    counters = iter(COUNTER_REGS)
    bounds = iter(BOUND_REGS)

    def stmt(kind: str, counter):
        if kind == "iadd_rr":
            return ("iadd_rr", rng.choice(INT_REGS), rng.choice(INT_REGS), rng.choice(INT_REGS))
        if kind == "iadd_ri":
            return ("iadd_ri", rng.choice(INT_REGS), rng.choice(INT_REGS), rng.randint(-100, 100))
        if kind == "fadd":
            return ("fadd", rng.choice(FLOAT_REGS), rng.choice(FLOAT_REGS),
                    rng.choice([k for k in range(-40, 41) if k]) / 8)
        if kind == "mov_r":
            sources = INT_REGS + ((counter,) if counter is not None else ())
            return ("mov_r", rng.choice(INT_REGS), rng.choice(sources))
        if kind == "mov_i":
            return ("mov_i", rng.choice(INT_REGS), rng.randint(-1000, 1000))
        if kind == "mov_f":
            return ("mov_r", rng.choice(FLOAT_REGS), rng.choice(FLOAT_REGS))
        if kind == "stslot_r" and counter is not None:
            return ("stslot_r", counter, rng.choice(INT_REGS + FLOAT_REGS))
        return ("stslot_i", rng.randint(0, 40), rng.choice(INT_REGS + FLOAT_REGS))

    def loop(ops, inner):
        counter, bound = next(counters), next(bounds)
        body = [stmt(kind, counter) for kind in ops]
        rng.shuffle(body)
        if inner is not None:
            inner_counter, inner_bound = next(counters), next(bounds)
            inner_loop = Loop(inner_counter, inner_bound,
                              [stmt(kind, inner_counter) for kind in inner])
            body.insert(rng.randint(0, len(body)), inner_loop)
        return Loop(counter, bound, body)

    body = [stmt(kind, None) for kind in prologue] + [loop(ops, inner) for ops, inner in loops]

    order = list(range(WARP))
    rng.shuffle(order)
    launch = {f"R{r}": [rng.randint(-50, 50) for _ in range(WARP)] for r in INT_REGS}
    launch.update({f"R{r}": [rng.randint(-40, 40) / 4 for _ in range(WARP)] for r in FLOAT_REGS})
    used_bounds = BOUND_REGS[:len(tuples[0])]
    for column, reg in enumerate(used_bounds):
        launch[f"R{reg}"] = [tuples[order[lane]][column] for lane in range(WARP)]
    text = f"# generated program {index}\n" + _render(body) + "EXIT\n"
    return GenProgram(index=index, text=text, body=body, launch=launch)


def _render(body: list) -> str:
    lines = []
    labels = iter(range(1000))

    def emit(stmts):
        for s in stmts:
            if isinstance(s, Loop):
                k = next(labels)
                lines.extend([
                    f"    MOV R{s.counter}, 0",
                    f"    ISETP.LT P0, R{s.bound}, 1",
                    f"    SSY J{k}",
                    f"    @P0 BRA U{k}",
                    f"B{k}:",
                ])
                emit(s.body)
                lines.extend([
                    f"    IADD R{s.counter}, R{s.counter}, 1",
                    f"    ISETP.LT P0, R{s.counter}, R{s.bound}",
                    f"    @P0 BRA B{k}",
                    f"U{k}: NOP.S",
                    f"J{k}:",
                ])
            else:
                lines.append("    " + _stmt_text(s))

    emit(body)
    return "\n".join(lines) + "\n"


def _stmt_text(s: tuple) -> str:
    kind = s[0]
    if kind == "iadd_rr":
        return f"IADD R{s[1]}, R{s[2]}, R{s[3]}"
    if kind == "iadd_ri":
        return f"IADD R{s[1]}, R{s[2]}, {s[3]}"
    if kind == "fadd":
        return f"FADD32I R{s[1]}, R{s[2]}, {s[3]!r}"
    if kind == "mov_r":
        return f"MOV R{s[1]}, R{s[2]}"
    if kind == "mov_i":
        return f"MOV R{s[1]}, {s[2]}"
    if kind == "stslot_r":
        return f"STSLOT [R{s[1]}], R{s[2]}"
    return f"STSLOT [{s[1]}], R{s[2]}"


def reference(program: GenProgram) -> tuple[tuple[tuple, ...], tuple[dict, ...]]:
    """Final registers (register-major, like RunResult.registers) and slots."""
    per_lane_regs = []
    per_lane_slots = []
    for lane in range(WARP):
        regs = [0] * REGISTERS
        for name, values in program.launch.items():
            value = values[lane]
            regs[int(name[1:])] = f32(value) if isinstance(value, float) else value
        slots: dict = {}
        _exec(program.body, regs, slots)
        per_lane_regs.append(regs)
        per_lane_slots.append(slots)
    registers = tuple(tuple(per_lane_regs[lane][r] for lane in range(WARP))
                      for r in range(REGISTERS))
    return registers, tuple(per_lane_slots)


def _exec(stmts: list, regs: list, slots: dict) -> None:
    for s in stmts:
        if isinstance(s, Loop):
            regs[s.counter] = 0
            if regs[s.bound] < 1:
                continue
            while True:
                _exec(s.body, regs, slots)
                regs[s.counter] = wrap32(regs[s.counter] + 1)
                if not regs[s.counter] < regs[s.bound]:
                    break
            continue
        kind = s[0]
        if kind == "iadd_rr":
            regs[s[1]] = wrap32(regs[s[2]] + regs[s[3]])
        elif kind == "iadd_ri":
            regs[s[1]] = wrap32(regs[s[2]] + s[3])
        elif kind == "fadd":
            regs[s[1]] = f32(regs[s[2]] + s[3])
        elif kind == "mov_r":
            regs[s[1]] = regs[s[2]]
        elif kind == "mov_i":
            regs[s[1]] = s[2]
        elif kind == "stslot_r":
            slots[regs[s[1]]] = regs[s[2]]
        else:
            slots[s[1]] = regs[s[2]]

"""Differential test: generated assembly programs against a scalar per-lane reference.

The generator and its reference are the asm-spill benchmark's own
``benchmarks/asmgen.py``, imported read-only.  The reference runs each
lane as a plain sequential program and never imports warpsim.  Its
float sums are all exact in float32, so a second test swaps in
immediates and launch values whose sums must round.
"""

import dataclasses
import sys
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import warpsim as ws

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import asmgen  # noqa: E402

PROFILE = ws.parse_profile(asmgen.PROFILE_TEXT)


def register_types(registers):
    return [[type(value) for value in row] for row in registers]


def slot_types(slots):
    return [{index: type(value) for index, value in lane.items()} for lane in slots]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       index=st.integers(min_value=0, max_value=999))
@settings(max_examples=60, deadline=None)
def test_generated_programs_match_the_scalar_reference(seed, index):
    gen = asmgen.generate(seed, index)
    program = ws.parse_program(gen.text)
    result = ws.run(program, ws.LaunchConfig(gen.launch, profile=PROFILE))
    ws.verify_result(result)
    registers, slots = asmgen.reference(gen)
    assert result.registers == registers
    assert register_types(result.registers) == register_types(registers)
    assert result.slots == slots
    assert slot_types(result.slots) == slot_types(slots)
    assert ws.parse_program(ws.format_program(program)) == program


NONZERO_TENTHS = st.integers(min_value=-40, max_value=40).filter(bool)


def with_tenths(body, draw):
    """``body`` with every ``fadd`` immediate, in loops too, replaced by a drawn float32 tenth."""
    out = []
    for s in body:
        if isinstance(s, asmgen.Loop):
            s = dataclasses.replace(s, body=with_tenths(s.body, draw))
        elif s[0] == "fadd":
            s = (*s[:3], asmgen.f32(draw(NONZERO_TENTHS) / 10))
        out.append(s)
    return out


def fadds(body):
    return sum(fadds(s.body) if isinstance(s, asmgen.Loop) else s[0] == "fadd" for s in body)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       index=st.integers(min_value=0, max_value=999), data=st.data())
@settings(max_examples=40, deadline=None)
def test_generated_programs_round_their_float_sums_like_the_scalar_reference(seed, index, data):
    """The generator's k/8 immediates and k/4 launch values add exactly in float32; tenths
    do not, so each FADD32I must round its sum once, to float32, as the reference does."""
    gen = asmgen.generate(seed, index)
    assume(fadds(gen.body))
    body = with_tenths(gen.body, data.draw)
    lanes = st.lists(st.integers(-40, 40), min_size=asmgen.WARP, max_size=asmgen.WARP)
    launch = dict(gen.launch)
    for r in asmgen.FLOAT_REGS:
        launch[f"R{r}"] = [asmgen.f32(k / 10) for k in data.draw(lanes)]
    gen = asmgen.GenProgram(gen.index, asmgen._render(body) + "EXIT\n", body, launch)
    result = ws.run(ws.parse_program(gen.text), ws.LaunchConfig(gen.launch, profile=PROFILE))
    registers, slots = asmgen.reference(gen)
    assert result.registers == registers
    assert register_types(result.registers) == register_types(registers)
    assert result.slots == slots

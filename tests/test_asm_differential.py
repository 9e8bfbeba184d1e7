"""Differential test: generated assembly programs against a scalar per-lane reference.

The generator and its reference are the asm-spill benchmark's own
``benchmarks/asmgen.py``, imported read-only.  The reference runs each
lane as a plain sequential program and never imports warpsim.
"""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

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

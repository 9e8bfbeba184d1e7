"""Built-in benchmark kernels and their per-lane loop-bound patterns.

Three kernels exercise the divergence machinery:

* ``single``: one counted loop whose upper bound is a per-lane launch
  value.  Lanes with smaller bounds drop out early, one DIV token per
  dropout, and the warp re-converges at the trailing pop-bit NOP.
* ``double``: the same loop nested inside an outer counted loop, both
  bounds fed from the same per-lane value.  The inner re-convergence
  point is re-armed by a fresh SSY on every outer iteration.
* ``single-instrumented``: the single loop with a cycle-counter read and
  a per-iteration timestamp store inside the body plus one trailing
  timestamp after the re-convergence point, so cost can be attributed
  before/after the stack unwinding.

Register conventions (all kernels): R0 accumulator, R4/R6/R7 loop
counters, bounds arrive in the registers listed in ``BOUND_REGISTERS``.
Each kernel is an assembly listing parsed once; ``warpsim dump`` prints
it back (:func:`warpsim.isa.format_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence, Union

from .core import LaunchConfig, WARP_SIZE
from .cost import KEPLER, ArchProfile
from .errors import ProgramError
from .isa import Program, parse_program

# float32-exact accumulator steps (printed in full decimal digits).
BODY_STEP = 1.3332999944686889648
OUTER_STEP = 2.3333001136779785156

# Slot index of the post-unwind timestamp; in-loop slots are 1..32.
FINAL_TIMESTAMP_SLOT = 33


class KernelId(str, Enum):
    SINGLE_LOOP = "single"
    DOUBLE_LOOP = "double"
    SINGLE_LOOP_INSTRUMENTED = "single-instrumented"


# Launch registers that receive the per-lane loop bounds.
BOUND_REGISTERS = {
    KernelId.SINGLE_LOOP: ("R5",),
    KernelId.DOUBLE_LOOP: ("R8", "R9"),
    KernelId.SINGLE_LOOP_INSTRUMENTED: ("R5",),
}


@dataclass(frozen=True)
class BoundPattern:
    """Per-lane loop limits with ``n`` lanes divergent from the rest.

    Lane ``t`` gets 32 for ``t <= 31 - n`` and ``63 - n - t`` otherwise,
    so the last ``n`` lanes count 31, 30, ... down to ``32 - n``.
    """

    n: int
    bounds: tuple[int, ...]


def check_n(n: int) -> None:
    """Raise :class:`ProgramError` unless ``n`` is a divergent-thread count, an int in 0..31."""
    if type(n) is not int:  # a bool or a float is no count
        raise ProgramError(f"divergent-thread count must be an integer in 0..31, got {n!r}")
    if not 0 <= n <= 31:
        raise ProgramError(f"divergent-thread count must be in 0..31, got {n}")


def bound_pattern(n: int) -> BoundPattern:
    check_n(n)
    bounds = tuple(32 if t <= 31 - n else 63 - n - t for t in range(WARP_SIZE))
    return BoundPattern(n=n, bounds=bounds)


# One listing per kernel, in the layout `warpsim dump` prints.
_LISTINGS = {
    KernelId.SINGLE_LOOP: f"""
; Counted loop with per-lane bound in R5; counter R4, accumulator R0.
        MOV R4, 0                   ; i = 0
        MOV R0, 0                   ; accumulator
        ISETP.LT P0, R5, 1          ; guard: bound < 1
        CLOCK R6                    ; opening clock read
        SSY join
        @P0 BRA unwind
        NOP
        NOP
body:   IADD R4, R4, 1
        FADD32I R0, R0, {BODY_STEP!r}
        ISETP.LT P0, R4, R5         ; i < bound
        @P0 BRA body
unwind: NOP.S
join:   CLOCK R7                    ; closing clock read
        EXIT
""",
    KernelId.DOUBLE_LOOP: f"""
; Nested counted loops; outer bound R8, inner bound R9.  Outer counter
; R6, inner counter R7, accumulator R0.  The inner guard predicate is
; recomputed before the inner SSY on every outer iteration, and the inner
; SSY points past the inner unwind at the outer increment, matching how
; such loops compile.
              MOV R0, 0                     ; accumulator
              ISETP.LT P0, R8, 1            ; outer guard: bound < 1
              CLOCK R10                     ; opening clock read
              SSY join
              @P0 BRA outer_unwind
              MOV R6, 0                     ; j = 0
outer_body:   ISETP.LT P0, R9, 1            ; inner guard: bound < 1
              MOV R7, 0                     ; i = 0
              SSY outer_step
              @P0 BRA inner_unwind
inner_body:   IADD R7, R7, 1
              FADD32I R0, R0, {BODY_STEP!r}
              ISETP.LT P0, R7, R9           ; i < inner bound
              @P0 BRA inner_body
inner_unwind: NOP.S
outer_step:   IADD R6, R6, 1
              FADD32I R0, R0, {OUTER_STEP!r}
              ISETP.LT P0, R6, R8           ; j < outer bound
              @P0 BRA outer_body
outer_unwind: NOP.S
join:         CLOCK R11                     ; closing clock read
              EXIT
""",
    KernelId.SINGLE_LOOP_INSTRUMENTED: f"""
; Single loop with per-iteration timestamps and a post-unwind one.  Each
; iteration stores the cycle counter to slot i (1..32); after the
; re-convergence point one more timestamp goes to the final slot.  Lane
; timelines land in RunResult.slots.
        MOV R4, 0                   ; i = 0
        MOV R0, 0                   ; accumulator
        ISETP.LT P0, R5, 1          ; guard: bound < 1
        CLOCK R7                    ; opening clock read
        SSY join
        @P0 BRA unwind
body:   IADD R4, R4, 1
        FADD32I R0, R0, {BODY_STEP!r}
        CLOCK R6
        STSLOT [R4], R6             ; timestamp slot i
        ISETP.LT P0, R4, R5         ; i < bound
        @P0 BRA body
unwind: NOP.S
join:   CLOCK R6
        STSLOT [{FINAL_TIMESTAMP_SLOT}], R6
        EXIT
""",
}


@lru_cache(maxsize=None)
def _parsed(kernel: KernelId) -> Program:
    return parse_program(_LISTINGS[kernel])


def kernel_program(kernel: Union[KernelId, str]) -> Program:
    """The kernel's parsed listing; one shared object per kernel, by name or id."""
    return _parsed(KernelId(kernel))


def kernel_launch(kernel: Union[KernelId, str], bounds: Sequence[int],
                  profile: ArchProfile = KEPLER) -> LaunchConfig:
    """Launch configuration feeding per-lane bounds to a built-in kernel."""
    kernel = KernelId(kernel)
    if len(bounds) != WARP_SIZE:
        raise ProgramError(f"need {WARP_SIZE} bounds, got {len(bounds)}")
    registers = {name: tuple(bounds) for name in BOUND_REGISTERS[kernel]}
    return LaunchConfig(registers=registers, profile=profile)

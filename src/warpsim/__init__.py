"""Warp-level SIMT divergence emulator with a stack-spill cycle cost model."""

from .core import (DEFAULT_BUDGET, WARP_SIZE, EventRecord, LaunchConfig, RunResult,
                   TraceRecord, WarpState, run, step, verify_result)
from .cost import (KEPLER, MAXWELL, ArchProfile, CostEvents, charge, get_profile, load_profile,
                   parse_profile)
from .errors import AsmError, ModelViolation, ProgramError, RunawayLoopError
from .harness import (OracleSet, compare, emit_trace, expected_max_depth, expected_push_count,
                      expected_spill_count, fit_curve, format_compare_report, make_row,
                      run_kernel, sweep, write_sweep)
from .isa import Instruction, Opcode, Program, f32, format_program, parse_program
from .kernels import (BODY_STEP, FINAL_TIMESTAMP_SLOT, OUTER_STEP, KernelId, bound_pattern,
                      kernel_launch, kernel_program)
from .stack import StackEvent, SyncStack, Token, TokenKind

__version__ = "0.1.0"

__all__ = [
    "ArchProfile", "AsmError", "BODY_STEP", "CostEvents", "DEFAULT_BUDGET", "EventRecord",
    "FINAL_TIMESTAMP_SLOT", "Instruction", "KEPLER", "KernelId", "LaunchConfig", "MAXWELL",
    "ModelViolation", "Opcode", "OracleSet", "OUTER_STEP", "Program", "ProgramError",
    "RunResult", "RunawayLoopError", "StackEvent", "SyncStack", "Token", "TokenKind",
    "TraceRecord", "WARP_SIZE", "WarpState", "bound_pattern", "charge", "compare", "emit_trace",
    "expected_max_depth", "expected_push_count", "expected_spill_count", "f32", "fit_curve",
    "format_compare_report", "format_program", "get_profile", "kernel_launch", "kernel_program",
    "load_profile", "make_row", "parse_profile", "parse_program", "run", "run_kernel", "step",
    "sweep", "verify_result", "write_sweep",
]

"""Command-line front end: run | sweep | compare | trace | dump.

Exit codes: 0 success, 1 usage or input error, 2 model violation during
emulation, 3 comparison failure.  Output is deterministic; identical
invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import isa
from .core import DEFAULT_BUDGET, LaunchConfig, run, verify_result
from .cost import ArchProfile, charge, get_profile, load_profile
from .errors import ModelViolation, ProgramError
from .harness import (OracleSet, compare, emit_trace, format_compare_report, make_row,
                      run_kernel, sweep, write_sweep)
from .isa import format_program, parse_program, read_text
from .kernels import KernelId, kernel_program

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_COMPARE = 3

_KERNEL_CHOICES = [k.value for k in KernelId]


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise argparse.ArgumentTypeError(f"expects an integer >= 1, got {text!r}")
    return budget


def _add_common(parser, *, kernel_only=False):
    if kernel_only:
        parser.add_argument("--kernel", required=True, choices=_KERNEL_CHOICES)
    else:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--kernel", choices=_KERNEL_CHOICES)
        source.add_argument("--program", metavar="FILE", help="assembly source file")
        parser.add_argument("--reg", action="append", default=[], metavar="NAME=V0,...,V31",
                            help="launch register values (one value broadcasts)")
    arch = parser.add_mutually_exclusive_group()
    arch.add_argument("--arch", default=None, help="built-in profile name (default kepler)")
    arch.add_argument("--profile-file", metavar="FILE", help="key=value profile file")
    if kernel_only:
        parser.add_argument("--n-range", metavar="A..B", default=None,
                            help="inclusive sweep range inside 0..31 (default 0..31)")
    else:
        parser.add_argument("--n", type=int, default=None,
                            help="divergent-thread count for built-in kernels (0..31)")
    parser.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                        help="instruction budget before a runaway-loop error")
    parser.add_argument("--out", metavar="FILE", default=None, help="write output here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpsim",
        description="Warp-level SIMT divergence emulator and divergence-cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation and print its counters")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep n over a kernel and emit rows")
    _add_common(p_sweep, kernel_only=True)
    p_sweep.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="sweep and check against the closed-form oracles")
    _add_common(p_cmp, kernel_only=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_trace = sub.add_parser("trace", help="run once and emit the instruction-level trace")
    _add_common(p_trace)
    p_trace.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p_trace.set_defaults(func=cmd_trace)

    p_dump = sub.add_parser("dump", help="print the assembly of a built-in kernel")
    p_dump.add_argument("--kernel", required=True, choices=_KERNEL_CHOICES)
    p_dump.add_argument("--out", metavar="FILE", default=None)
    p_dump.set_defaults(func=cmd_dump)
    return parser


def _profile_from(args) -> ArchProfile:
    if getattr(args, "profile_file", None):
        return load_profile(args.profile_file)
    return get_profile(args.arch or "kepler")


def _parse_reg_option(text: str) -> tuple[str, list]:
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise ProgramError(f"--reg expects NAME=v0,...,v31, got {text!r}")
    parsed = []
    for tok in values.split(","):
        tok = tok.strip()
        value = isa._parse_int_literal(tok)  # integers by the assembler's immediate rule
        if value is None:
            if isa._INT_RE.match(tok):  # shaped like an integer but not one, e.g. "08"
                raise ProgramError(f"--reg {name}: malformed integer {tok!r}")
            try:
                value = float(tok)
            except ValueError:
                raise ProgramError(f"--reg {name}: not a number: {tok!r}") from None
        parsed.append(value)
    if len(parsed) == 1:
        parsed = parsed * 32
    if len(parsed) != 32:
        raise ProgramError(f"--reg {name}: need 1 or 32 values, got {len(parsed)}")
    return name, parsed


def _parse_range(text) -> range:
    if text is None:
        return range(32)
    lo, sep, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        lo_i, hi_i = -1, -1
    if not sep or not 0 <= lo_i <= hi_i <= 31:
        raise ProgramError(f"--n-range expects A..B inside 0..31, got {text!r}")
    return range(lo_i, hi_i + 1)


@contextmanager
def _sink(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _run_from_args(args, profile, record_trace=False):
    """Returns (label, n-or-None, audited result) for either input mode."""
    if args.kernel:
        if args.reg:
            raise ProgramError("--reg applies only to --program runs; "
                               "built-in kernels take their bounds from --n")
        if args.n is None:
            raise ProgramError("--n is required with --kernel")
        result = run_kernel(args.kernel, args.n, profile, budget=args.budget,
                            record_trace=record_trace)
        return args.kernel, args.n, verify_result(result)
    if args.n is not None:
        raise ProgramError("--n applies only to --kernel runs")
    program = parse_program(read_text(args.program))
    registers: dict = {}
    for name, values in map(_parse_reg_option, args.reg):
        if name in registers:  # a dict would keep the last value silently
            raise ProgramError(f"--reg {name} given more than once")
        registers[name] = values
    launch = LaunchConfig(registers=registers, profile=profile)
    result = run(program, launch, budget=args.budget, record_trace=record_trace)
    return args.program, None, verify_result(result)


def cmd_run(args) -> int:
    profile = _profile_from(args)
    label, n, result = _run_from_args(args, profile)
    lines = [
        f"kernel: {label}",
        f"arch: {profile.name}",
    ]
    if n is not None:
        lines.append(f"n: {n}")
    lines += [
        f"executed_instructions: {result.executed_instructions}",
        f"executed_branches: {result.executed_branches}",
        f"sync_pushes: {result.sync_pushes}",
        f"div_pushes: {result.div_pushes}",
        f"pops: {result.pops}",
        f"max_depth: {result.max_depth}",
        f"spill_stores: {result.spill_stores}",
        f"spill_loads: {result.spill_loads}",
        f"emulated_cycles: {result.cycles}",
    ]
    if args.kernel in profile.base_cycles:
        row = make_row(args.kernel, profile, n, result)
        lines.append(f"predicted_cycles: {row.predicted_cycles}")
        if row.oracle_cycles is not None:
            lines += [f"oracle_cycles: {row.oracle_cycles}", f"diff: {row.diff}"]
    else:
        lines.append(f"predicted_overhead_cycles: {charge(result.events, profile)}")
    with _sink(args.out) as sink:
        sink.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    profile = _profile_from(args)
    rows = sweep(args.kernel, profile, _parse_range(args.n_range), budget=args.budget)
    with _sink(args.out) as sink:
        write_sweep(rows, sink, args.format)
    return EXIT_OK


def cmd_compare(args) -> int:
    profile = _profile_from(args)
    rows = sweep(args.kernel, profile, _parse_range(args.n_range), budget=args.budget)
    report = compare(rows, OracleSet.for_profile(args.kernel, profile))
    with _sink(args.out) as sink:
        sink.write(format_compare_report(report))
    return EXIT_OK if report.ok else EXIT_COMPARE


def cmd_trace(args) -> int:
    profile = _profile_from(args)
    _, _, result = _run_from_args(args, profile, record_trace=True)
    with _sink(args.out) as sink:
        emit_trace(result, sink, args.format)
    return EXIT_OK


def cmd_dump(args) -> int:
    with _sink(args.out) as sink:
        sink.write(format_program(kernel_program(args.kernel)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ProgramError as exc:
        print(f"warpsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelViolation as exc:
        print(f"warpsim: model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"warpsim: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

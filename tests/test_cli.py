"""Command-line behavior: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import warpsim.cli
from warpsim.cli import _parse_reg_option, main
from warpsim.errors import ModelViolation
from warpsim.stack import DEPTH_LIMIT


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dump_single_loop(capsys):
    code, out, err = invoke(capsys, "dump", "--kernel", "single")
    assert code == 0 and err == ""
    assert "SSY " in out and "@P0 BRA " in out and "NOP.S" in out


def test_run_walk_through(capsys):
    code, out, _ = invoke(capsys, "run", "--kernel", "single",
                          "--arch", "kepler", "--n", "2")
    assert code == 0
    assert "div_pushes: 2" in out
    assert "max_depth: 3" in out
    assert "predicted_cycles: 1796" in out
    assert "oracle_cycles: 1796" in out
    assert "diff: 0" in out


def test_run_double_zero_predicts_base(capsys):
    code, out, _ = invoke(capsys, "run", "--kernel", "double",
                          "--arch", "kepler", "--n", "0")
    assert code == 0
    assert "predicted_cycles: 57024" in out


def test_run_custom_program_overhead_only(capsys, tmp_path):
    source = tmp_path / "loop.sasm"
    source.write_text("""
        ISETP.LT P0, R5, 1
        SSY join
        @P0 BRA unwind
    body:
        IADD R4, R4, 1
        ISETP.LT P0, R4, R5
        @P0 BRA body
    unwind:
        NOP.S
    join:
        EXIT
    """, encoding="utf-8")
    bounds = ",".join(str(32 if t < 30 else 61 - t) for t in range(32))
    code, out, _ = invoke(capsys, "run", "--program", str(source),
                          "--reg", f"R5={bounds}")
    assert code == 0
    assert "div_pushes: 2" in out
    assert "predicted_overhead_cycles: 64" in out
    assert "predicted_cycles:" not in out


def test_run_output_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "run", "--kernel", "double", "--n", "17")
    _, second, _ = invoke(capsys, "run", "--kernel", "double", "--n", "17")
    assert first == second


def test_sweep_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = invoke(capsys, "sweep", "--kernel", "single",
                          "--arch", "kepler", "--out", str(out_path))
    assert code == 0 and out == ""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("n,kernel,arch,")
    assert len(lines) == 33
    assert lines[1].startswith("0,single,kepler,")


def test_sweep_range_and_jsonl(capsys):
    code, out, _ = invoke(capsys, "sweep", "--kernel", "double",
                          "--n-range", "0..3", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows] == [0, 1, 2, 3]
    assert rows[0]["total_pushes"] == 33


def test_compare_clean_exits_zero(capsys):
    code, out, _ = invoke(capsys, "compare", "--kernel", "double", "--arch", "kepler")
    assert code == 0
    assert "overall: ok" in out
    assert "check push_counts: ok" in out


def test_compare_wrong_profile_exits_three(capsys, tmp_path):
    profile = tmp_path / "wrong.profile"
    profile.write_text("name = kepler\ndiv_cost = 31\nbase.single = 1732\n",
                       encoding="utf-8")
    code, out, _ = invoke(capsys, "compare", "--kernel", "single",
                          "--profile-file", str(profile), "--n-range", "0..4")
    assert code == 3
    assert "overall: FAIL" in out


def test_trace_jsonl(capsys):
    code, out, _ = invoke(capsys, "trace", "--kernel", "single", "--n", "2")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["ordinal"] == 1
    assert max(record["depth"] for record in records) == 3


@pytest.mark.parametrize("argv", [
    ("run", "--kernel", "single"),                      # missing --n
    ("run", "--kernel", "single", "--n", "77"),         # n out of range
    ("run", "--kernel", "nonesuch", "--n", "1"),        # unknown kernel
    ("run", "--kernel", "single", "--n", "1", "--arch", "fermi"),
    ("run", "--program", "/does/not/exist", ),
    ("sweep", "--kernel", "single", "--n-range", "5..2"),
    ("sweep", "--kernel", "single", "--n-range", "whee"),
    ("run", "--kernel", "single", "--n", "1", "--reg", "R1=1,2"),
    ("frobnicate",),
    (),
])
def test_usage_errors_exit_one(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 1


def test_usage_error_message_on_stderr(capsys):
    code, _, err = invoke(capsys, "run", "--kernel", "single", "--n", "99")
    assert code == 1
    assert "error" in err


def test_model_violation_exits_two(capsys, tmp_path):
    source = tmp_path / "bad.sasm"
    source.write_text("NOP.S\nEXIT\n", encoding="utf-8")
    code, _, err = invoke(capsys, "run", "--program", str(source))
    assert code == 2
    assert "model violation" in err


@pytest.mark.parametrize("argv", [
    ("--kernel", "single", "--n", "2"),
    ("--program", "loop.sasm"),
], ids=["kernel", "program"])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_a_failed_audit_exits_two_and_writes_nothing(capsys, tmp_path, monkeypatch,
                                                     command, argv):
    def fail(result):
        raise ModelViolation("audit failed")

    (tmp_path / "loop.sasm").write_text("SSY done\nNOP.S\ndone: EXIT\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(warpsim.cli, "verify_result", fail)
    code, out, err = invoke(capsys, command, *argv, "--out", "out.txt")
    assert (code, out, err) == (2, "", "warpsim: model violation: audit failed\n")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("text", [
    "FADD32I R1, RZ, inf\nMOV R0, 7\nSTSLOT [R1], R0\nEXIT\n",
    "FADD32I R1, RZ, 1.5\nIADD R2, R1, 1\nEXIT\n",
    ".registers 4\nFADD32I R1, RZ, 3e38\nFADD32I R1, R1, 3e38\nEXIT\n",
], ids=["slot-index-inf", "iadd-float", "fadd-overflow"])
def test_lane_value_violations_exit_two(capsys, tmp_path, text):
    source = tmp_path / "bad.sasm"
    source.write_text(text, encoding="utf-8")
    code, _, err = invoke(capsys, "run", "--program", str(source))
    assert code == 2
    assert "model violation" in err


def test_push_loop_stops_at_the_depth_limit(capsys, tmp_path):
    source = tmp_path / "push_loop.sasm"
    source.write_text("top: SSY top\nBRA top\nEXIT\n", encoding="utf-8")
    start = time.perf_counter()
    code, _, err = invoke(capsys, "run", "--program", str(source))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"depth limit of {DEPTH_LIMIT} tokens" in err


def test_iadd_ignores_a_float_in_an_inactive_lane(capsys, tmp_path):
    source = tmp_path / "inactive.sasm"
    source.write_text("SSY join\nISETP.LT P0, R5, 16\n@P0 BRA flt\nIADD R2, R1, 1\n"
                      "BRA unwind\nflt: FADD32I R1, RZ, 1.5\nunwind: NOP.S\njoin: EXIT\n",
                      encoding="utf-8")
    lanes = ",".join(str(t) for t in range(32))
    code, out, err = invoke(capsys, "run", "--program", str(source), "--reg", f"R5={lanes}")
    assert code == 0 and err == ""
    assert "div_pushes: 1" in out


def test_reg_float_outside_float32_exits_one(capsys, tmp_path):
    source = tmp_path / "prog.sasm"
    source.write_text("IADD R2, R1, 0\nEXIT\n", encoding="utf-8")
    code, out, err = invoke(capsys, "run", "--program", str(source), "--reg", "R1=1e39")
    assert code == 1 and out == ""
    assert "R1" in err and "float32" in err


@pytest.mark.parametrize("command", ["run", "trace"])
def test_n_with_a_program_exits_one(capsys, tmp_path, command):
    source = tmp_path / "prog.sasm"
    source.write_text("NOP\nEXIT\n", encoding="utf-8")
    code, out, err = invoke(capsys, command, "--program", str(source), "--n", "77")
    assert code == 1 and out == ""
    assert "--n applies only to --kernel runs" in err


def test_negative_base_constant_in_a_profile_file_exits_one(capsys, tmp_path):
    profile = tmp_path / "negative.profile"
    profile.write_text("div_cost = 32\nbase.single = -5\n", encoding="utf-8")
    code, out, err = invoke(capsys, "run", "--kernel", "single", "--n", "0",
                            "--profile-file", str(profile))
    assert code == 1 and out == ""
    assert "base.single must be >= 0" in err


@pytest.mark.parametrize("regs", [("R1=1", "R1=2"), ("R1=1", "R1=1"), ("r1=1", "R1=2")],
                         ids=["same-name", "same-value", "case"])
def test_two_reg_options_for_one_register_exit_one(capsys, tmp_path, regs):
    source = tmp_path / "prog.sasm"
    source.write_text("MOV R2, R1\nEXIT\n", encoding="utf-8")
    argv = [arg for option in regs for arg in ("--reg", option)]
    code, out, err = invoke(capsys, "run", "--program", str(source), *argv)
    assert code == 1 and out == ""
    assert "R1" in err and "Traceback" not in err


@pytest.mark.parametrize("value,message", [
    ("nan", "NaN"), ("99999999999", "32-bit signed"), ("0xFFFFFFFF", "32-bit signed")])
def test_reg_value_follows_the_immediate_rules(capsys, tmp_path, value, message):
    source = tmp_path / "prog.sasm"
    source.write_text("MOV R2, R1\nEXIT\n", encoding="utf-8")
    code, out, err = invoke(capsys, "run", "--program", str(source), "--reg", f"R1={value}")
    assert code == 1 and out == ""
    assert "R1" in err and message in err
    code, out, _ = invoke(capsys, "run", "--program", str(source), "--reg", "R1=-inf")
    assert code == 0 and "instructions" in out


@pytest.mark.parametrize("argv,content", [
    (("run", "--program", "BAD"), b"EXIT \xff\n"),
    (("run", "--program", "OK", "--profile-file", "BAD"), b"div_cost = 1 \xff\n"),
], ids=["program", "profile-file"])
def test_non_utf8_file_exits_one_naming_it(capsys, tmp_path, argv, content):
    paths = {"OK": tmp_path / "ok.sasm", "BAD": tmp_path / "bad.txt"}
    paths["OK"].write_text("EXIT\n", encoding="utf-8")
    paths["BAD"].write_bytes(content)
    code, out, err = invoke(capsys, *[str(paths.get(arg, arg)) for arg in argv])
    assert code == 1 and out == ""
    assert "Traceback" not in err and str(paths["BAD"]) in err and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ("run", "--program", "PROGRAM", "--budget", "0"),
    ("run", "--program", "PROGRAM", "--budget", "-1"),
    ("run", "--kernel", "single", "--n", "2", "--budget", "0"),
    ("sweep", "--kernel", "single", "--budget", "0"),
    ("compare", "--kernel", "double", "--budget", "-5"),
    ("trace", "--kernel", "single", "--n", "0", "--budget", "0"),
    ("run", "--program", "PROGRAM", "--budget", "many"),
])
def test_budget_below_one_is_a_usage_error(capsys, tmp_path, argv):
    source = tmp_path / "ok.sasm"
    source.write_text("EXIT\n", encoding="utf-8")
    argv = [str(source) if arg == "PROGRAM" else arg for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert "--budget" in err and "no EXIT" not in err


def test_budget_of_one_runs_a_one_instruction_program(capsys, tmp_path):
    source = tmp_path / "ok.sasm"
    source.write_text("EXIT\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "run", "--program", str(source), "--budget", "1")
    assert code == 0 and "executed_instructions: 1" in out


def test_asm_error_exits_one_with_line(capsys, tmp_path):
    source = tmp_path / "bad.sasm"
    source.write_text("NOP\nFROB R1\nEXIT\n", encoding="utf-8")
    code, _, err = invoke(capsys, "run", "--program", str(source))
    assert code == 1
    assert "line 2" in err


def test_malformed_integer_literal_exits_one(capsys, tmp_path):
    source = tmp_path / "bad.sasm"
    source.write_text("MOV R1, 08\nEXIT\n", encoding="utf-8")
    code, _, err = invoke(capsys, "run", "--program", str(source))
    assert code == 1
    assert "line 1" in err


def test_reg_broadcast_single_value(capsys, tmp_path):
    source = tmp_path / "prog.sasm"
    source.write_text("IADD R1, R5, 1\nEXIT\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "run", "--program", str(source),
                          "--reg", "R5=9")
    assert code == 0
    assert "executed_instructions: 2" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    # The child imports the warpsim under test, installed or not.
    src = str(Path(warpsim.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "warpsim.cli", "dump", "--kernel", "double"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "NOP.S" in proc.stdout


# Token soup for the CLI fuzz test: statements shaped like the assembly,
# with operands that are mostly valid, and junk in between.
_OPERANDS = {
    "reg": ["R0", "R1", "R2", "R5", "RZ"], "pred": ["P0", "P1", "PT"],
    "target": ["top", "join", "0", "1", "2"], "int": ["0", "1", "-1", "16", "0x7FFFFFFF"],
    "float": ["1.5", "-0.0", "3e38", "inf"], "slot": ["[R1]", "[RZ]", "[0]", "[40]"],
}
_OPERANDS["reg|int"] = _OPERANDS["reg"] + _OPERANDS["int"]
_JUNK = st.one_of(st.sampled_from(["R16", "P7", "nan", "1e39", "08", "0b12", "2147483648",
                                   "[-1]", "[", ";", "#", "@P0", ":", ".S"]),
                  st.text(max_size=2))
_SHAPES = {
    "SSY": ("target",), "BRA": ("target",), "@P0 BRA": ("target",), "@PT BRA": ("target",),
    "NOP": (), "NOP.S": (), "IADD": ("reg", "reg", "reg|int"),
    "IADD.S": ("reg", "reg", "reg|int"), "FADD32I": ("reg", "reg", "float"),
    "ISETP.LT": ("pred", "reg", "reg|int"), "MOV": ("reg", "reg|int"), "CLOCK": ("reg",),
    "STSLOT": ("slot", "reg"), "EXIT": (),
}


def _statements(junk):
    def operand(shape):
        pool = st.sampled_from(_OPERANDS[shape])
        return st.one_of(*[pool] * 9, _JUNK) if junk else pool
    return st.sampled_from(sorted(_SHAPES)).flatmap(
        lambda mnemonic: st.tuples(*map(operand, _SHAPES[mnemonic])).map(
            lambda operands: f"{mnemonic} {', '.join(operands)}"))


_ASM_LINES = st.tuples(st.sampled_from(["", "", "", "", "top:", "join:", ":"]),
                       st.one_of(*[_statements(junk=True)] * 5, _JUNK)).map(" ".join)
# Well-formed programs, so that runs reach the interpreter's own checks.
_PROGRAMS = st.lists(_statements(junk=False), max_size=8).map(
    lambda lines: ("top: " + "\n".join(lines) + "\njoin: EXIT\n").encode())
_PROFILE_LINES = st.tuples(
    st.sampled_from(["name", "div_cost", "phys_capacity", "spill_chunk", "spill_store_cost",
                     "spill_load_cost", "issue_cost", "base.single", "base.double", "base.",
                     "bogus", ""]),
    st.sampled_from(["=", " = ", "=", "=", ""]),
    st.sampled_from(["0", "1", "-1", "4", "16", "none", "inf", "0x10", "1e3", "", "x",
                     "99999999999999999999", "-99999999999"])).map("".join)
_REG_VALUES = ["0", "1", "-1", "0x10", "1.5", "nan", "inf", "-inf", "1e39", "2147483647",
               "2147483648", "-2147483649", "", "x", "08"]
_REG_OPTIONS = st.tuples(
    st.sampled_from(["R1", "R5", "RZ", "R99", "P0", "", "r2"]),
    st.sampled_from(["=", "", "=="]),
    st.one_of(st.sampled_from(_REG_VALUES),
              st.sampled_from(_REG_VALUES).map(lambda value: ",".join([value] * 32)),
              st.lists(st.sampled_from(_REG_VALUES), max_size=33).map(",".join))).map("".join)


def _soup_file(lines):
    return st.tuples(st.lists(lines, max_size=8).map("\n".join), st.sampled_from([1, 1, 1, 0]),
                     st.one_of(st.just(b""), st.just(b""), st.binary(max_size=3))).map(
        lambda parts: (parts[0] + ("\nEXIT\n" if parts[1] else "")).encode(
            "utf-8", "surrogatepass") + parts[2])


@st.composite
def cli_soup(draw):
    """argv plus the bytes of the program and profile files it names."""
    budget = ["--budget", str(draw(st.integers(min_value=-1, max_value=2000)))]
    profile = draw(st.one_of(st.none(), st.none(), _soup_file(_PROFILE_LINES)))
    arch = [] if profile is None else ["--profile-file", "PROFILE"]
    if draw(st.booleans()):
        command = draw(st.sampled_from(["run", "trace"]))
        regs = [arg for option in draw(st.lists(_REG_OPTIONS, max_size=1))
                for arg in ("--reg", option)]
        argv = [command, "--program", "PROGRAM", *regs]
        program = draw(st.one_of(_PROGRAMS, _soup_file(_ASM_LINES)))
    else:
        kernel = draw(st.sampled_from(["single", "double", "single-instrumented"]))
        if draw(st.booleans()):
            argv = [draw(st.sampled_from(["run", "trace"])), "--kernel", kernel,
                    "--n", draw(st.sampled_from(["0", "5", "31", "32", "-1", "x"]))]
        else:
            argv = [draw(st.sampled_from(["sweep", "compare"])), "--kernel", kernel,
                    "--n-range", draw(st.sampled_from(["0..0", "3..4", "31..31", "2..1", "x"]))]
        program = b""
    return argv + arch + budget + ["--out", "OUT"], program, profile


@given(cli_soup())
@settings(max_examples=200, deadline=None)
def test_fuzzed_cli_input_ends_in_an_exit_code(tmp_path_factory, soup):
    argv, program, profile = soup
    directory = tmp_path_factory.getbasetemp()
    paths = {"PROGRAM": directory / "fuzz.sasm", "PROFILE": directory / "fuzz.profile",
             "OUT": directory / "fuzz.out"}
    paths["PROGRAM"].write_bytes(program)
    if profile is not None:
        paths["PROFILE"].write_bytes(profile)
    assert main([str(paths.get(arg, arg)) for arg in argv]) in {0, 1, 2, 3}


def test_exit_with_lanes_still_parked_exits_two(capsys, tmp_path):
    source = tmp_path / "parked.sasm"
    source.write_text("ISETP.LT P0, R1, 5\n@P0 BRA y\nBRA z\ny: NOP.S\nz: EXIT\n",
                      encoding="utf-8")
    lanes = ",".join(str(t) for t in range(32))
    code, out, err = invoke(capsys, "run", "--program", str(source), "--reg", f"R1={lanes}")
    assert code == 2 and out == ""
    assert err == ("warpsim: model violation: EXIT with active mask 0xffffffe0, "
                   "expected launch mask 0xffffffff\n")


def test_reg_value_count_other_than_1_or_32_exits_one(capsys, tmp_path):
    source = tmp_path / "prog.sasm"
    source.write_text("MOV R2, R1\nEXIT\n", encoding="utf-8")
    code, out, err = invoke(capsys, "run", "--program", str(source), "--reg", "R1=1,2")
    assert code == 1 and out == ""
    assert err == "warpsim: error: --reg R1: need 1 or 32 values, got 2\n"


@pytest.mark.parametrize("value", ["08", "0b12"])
def test_reg_integer_shaped_non_integer_exits_one(capsys, tmp_path, value):
    source = tmp_path / "prog.sasm"
    source.write_text("IADD R1, R5, 1\nEXIT\n", encoding="utf-8")
    code, out, err = invoke(capsys, "run", "--program", str(source), "--reg", f"R5={value}")
    assert code == 1 and out == ""
    assert err == f"warpsim: error: --reg R5: malformed integer '{value}'\n"


@pytest.mark.parametrize("token,value", [
    ("0x10", 16), ("-3", -3), ("+5", 5), ("1.5", 1.5), ("inf", float("inf")),
    ("1_000", 1000.0),
])
def test_reg_reads_integers_by_the_immediate_rule(token, value):
    name, values = _parse_reg_option(f"R5={token}")
    assert name == "R5"
    assert values == [value] * 32
    assert {type(v) for v in values} == {type(value)}

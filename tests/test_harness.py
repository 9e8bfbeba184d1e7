"""Sweep rows, closed-form oracles, compare reports, trace emission."""

import csv
import dataclasses
import io
import json

import pytest

import warpsim as ws
from warpsim.errors import ProgramError
from warpsim.harness import make_row

from conftest import checked_run, loop_stack_sequence, replay_overlay


class TestOracles:
    @pytest.mark.parametrize("call", [
        ws.bound_pattern,
        lambda n: ws.expected_push_count("single", n),
        lambda n: ws.expected_max_depth("double", n),
        lambda n: ws.expected_spill_count("single", n, 16, 4),
        lambda n: ws.fit_curve("single", "kepler", n),
        lambda n: ws.run_kernel("single", n, ws.KEPLER),
    ], ids=["bound_pattern", "push_count", "max_depth", "spill_count", "fit_curve", "run_kernel"])
    def test_a_kernel_point_and_its_oracles_check_n_alike(self, call):
        for n, message in [(32, "divergent-thread count must be in 0..31, got 32"),
                           (2.5, "divergent-thread count must be an integer in 0..31, got 2.5"),
                           (True, "divergent-thread count must be an integer in 0..31, got True")]:
            with pytest.raises(ProgramError) as err:
                call(n)
            assert str(err.value) == message

    def test_push_count_formulas(self):
        assert ws.expected_push_count("single", 0) == 1
        assert ws.expected_push_count("double", 0) == 33
        assert ws.expected_push_count("double", 31) == 560
        assert ws.expected_push_count("single-instrumented", 9) == 10
        for n in range(32):
            assert ws.expected_push_count("single", n) == n + 1
            assert ws.expected_push_count("double", n) == n * (65 - n) // 2 + 33

    def test_max_depth_formulas(self):
        assert ws.expected_max_depth("single", 15) == 16  # largest no-spill case
        assert ws.expected_max_depth("double", 14) == 16
        assert ws.expected_max_depth("single", 0) == 1

    def test_spill_count_closed_form(self):
        values = [ws.expected_spill_count("single", n, 16, 4) for n in range(32)]
        assert values[:16] == [0] * 16
        assert values[16:20] == [1, 1, 1, 1]
        assert values[20] == 2 and values[24] == 3 and values[28] == 4
        assert ws.expected_spill_count("double", 5, 16, 4) is None
        assert ws.expected_spill_count("single", 31, phys_capacity=None, spill_chunk=4) == 0

    def test_fit_curves(self):
        assert ws.fit_curve("single", "kepler", 31) == 2724
        assert ws.fit_curve("double", "kepler", 0) == 57024
        assert ws.fit_curve("double", "kepler", 5) == 61824
        assert ws.fit_curve("single", "maxwell", 3) is None
        assert ws.fit_curve("single-instrumented", "kepler", 3) is None
        with pytest.raises(ProgramError, match="0..31"):
            ws.fit_curve("double", "kepler", 32.5)

    def test_oracle_set_binds_profile(self):
        oracles = ws.OracleSet.for_profile("single", ws.KEPLER)
        assert oracles == ws.OracleSet(ws.KernelId.SINGLE_LOOP, "kepler", 16, 4)
        unbounded = ws.OracleSet.for_profile("double", ws.KEPLER.without_spilling())
        assert unbounded == ws.OracleSet(ws.KernelId.DOUBLE_LOOP, "kepler", None, 4)
        small = ws.OracleSet.for_profile("single", ws.parse_profile(
            "name = tiny\nphys_capacity = 4\nspill_chunk = 2"))
        assert (small.arch, small.phys_capacity, small.spill_chunk) == ("tiny", 4, 2)


class TestSweep:
    def test_single_loop_columns(self, kepler_sweeps):
        rows = kepler_sweeps["single"]
        assert [row.n for row in rows] == list(range(32))
        assert [row.div_pushes for row in rows] == list(range(32))
        for row in rows:
            assert row.total_pushes == row.n + 1
            assert row.max_depth == row.n + 1
            assert row.extra_branches == row.spill_stores == row.spill_loads
            assert row.oracle_cycles == 1732 + 32 * row.n
            if row.n <= 15:
                assert row.predicted_cycles == row.oracle_cycles and row.diff == 0
            else:
                assert row.diff == 84 * row.spill_stores

    def test_double_loop_columns(self, kepler_sweeps):
        for row in kepler_sweeps["double"]:
            assert row.total_pushes == row.n * (65 - row.n) // 2 + 33
            assert row.max_depth == row.n + 2
            if row.n <= 14:
                assert row.predicted_cycles == row.oracle_cycles

    def test_emulated_spills_match_reference_overlay(self, kepler_results):
        # independent replay: abstract push/pop sequence from loop
        # structure, priced through the counter-only overlay model
        for kernel in ("single", "double"):
            for n in range(32):
                result = kepler_results[kernel][n]
                ref = replay_overlay(
                    loop_stack_sequence(kernel, ws.bound_pattern(n).bounds))
                assert result.events.pushes == ref.pushes
                assert result.max_depth == ref.max_depth
                assert result.spill_stores == ref.stores, (kernel, n)
                assert result.spill_loads == ref.loads

    def test_subset_and_ordering(self):
        rows = ws.sweep("single", ws.KEPLER, [5, 3, 3, 7])
        assert [row.n for row in rows] == [3, 5, 7]

    def test_maxwell_rows_have_no_oracle(self):
        rows = ws.sweep("single", ws.MAXWELL, range(3))
        for row in rows:
            assert row.oracle_cycles is None and row.diff is None
            assert row.predicted_cycles == 26 * row.div_pushes
            assert row.arch == "maxwell"

    def test_instrumented_kernel_sweeps_like_the_single_loop(self):
        rows = ws.sweep("single-instrumented", ws.KEPLER, range(0, 32, 7))
        for row in rows:
            assert row.total_pushes == row.n + 1
            assert row.max_depth == row.n + 1
            assert row.oracle_cycles is None  # no calibrated base
        report = ws.compare(rows, ws.OracleSet.for_profile("single-instrumented",
                                                           ws.KEPLER))
        assert report.ok

    def test_default_budget_matches_documented_cap(self):
        assert ws.DEFAULT_BUDGET == 10_000_000

    def test_monotonicity_of_predictions(self, kepler_sweeps):
        single = [row.predicted_cycles for row in kepler_sweeps["single"]]
        assert all(b >= a for a, b in zip(single, single[1:]))
        # The double loop is monotone only while nothing spills; spill
        # counts themselves dip as n grows past the capacity region.
        double = [row.predicted_cycles for row in kepler_sweeps["double"]]
        assert all(b >= a for a, b in zip(double[:15], double[1:15]))
        assert any(b < a for a, b in zip(double, double[1:]))


class TestCompare:
    def test_kepler_reports_are_clean(self, kepler_sweeps):
        for kernel in ("single", "double"):
            report = ws.compare(kepler_sweeps[kernel],
                                ws.OracleSet.for_profile(kernel, ws.KEPLER))
            assert report.ok, ws.format_compare_report(report)
            assert report.max_abs_diff == 84 * max(
                row.spill_stores for row in kepler_sweeps[kernel])
            text = ws.format_compare_report(report)
            assert "overall: ok" in text

    def test_detects_wrong_cost_model(self):
        off_by_one = dataclasses.replace(ws.KEPLER, div_cost=31)
        rows = ws.sweep("single", off_by_one, range(4))
        report = ws.compare(rows, ws.OracleSet.for_profile("single", off_by_one))
        assert not report.ok
        assert any(not check.ok and check.name == "no_spill_cycles_exact"
                   for check in report.checks)
        assert "FAIL" in ws.format_compare_report(report)

    @pytest.mark.parametrize("field,n,line", [
        ("total_pushes", 3, "check push_counts: FAIL (n=3: got 5, expected 4)"),
        ("max_depth", 3, "check max_depths: FAIL (n=3: got 5, expected 4)"),
        ("spill_stores", 20, "check spill_counts: FAIL (n=20: got 3, expected 2)"),
        ("extra_branches", 20,
         "check extra_branches_equal_spills: FAIL (n=20: got 3, expected 2)"),
    ])
    def test_each_row_check_fails_on_one_tampered_field(self, kepler_sweeps, field, n, line):
        rows = list(kepler_sweeps["single"])
        rows[n] = dataclasses.replace(rows[n], **{field: getattr(rows[n], field) + 1})
        report = ws.compare(rows, ws.OracleSet.for_profile("single", ws.KEPLER))
        text = ws.format_compare_report(report)
        assert line in text.splitlines()
        assert text.endswith("overall: FAIL\n")

    def test_mismatched_rows_and_oracles(self, kepler_sweeps):
        with pytest.raises(ProgramError, match="does not match"):
            ws.compare(kepler_sweeps["single"],
                       ws.OracleSet.for_profile("double", ws.KEPLER))
        with pytest.raises(ProgramError, match="at least one"):
            ws.compare([], ws.OracleSet.for_profile("single", ws.KEPLER))

    def test_maxwell_counter_checks_still_apply(self):
        rows = ws.sweep("double", ws.MAXWELL, range(6))
        report = ws.compare(rows, ws.OracleSet.for_profile("double", ws.MAXWELL))
        assert report.ok
        assert report.max_abs_diff is None


class TestSerialization:
    def test_csv_shape(self, kepler_sweeps):
        sink = io.StringIO()
        ws.write_sweep(kepler_sweeps["single"], sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "n,kernel,arch,div_pushes,total_pushes,max_depth,spills,extra_branches,predicted_cycles,oracle_cycles,diff"
        assert len(lines) == 33
        first = next(csv.DictReader(io.StringIO(sink.getvalue())))
        assert first["n"] == "0" and first["predicted_cycles"] == "1732"

    def test_jsonl_rows(self, kepler_sweeps):
        sink = io.StringIO()
        ws.write_sweep(kepler_sweeps["single"][:2], sink, fmt="jsonl")
        rows = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert rows[0]["predicted_cycles"] == 1732
        assert rows[1]["n"] == 1
        with pytest.raises(ProgramError, match="format"):
            ws.write_sweep(kepler_sweeps["single"], sink, fmt="xml")

    def test_make_row_without_base_uses_overhead(self):
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(4).bounds))
        row = make_row("single", ws.MAXWELL, 4, result)
        assert row.predicted_cycles == 4 * 26


SPILLING_LOOP = """
        ISETP.LT P0, R5, 1
        SSY join
        @P0 BRA unwind
body:   IADD R4, R4, 1
        ISETP.LT P0, R4, R5
        @P0 BRA body
unwind: NOP.S
join:   EXIT
"""


def spilling_loop_launch():
    """Eight lanes leave one by one: depth 9 on a 4-entry stack spilled 2 at a time."""
    bounds = [32 if t < 24 else 55 - t for t in range(32)]
    return ws.LaunchConfig(registers={"R5": bounds},
                           profile=dataclasses.replace(ws.KEPLER, phys_capacity=4, spill_chunk=2))


def traced_spilling_loop():
    return checked_run(ws.parse_program(SPILLING_LOOP), spilling_loop_launch(),
                       record_trace=True)


class TestTraces:
    def trace_run(self, kernel, n):
        return checked_run(
            ws.kernel_program(kernel),
            ws.kernel_launch(kernel, ws.bound_pattern(n).bounds),
            record_trace=True)

    def depth_series(self, result):
        return [record.depth for record in result.trace]

    def test_requires_traced_run(self):
        result = checked_run(ws.kernel_program("single"),
                             ws.kernel_launch("single", ws.bound_pattern(0).bounds))
        with pytest.raises(ProgramError, match="record_trace"):
            ws.emit_trace(result, io.StringIO())

    def test_unknown_trace_format(self):
        with pytest.raises(ProgramError) as err:
            ws.emit_trace(self.trace_run("single", 0), io.StringIO(), fmt="xml")
        assert str(err.value) == "unknown trace format 'xml'"

    def test_jsonl_records(self):
        result = self.trace_run("single", 2)
        sink = io.StringIO()
        ws.emit_trace(result, sink)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(records) == result.executed_instructions
        assert records[0]["ordinal"] == 1
        assert set(records[0]) == {"ordinal", "pc", "opcode", "active_mask",
                                   "depth", "event", "cycle"}
        assert records[-1]["opcode"] == "EXIT"
        masks = {record["active_mask"] for record in records}
        assert "0x7fffffff" in masks and "0xffffffff" in masks

    def test_csv_trace(self):
        result = self.trace_run("single", 1)
        sink = io.StringIO()
        ws.emit_trace(result, sink, fmt="csv")
        rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
        assert len(rows) == result.executed_instructions
        assert any("DIV_PUSH" in row["event"] for row in rows)

    def test_depth_series_consistent_with_counters(self):
        for kernel, n in (("single", 23), ("double", 9)):
            result = self.trace_run(kernel, n)
            series = self.depth_series(result)
            ups = sum(1 for a, b in zip([0] + series, series) if b == a + 1)
            downs = sum(1 for a, b in zip([0] + series, series) if b == a - 1)
            assert ups == result.events.pushes
            assert downs == result.events.pops
            assert max(series) == result.max_depth

    def test_single_loop_peaks(self):
        def rising_edges(series, level):
            return sum(1 for a, b in zip([0] + series, series)
                       if b == level and a == level - 1)

        series = self.depth_series(self.trace_run("single", 31))
        assert max(series) == 32
        assert rising_edges(series, 32) == 1  # climbs to the peak once
        # all pushes happen before the first pop: climb, then unwind
        last_up = max(i for i, (a, b) in enumerate(zip([0] + series, series)) if b == a + 1)
        first_down = min(i for i, (a, b) in enumerate(zip([0] + series, series)) if b == a - 1)
        assert last_up < first_down
        assert rising_edges(self.depth_series(self.trace_run("single", 23)), 24) == 1

    def test_double_loop_sawtooth(self):
        series = self.depth_series(self.trace_run("double", 23))
        assert max(series) == 25
        assert series.count(25) > 1  # every outer iteration climbs back up
        assert series[-1] == 0

    @pytest.mark.parametrize("case", ["spilling-loop", "double-16"])
    def test_emission_equals_json_dumps_and_csv_writer(self, case):
        if case == "spilling-loop":
            result = traced_spilling_loop()
            events = {record.events for record in result.trace}
            assert {("SPILL_STORE", "DIV_PUSH"), ("SPILL_LOAD", "DIV_POP")} <= events
        else:
            result = self.trace_run("double", 16)
        jsonl, csv_text, expected_csv = io.StringIO(), io.StringIO(), io.StringIO()
        ws.emit_trace(result, jsonl)
        ws.emit_trace(result, csv_text, fmt="csv")
        writer = csv.writer(expected_csv, lineterminator="\n")
        writer.writerow(("ordinal", "pc", "opcode", "active_mask", "depth", "event", "cycle"))
        expected_jsonl = []
        for record in result.trace:
            mask = f"0x{record.active_mask:08x}"
            expected_jsonl.append(json.dumps({
                "ordinal": record.ordinal, "pc": record.pc, "opcode": record.opcode,
                "active_mask": mask, "depth": record.depth, "event": list(record.events),
                "cycle": record.cycle}) + "\n")
            writer.writerow((record.ordinal, record.pc, record.opcode, mask, record.depth,
                             "+".join(record.events), record.cycle))
        assert jsonl.getvalue().splitlines(keepends=True) == expected_jsonl
        assert csv_text.getvalue().splitlines(keepends=True) == \
            expected_csv.getvalue().splitlines(keepends=True)

    def test_record_fields_keep_their_names_and_order(self):
        assert ws.TraceRecord._fields == ("ordinal", "pc", "opcode", "active_mask", "depth",
                                          "events", "cycle")
        assert ws.EventRecord._fields == ("ordinal", "kind", "token_mask", "token_pc")

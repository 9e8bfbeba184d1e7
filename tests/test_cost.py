"""Profiles, event charging, totals, and profile-file parsing."""

from dataclasses import fields

import pytest

import warpsim as ws
from warpsim.cost import CostEvents, charge, parse_profile
from warpsim.errors import ProgramError

from conftest import checked_run


def test_builtin_profile_constants():
    kep = ws.KEPLER
    assert (kep.div_cost, kep.phys_capacity, kep.spill_chunk) == (32, 16, 4)
    assert kep.spill_store_cost + kep.spill_load_cost == 84
    assert kep.base_cycles == {"single": 1732, "double": 57024}
    max_ = ws.MAXWELL
    assert max_.div_cost == 26
    assert max_.spill_store_cost + max_.spill_load_cost == 176
    assert max_.base_cycles == {}
    assert ws.get_profile("kepler") is kep
    with pytest.raises(ProgramError, match="unknown architecture"):
        ws.get_profile("fermi")


def test_charge_examples():
    kep = ws.KEPLER
    assert charge(CostEvents(div_pops=5), kep) == 160
    assert charge(CostEvents(), kep) == 0
    assert charge(CostEvents(spill_stores=1, spill_loads=1), kep) == 84
    assert charge(CostEvents(spill_stores=1, spill_loads=1), ws.MAXWELL) == 176
    # pushes and SYNC pops are free; their cost sits in the base constants
    assert charge(CostEvents(sync_pushes=9, div_pushes=9, sync_pops=9), kep) == 0


def test_predicted_cycles_examples():
    kep = ws.KEPLER
    r10 = checked_run(ws.kernel_program("single"),
                      ws.kernel_launch("single", ws.bound_pattern(10).bounds, kep))
    assert ws.make_row("single", kep, 10, r10).predicted_cycles == 1732 + 320 == 2052
    r0 = checked_run(ws.kernel_program("single"),
                     ws.kernel_launch("single", ws.bound_pattern(0).bounds, kep))
    assert ws.make_row(ws.KernelId.SINGLE_LOOP, kep, 0, r0).predicted_cycles == 1732
    d5 = checked_run(ws.kernel_program("double"),
                     ws.kernel_launch("double", ws.bound_pattern(5).bounds, kep))
    assert ws.make_row("double", kep, 5, d5).predicted_cycles == 57024 + 16 * 5 * 60 == 61824


def test_without_spilling_disables_spills():
    quiet = ws.KEPLER.without_spilling()
    assert quiet.phys_capacity is None
    assert quiet.div_cost == ws.KEPLER.div_cost
    r = checked_run(ws.kernel_program("single"),
                    ws.kernel_launch("single", ws.bound_pattern(31).bounds, quiet))
    assert r.spill_stores == 0 == r.spill_loads


def test_profile_validation():
    with pytest.raises(ProgramError):
        ws.ArchProfile(name="bad", div_cost=-1, spill_store_cost=0, spill_load_cost=0)
    with pytest.raises(ProgramError):
        ws.ArchProfile(name="bad", div_cost=0, spill_store_cost=0, spill_load_cost=0,
                       phys_capacity=4, spill_chunk=5)


def test_a_profile_has_no_issue_cost():
    # Every instruction advances the live counter by one cycle; no profile sets another.
    with pytest.raises(TypeError, match="issue_cost"):
        ws.ArchProfile("x", div_cost=0, spill_store_cost=0, spill_load_cost=0, issue_cost=1)
    with pytest.raises(ProgramError) as err:
        parse_profile("issue_cost = 1")
    assert str(err.value) == "profile line 1: unknown key 'issue_cost'"


def test_parse_profile_round_trip():
    profile = parse_profile("""
        # a hand-calibrated variant
        name = testarch
        div_cost = 30
        phys_capacity = 8
        spill_chunk = 2
        spill_store_cost = 10
        spill_load_cost = 12   ; trailing comment
        base.single = 1000
        base.double = 2000
    """)
    assert profile.name == "testarch"
    assert profile.div_cost == 30
    assert profile.phys_capacity == 8 and profile.spill_chunk == 2
    assert (profile.spill_store_cost, profile.spill_load_cost) == (10, 12)
    assert profile.base_cycles == {"single": 1000, "double": 2000}


def test_parse_profile_defaults_and_unbounded():
    profile = parse_profile("phys_capacity = none")
    assert profile.phys_capacity is None
    assert profile.div_cost == 0 and profile.spill_chunk == 4
    assert parse_profile("phys_capacity = inf").phys_capacity is None


@pytest.mark.parametrize("text,fragment", [
    ("bogus_key = 1", "unknown key"),
    ("div_cost = fast", "integer"),
    ("div_cost = 1\ndiv_cost = 2", "duplicate"),
    ("div_cost", "key = value"),
    ("base. = 3", "empty kernel id"),
    ("base.single = -5", "base.single must be >= 0"),
])
def test_parse_profile_errors(text, fragment):
    with pytest.raises(ProgramError, match=fragment):
        parse_profile(text)


def test_load_profile_names_after_file(tmp_path):
    path = tmp_path / "slowarch.profile"
    path.write_text("div_cost = 7\n", encoding="utf-8")
    profile = ws.load_profile(path)
    assert profile.name == "slowarch"
    assert profile.div_cost == 7


def test_cost_events_from_counts_and_totals():
    counts = [0] * len(ws.StackEvent)
    counts[ws.StackEvent.SYNC_PUSH] = 2
    counts[ws.StackEvent.DIV_POP] = 3
    events = CostEvents(*counts)
    assert events.sync_pushes == 2 and events.div_pops == 3
    assert events.pushes == 2 and events.pops == 3


def test_cost_event_fields_follow_stack_event_order():
    event = ws.StackEvent
    field_of = {
        event.SYNC_PUSH: "sync_pushes",
        event.DIV_PUSH: "div_pushes",
        event.SYNC_POP: "sync_pops",
        event.DIV_POP: "div_pops",
        event.SPILL_STORE: "spill_stores",
        event.SPILL_LOAD: "spill_loads",
    }
    assert [f.name for f in fields(CostEvents)] == [field_of[e] for e in event]
    assert [e.value for e in event] == list(range(len(event)))


_PRICING_PROFILES = [
    ws.KEPLER,
    ws.MAXWELL,
    ws.ArchProfile("small-stack", div_cost=2, spill_store_cost=7, spill_load_cost=11,
                   phys_capacity=4, spill_chunk=2),
    ws.ArchProfile("free", div_cost=0, spill_store_cost=0, spill_load_cost=0),
]


@pytest.mark.parametrize("profile", _PRICING_PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("kernel", [k.value for k in ws.KernelId])
@pytest.mark.parametrize("n", [0, 1, 16, 17, 31])
def test_live_clock_equals_issue_plus_charge(kernel, profile, n):
    """Every instruction but a DIV-pop carrier pays one cycle; the rest is charge()."""
    result = ws.run_kernel(kernel, n, profile)
    issued = result.executed_instructions - result.events.div_pops
    assert result.cycles == issued + charge(result.events, profile)

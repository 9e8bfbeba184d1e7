"""Architecture profiles and event-driven cycle accounting.

The accounting policy puts the divergence penalty entirely on DIV-token
pops (the unwinding side): pushing a token can be overlapped with
subsequent work, but a popped token is consumed immediately to restore
the active mask and program counter, and the carrier instruction still
has to issue.  ``div_cost`` is therefore charged once per DIV pop and
covers the carrier execution; SYNC pushes/pops and DIV pushes charge
nothing (their fixed cost is folded into the per-kernel base constants).
Stack spills charge per chunk event, split into a store leg (during the
push that overflowed) and a load leg (during the pop that reloaded).
``ArchProfile.event_cycles`` prices each event.  The live cycle counter
advances one cycle per instruction, or for one that moves a token, its
price in ``move_prices`` (one per move of ``stack.MOVE_EVENTS``): one
cycle plus its events' cycles, where a DIV pop's ``div_cost`` covers
that cycle.

Profiles are immutable.  ``phys_capacity=None`` disables spilling, which
is useful for isolating the spill cost by differencing two sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from operator import mul
from typing import Mapping, Union

from .errors import ProgramError
from .isa import read_text, strip_comment
from .stack import MOVE_EVENTS, StackEvent, SyncStack


@dataclass(frozen=True)
class ArchProfile:
    """Cost and capacity parameters for one simulated architecture.

    ``base_cycles`` maps kernel ids to the calibrated constant part of
    the predicted total (everything that does not scale with divergence).
    """

    name: str
    div_cost: int
    spill_store_cost: int
    spill_load_cost: int
    phys_capacity: Union[int, None] = 16
    spill_chunk: int = 4
    base_cycles: Mapping[str, int] = field(default_factory=dict)
    # Live cycles per stack move, by move code (:data:`MOVE_EVENTS`); built once per profile.
    move_prices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for attr in ("div_cost", "spill_store_cost", "spill_load_cost"):
            if getattr(self, attr) < 0:
                raise ProgramError(f"{attr} must be >= 0")
        for kernel, cycles in self.base_cycles.items():
            if cycles < 0:
                raise ProgramError(f"base.{kernel} must be >= 0")
        # Constructing a stack validates the capacity/chunk relationship.
        SyncStack(self.phys_capacity, self.spill_chunk)
        # A move costs one cycle plus its events' cycles; a DIV pop's div_cost covers that cycle.
        cycles = self.event_cycles
        object.__setattr__(self, "move_prices", tuple(
            sum(map(cycles.__getitem__, events)) + (0 if StackEvent.DIV_POP in events else 1)
            for events in MOVE_EVENTS))

    @property
    def event_cycles(self) -> tuple[int, ...]:
        """Cycles charged per :class:`StackEvent`, indexed by its value."""
        return (0, 0, 0, self.div_cost, self.spill_store_cost, self.spill_load_cost)

    def new_stack(self) -> SyncStack:
        return SyncStack(self.phys_capacity, self.spill_chunk)

    def without_spilling(self) -> "ArchProfile":
        """Same costs, unbounded on-chip stack (no spill events ever)."""
        return replace(self, phys_capacity=None)


KEPLER = ArchProfile(
    name="kepler",
    div_cost=32,
    spill_store_cost=40,
    spill_load_cost=44,
    base_cycles={"single": 1732, "double": 57024},
)

# No published base constants for this architecture; predictions are
# overhead-only until the user calibrates them.
MAXWELL = ArchProfile(
    name="maxwell",
    div_cost=26,
    spill_store_cost=88,
    spill_load_cost=88,
)

BUILTIN_PROFILES: Mapping[str, ArchProfile] = {"kepler": KEPLER, "maxwell": MAXWELL}


def get_profile(name: str) -> ArchProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROFILES))
        raise ProgramError(f"unknown architecture profile {name!r} (built-in: {known})") from None


@dataclass(frozen=True)
class CostEvents:
    """Counts of the chargeable stack events over (part of) a run.

    Fields are in :class:`StackEvent` order, so ``CostEvents(*counts)``
    builds one from a list indexed by event.
    """

    sync_pushes: int = 0
    div_pushes: int = 0
    sync_pops: int = 0
    div_pops: int = 0
    spill_stores: int = 0
    spill_loads: int = 0

    @property
    def pushes(self) -> int:
        return self.sync_pushes + self.div_pushes

    @property
    def pops(self) -> int:
        return self.sync_pops + self.div_pops


def charge(events: CostEvents, profile: ArchProfile) -> int:
    """Divergence overhead: each count (vars() order is StackEvent order) times its price."""
    return sum(map(mul, vars(events).values(), profile.event_cycles))


_PROFILE_INT_KEYS = {"div_cost", "spill_store_cost", "spill_load_cost", "spill_chunk"}
_UNBOUNDED = {"none", "inf", "unbounded"}


def parse_profile(text: str, default_name: str = "custom") -> ArchProfile:
    """Parse a key=value profile description.

    Recognized keys: ``name``, ``div_cost``, ``phys_capacity`` (an integer
    or ``none``/``inf`` for unbounded), ``spill_chunk``,
    ``spill_store_cost``, ``spill_load_cost`` and ``base.<kernel>``
    entries; any other key is an error.  ``#`` and ``;`` start comments.
    Costs default to 0, the other keys to :class:`ArchProfile`'s defaults.
    """
    values = {"name": default_name, "div_cost": 0, "spill_store_cost": 0, "spill_load_cost": 0}
    base: dict[str, int] = {}
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ProgramError(f"profile line {line_no}: expected key = value, got {raw!r}")
        if key in seen:
            raise ProgramError(f"profile line {line_no}: duplicate key {key!r}")
        seen.add(key)
        if key == "name":
            values["name"] = value
        elif key == "phys_capacity":
            if value.lower() in _UNBOUNDED:
                values["phys_capacity"] = None
            else:
                values["phys_capacity"] = _profile_int(key, value, line_no)
        elif key in _PROFILE_INT_KEYS:
            values[key] = _profile_int(key, value, line_no)
        elif key.startswith("base."):
            kernel = key[len("base."):]
            if not kernel:
                raise ProgramError(f"profile line {line_no}: empty kernel id in {key!r}")
            base[kernel] = _profile_int(key, value, line_no)
        else:
            raise ProgramError(f"profile line {line_no}: unknown key {key!r}")
    return ArchProfile(base_cycles=base, **values)


def _profile_int(key: str, value: str, line_no: int) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise ProgramError(f"profile line {line_no}: {key} needs an integer, got {value!r}") from None


def load_profile(path) -> ArchProfile:
    """Load a profile from a key=value text file; name defaults to the stem."""
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_profile(read_text(path), default_name=stem or "custom")

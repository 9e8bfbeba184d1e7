"""Synchronization-stack tokens and the capacity/spill overlay.

:class:`SyncStack` is the reference model of the stack.  A warp keeps
its own token list (``WarpState.tokens``), which the interpreter loop
moves by the same rules; the benchmark and the tests replay run event
logs on a fresh :class:`SyncStack`.

The stack serializes divergent control flow inside a warp: a SYNC token
records the mask to restore at a re-convergence point, a DIV token parks
the lanes that did not take a partially taken branch.  The logical stack
holds at most :data:`DEPTH_LIMIT` tokens, and only ``phys_capacity`` of
them live in fast on-chip storage.  Pushing into a full on-chip segment
first evicts the oldest ``spill_chunk`` entries to backing memory (one
SPILL_STORE event); popping past the on-chip segment reloads the most
recently spilled chunk (one SPILL_LOAD event).
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

from .errors import ModelViolation, ProgramError


class TokenKind(IntEnum):
    """A token's kind: the DIV bit (bit 0) of its moves' codes in :data:`MOVE_EVENTS`."""

    SYNC = 0  # pushed by SSY; restores the mask captured there
    DIV = 1   # pushed by a partially taken branch; holds the not-taken lanes


# Logical depth past which a push is a model violation.  Structured code
# nests far less deeply (the built-in kernels reach 33); the limit bounds
# the time and memory of a loop that pushes without popping.
DEPTH_LIMIT = 4096
PAST_DEPTH_LIMIT = f"push past the synchronization stack depth limit of {DEPTH_LIMIT} tokens"
EMPTY_POP = "pop from empty synchronization stack"


class Token(NamedTuple):
    """One stack entry: lane mask, kind tag, resume address.

    Fits in 64 bits on hardware, 32 of them taken by the mask.
    """

    mask: int
    kind: TokenKind
    pc: int


class StackEvent(IntEnum):
    SYNC_PUSH = 0
    DIV_PUSH = 1
    SYNC_POP = 2
    DIV_POP = 3
    SPILL_STORE = 4
    SPILL_LOAD = 5


# The events of each kind of stack move, indexed by its move code: 4 for a pop,
# plus 2 for a spill, plus the token's kind (1 for DIV).  ``SyncStack.push``/``pop``
# return these very tuples, and the interpreter's move records store the code.
MOVE_EVENTS = tuple(((StackEvent.SPILL_LOAD if pop else StackEvent.SPILL_STORE,) if spill else ())
                    + (StackEvent(2 * pop + div),)
                    for pop in (0, 1) for spill in (0, 1) for div in (0, 1))


class SyncStack:
    """Token stack with a physical capacity and chunked spill to memory.

    One token list, oldest first; its oldest ``spilled_count`` entries
    live in backing memory.  ``phys_capacity=None`` disables spilling
    (unbounded on-chip segment).
    """

    __slots__ = ("phys_capacity", "spill_chunk", "_tokens", "_spilled")

    def __init__(self, phys_capacity: int | None, spill_chunk: int):
        if phys_capacity is not None:
            if phys_capacity < 1:
                raise ProgramError(f"physical stack capacity must be >= 1, got {phys_capacity}")
            if not 1 <= spill_chunk <= phys_capacity:
                raise ProgramError(
                    f"spill chunk must be in 1..{phys_capacity}, got {spill_chunk}"
                )
        elif spill_chunk < 1:
            raise ProgramError(f"spill chunk must be >= 1, got {spill_chunk}")
        self.phys_capacity = phys_capacity
        self.spill_chunk = spill_chunk
        self._tokens: list[Token] = []
        self._spilled = 0

    @property
    def depth(self) -> int:
        """Logical depth: on-chip entries plus spilled entries."""
        return len(self._tokens)

    @property
    def onchip_count(self) -> int:
        return len(self._tokens) - self._spilled

    @property
    def spilled_count(self) -> int:
        return self._spilled

    def push(self, token: Token) -> tuple[StackEvent, ...]:
        """Push a token, spilling the oldest chunk first if on-chip is full."""
        kind = token.kind
        if kind and token.mask == 0:  # a DIV token
            raise ModelViolation("DIV token with empty mask")
        tokens = self._tokens
        if len(tokens) >= DEPTH_LIMIT:
            raise ModelViolation(PAST_DEPTH_LIMIT)
        tokens.append(token)
        cap = self.phys_capacity
        if cap is not None and len(tokens) - self._spilled > cap:
            self._spilled += self.spill_chunk
            return MOVE_EVENTS[2 + kind]
        return MOVE_EVENTS[kind]

    def pop(self) -> tuple[Token, tuple[StackEvent, ...]]:
        """Pop the top token, reloading the newest spilled chunk if needed."""
        tokens = self._tokens
        if not tokens:
            raise ModelViolation(EMPTY_POP)
        token = tokens.pop()
        if len(tokens) < self._spilled:
            self._spilled -= self.spill_chunk
            return token, MOVE_EVENTS[6 + token.kind]
        return token, MOVE_EVENTS[4 + token.kind]

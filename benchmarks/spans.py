"""In-memory spans recorded around calls into warpsim's public functions."""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Spans:
    """Records (name, start, end) for every span; summed when the run ends.

    The benchmark's spans wrap single warpsim calls and never nest, so a
    span's self time is its duration.
    """

    def __init__(self):
        self.records: list[tuple[str, float, float]] = []

    @contextmanager
    def __call__(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.records.append((name, start, perf_counter()))

    def totals(self) -> dict[str, float]:
        """Seconds per span name."""
        totals: dict[str, float] = {}
        for name, start, end in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals


_NULL = nullcontext()


def no_spans(name: str):
    """Span factory for untraced runs: records nothing."""
    return _NULL

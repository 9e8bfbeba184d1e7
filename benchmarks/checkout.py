"""Locate the checkout the benchmark runs in and import warpsim from its src/."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no warpsim sources to measure."""


def use_checkout_src():
    """Put the checkout's src/ first on sys.path and import warpsim from it."""
    if not (SRC / "warpsim" / "__init__.py").is_file():
        raise MissingProgram(f"no warpsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import warpsim
    if Path(warpsim.__file__).resolve().parent != (SRC / "warpsim").resolve():
        raise MissingProgram(f"warpsim imported from {warpsim.__file__}, not from {SRC}")
    return warpsim


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"

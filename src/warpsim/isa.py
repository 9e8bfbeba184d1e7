"""Miniature SASS-like instruction set: labels, predicated branches, pop-bit.

The set is just large enough to express warp-divergent loop kernels:
stack management (SSY, the ``.S`` pop-bit suffix), predicated branches,
integer/float register arithmetic, a cycle-counter read, and a timestamp
store.  Addresses are instruction indices (0, 1, 2, ...), not byte
offsets; only ordering and identity of branch targets matter here.

Text format (UTF-8), one statement per line::

    [label:] [@Pk] MNEMONIC[.S] [operand {, operand}]

* ``#`` or ``;`` starts a comment running to end of line.
* Statements:

  ========================  =============================================
  ``SSY target``            push SYNC token for re-convergence at target
  ``[@Pk] BRA target``      predicated branch (bare BRA branches always)
  ``NOP``                   no operation
  ``IADD Rd, Ra, Rb|int``   32-bit wrapping integer add
  ``FADD32I Rd, Ra, float`` float32 add-immediate
  ``ISETP.LT Pd, Ra, Rb|int``  per-lane signed compare, writes predicate
  ``MOV Rd, Ra|int``        register copy / load immediate
  ``CLOCK Rd``              read the warp cycle counter into Rd
  ``STSLOT [Ra|int], Rs``   store Rs to a per-lane timestamp slot
  ``EXIT``                  end of kernel
  ========================  =============================================

* A ``.S`` suffix on a non-control mnemonic sets the pop-bit (the
  instruction first pops the stack, restoring mask and pc, then executes
  as the carrier).  ``SSY``, ``BRA``, and ``EXIT`` never carry it.
* ``@Pk`` predication is supported on BRA only.
* Registers ``R0..R{N-1}`` plus ``RZ`` (reads 0, writes dropped);
  predicates ``P0..P{K-1}`` plus ``PT`` (reads all-true, writes dropped).
* Optional directives before the first instruction:
  ``.registers N`` and ``.predicates K`` (defaults 16 and 7, each in
  ``1..MAX_FILE_SIZE``).

``parse_program`` and ``format_program`` round-trip: formatting a
program and re-parsing it yields a structurally equal program (label
*names* are not part of structural equality).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field, fields as dataclass_fields
from enum import Enum
from typing import Mapping, Union

from .errors import AsmError, ProgramError

DEFAULT_REGISTER_FILE = 16
DEFAULT_PREDICATE_FILE = 7
MAX_FILE_SIZE = 255  # R0..R254 as in SASS (RZ is R255); bounds what a run allocates

REG_RZ = -1   # zero register: reads 0, writes discarded
PRED_PT = -1  # true predicate: reads all-ones, writes discarded

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

_F32 = struct.Struct("<f")


def f32(value: float) -> float:
    """Round a Python float to the nearest float32 value."""
    return _F32.unpack(_F32.pack(value))[0]


class Opcode(Enum):
    SSY = "SSY"
    BRA = "BRA"
    NOP = "NOP"
    IADD = "IADD"
    FADD_IMM = "FADD32I"
    ISETP_LT = "ISETP.LT"
    MOV = "MOV"
    CLOCK = "CLOCK"
    STORE_SLOT = "STSLOT"
    EXIT = "EXIT"

    # Enum's own __hash__ is a Python function; identity hashing agrees with
    # Enum's identity equality and keeps SPECS lookups at C speed.
    __hash__ = object.__hash__


_MNEMONICS = {op.value: op for op in Opcode}

@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Which operand fields an opcode uses is given by its :data:`SPECS`
    row; unused fields stay None.  ``pred`` is the ``@Pk`` branch
    predicate (None = unconditional) and ``pop_bit`` marks the
    instruction as a stack-unwinding carrier.
    """

    opcode: Opcode
    pop_bit: bool = False
    pred: Union[int, None] = None
    dst: Union[int, None] = None
    pdst: Union[int, None] = None
    src_a: Union[int, None] = None
    src_b: Union[int, None] = None
    imm: Union[int, float, None] = None
    slot: Union[int, None] = None
    slot_reg: Union[int, None] = None
    target: Union[int, None] = None


_OPERAND_FIELDS = tuple(f.name for f in dataclass_fields(Instruction)
                        if f.name not in ("opcode", "pop_bit", "pred"))


@dataclass(frozen=True)
class OpSpec:
    """Assembly syntax and validity rules of one opcode.

    ``operands`` lists the operands in text order, each as
    ``(shape, field)`` or, when the operand is a register or an integer,
    ``(shape, reg_field, imm_field)``.  Shapes: ``target`` (label or
    instruction index), ``reg``, ``pred``, ``reg|int``, ``f32`` and
    ``[reg|int]`` (a bracketed slot index).  ``pop`` allows the ``.S``
    pop-bit and ``pred`` the ``@Pk`` prefix.
    """

    operands: tuple[tuple[str, ...], ...] = ()
    pop: bool = False
    pred: bool = False
    unused: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        used = {name for operand in self.operands for name in operand[1:]}
        object.__setattr__(self, "unused",
                           tuple(name for name in _OPERAND_FIELDS if name not in used))


SPECS: Mapping[Opcode, OpSpec] = {
    Opcode.SSY: OpSpec((("target", "target"),)),
    Opcode.BRA: OpSpec((("target", "target"),), pred=True),
    Opcode.NOP: OpSpec(pop=True),
    Opcode.IADD: OpSpec((("reg", "dst"), ("reg", "src_a"), ("reg|int", "src_b", "imm")),
                        pop=True),
    Opcode.FADD_IMM: OpSpec((("reg", "dst"), ("reg", "src_a"), ("f32", "imm")), pop=True),
    Opcode.ISETP_LT: OpSpec((("pred", "pdst"), ("reg", "src_a"), ("reg|int", "src_b", "imm")),
                            pop=True),
    Opcode.MOV: OpSpec((("reg", "dst"), ("reg|int", "src_a", "imm")), pop=True),
    Opcode.CLOCK: OpSpec((("reg", "dst"),), pop=True),
    Opcode.STORE_SLOT: OpSpec((("[reg|int]", "slot_reg", "slot"), ("reg", "src_a")), pop=True),
    Opcode.EXIT: OpSpec(),
}


@dataclass(frozen=True)
class Program:
    """An immutable instruction sequence with resolved branch targets.

    Every Program is valid: construction checks each instruction, then a
    single final EXIT and the file sizes, and raises :class:`ProgramError`.
    Structural equality compares instructions and file sizes; label names
    are presentation only and excluded from comparison.
    """

    instructions: tuple[Instruction, ...]
    register_file_size: int = DEFAULT_REGISTER_FILE
    predicate_file_size: int = DEFAULT_PREDICATE_FILE
    labels: Mapping[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ins_list = self.instructions
        for i, ins in enumerate(ins_list):
            _check_instruction(i, ins, len(ins_list), self.register_file_size,
                               self.predicate_file_size)
        if not ins_list:
            raise ProgramError("program has no instructions")
        exits = [i for i, ins in enumerate(ins_list) if ins.opcode is Opcode.EXIT]
        if len(exits) != 1 or exits[0] != len(ins_list) - 1:
            raise ProgramError("program must contain exactly one EXIT, as the final instruction")
        for size in (self.register_file_size, self.predicate_file_size):
            if not 1 <= size <= MAX_FILE_SIZE:
                raise ProgramError(f"register and predicate file sizes must be in 1..{MAX_FILE_SIZE}")
        for name, index in self.labels.items():
            if type(name) is not str or not _IDENT_RE.fullmatch(name):
                raise ProgramError(f"label {name!r} is not an identifier")
            if type(index) is not int or not 0 <= index < len(ins_list):
                raise ProgramError(f"label {name!r} points at {index!r}, "
                                   "not an instruction of this program")


def register_name(index: int) -> str:
    return "RZ" if index == REG_RZ else f"R{index}"


def predicate_name(index: int) -> str:
    return "PT" if index == PRED_PT else f"P{index}"


# Canonical names of every file row; other spellings (" r4 ", "R01") take the regex.
_REGISTER_INDEX = {"RZ": REG_RZ, **{f"R{i}": i for i in range(MAX_FILE_SIZE)}}
_PREDICATE_INDEX = {"PT": PRED_PT, **{f"P{i}": i for i in range(MAX_FILE_SIZE)}}


def register_index(name: str, file_size: int = DEFAULT_REGISTER_FILE) -> int:
    """Parse a register name ("R4" or "RZ") into an index."""
    index = _REGISTER_INDEX.get(name)
    if index is not None and index < file_size:
        return index
    return _file_index(name, file_size, "register", "RZ")


def predicate_index(name: str, file_size: int = DEFAULT_PREDICATE_FILE) -> int:
    """Parse a predicate name ("P0" or "PT") into an index."""
    index = _PREDICATE_INDEX.get(name)
    if index is not None and index < file_size:
        return index
    return _file_index(name, file_size, "predicate", "PT")


def _file_index(name: str, file_size: int, kind: str, special: str) -> int:
    """Index of ``name`` in a file whose read-only row ``special`` (RZ or PT) is -1."""
    text = name.strip().upper()
    if text == special:
        return -1  # REG_RZ or PRED_PT
    match = re.fullmatch(special[0] + r"(\d+)", text)
    if not match:
        raise ProgramError(f"not a {kind} name: {name!r}")
    index = int(match.group(1))
    if index >= file_size:
        raise ProgramError(f"{kind} {text} outside file of {file_size}")
    return index


def _err(i: int, ins: Instruction, message: str) -> ProgramError:
    """A fault of instruction ``i``; ``index`` lets the parser name its line."""
    exc = ProgramError(f"instruction {i} ({ins.opcode.value}): {message}")
    exc.index = i
    return exc


def _check_instruction(i: int, ins: Instruction, length: int, regs: int, preds: int) -> None:
    """Check one instruction against its :data:`SPECS` row."""
    spec = SPECS[ins.opcode]
    if ins.pop_bit and not spec.pop:
        raise _err(i, ins, "pop-bit not allowed on this opcode")
    if ins.pred is not None and not spec.pred:
        raise _err(i, ins, "predication not allowed on this opcode")
    for name in spec.unused:
        if getattr(ins, name) is not None:
            raise _err(i, ins, f"unexpected operand {name}")
    for name in ("pred", "dst", "pdst", "src_a", "src_b", "slot", "slot_reg", "target"):
        value = getattr(ins, name)
        if value is not None and type(value) is not int:  # a bool or a float is no index
            raise _err(i, ins, f"{name}={value!r} is not an integer")
    if ins.pred is not None and not PRED_PT <= ins.pred < preds:
        raise _err(i, ins, f"predicate {ins.pred} outside file")
    for operand in spec.operands:
        shape, name = operand[0], operand[1]
        value = getattr(ins, name)
        if len(operand) == 3:
            imm = getattr(ins, operand[2])
            if (value is None) == (imm is None):
                raise _err(i, ins, f"needs exactly one of {name} or {operand[2]}")
            if value is not None:
                shape = "reg"
            elif shape == "[reg|int]":
                if imm < 0:
                    raise _err(i, ins, f"slot index {imm} must be >= 0")
            elif type(imm) is not int:
                raise _err(i, ins, f"immediate {imm!r} must be an integer")
            elif not INT32_MIN <= imm <= INT32_MAX:
                raise _err(i, ins, f"immediate {imm} outside 32-bit signed range")
        if shape == "reg":
            if value is None:
                raise _err(i, ins, f"missing {name}")
            if not REG_RZ <= value < regs:
                raise _err(i, ins, f"{name}={value} outside register file of {regs}")
        elif shape == "pred":
            if value is None or not PRED_PT <= value < preds:
                raise _err(i, ins, f"{name}={value} outside predicate file")
        elif shape == "target":
            if value is None or not 0 <= value < length:
                raise _err(i, ins, f"target {value} out of range")
        elif shape == "f32":
            if not isinstance(value, float):
                raise _err(i, ins, "needs a float immediate")
            if f32(value) != value:
                raise _err(i, ins, f"immediate {value!r} is not float32-exact")


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LABEL_RE = re.compile(rf"({_IDENT_RE.pattern})\s*:\s*")
_INT_RE = re.compile(r"^[+-]?(0[xXoObB][0-9a-fA-F]+|\d+)$")


def _parse_int_literal(token: str) -> Union[int, None]:
    try:
        return int(token, 0) if _INT_RE.match(token) else None
    except ValueError:  # shaped like an integer but not one, e.g. "08" or "0b12"
        return None


def strip_comment(line: str) -> str:
    """The text of ``line`` before any ``#`` or ``;`` comment, stripped."""
    return line.partition("#")[0].partition(";")[0].strip()


def read_text(path) -> str:
    """A UTF-8 source file's text; bytes that do not decode are a ProgramError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ProgramError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def parse_program(text: str) -> Program:
    """Assemble source text into a :class:`Program`.

    Raises :class:`AsmError` naming the offending line on any syntax,
    register-range, or label-resolution problem.
    """
    sizes = {".registers": DEFAULT_REGISTER_FILE, ".predicates": DEFAULT_PREDICATE_FILE}
    statements: list[tuple[int, Union[str, None], str, bool, list[str]]] = []
    labels: dict[str, int] = {}
    dangling = None  # (line, name) of the first label after the last statement

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue

        if line[0] == ".":
            if statements or labels:
                raise AsmError(line_no, "directives must precede all instructions")
            parts = line.split()
            if len(parts) != 2 or (value := _parse_int_literal(parts[1])) is None:
                raise AsmError(line_no, f"malformed directive {line!r}")
            if parts[0] not in sizes:
                raise AsmError(line_no, f"unknown directive {parts[0]!r}")
            if not 1 <= value <= MAX_FILE_SIZE:
                raise AsmError(line_no, f"{parts[0]} {value} outside 1..{MAX_FILE_SIZE}")
            sizes[parts[0]] = value
            continue

        start = 0  # labels are matched in place: slicing after each is quadratic
        while ":" in line and (match := _LABEL_RE.match(line, start)) is not None:
            name = match.group(1)
            if name in labels:
                raise AsmError(line_no, f"duplicate label {name!r}")
            labels[name] = len(statements)  # the index of the next statement
            if dangling is None:
                dangling = (line_no, name)
            start = match.end()
        line = line[start:]
        if not line:
            continue

        pred_token = None
        if line[0] == "@":
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise AsmError(line_no, "predicate prefix without instruction")
            pred_token, line = parts

        head, *rest = line.split(None, 1)
        mnemonic = head.upper()
        pop_bit = False
        if mnemonic.endswith(".S"):
            pop_bit = True
            mnemonic = mnemonic[:-2]
        operands = list(map(str.strip, rest[0].split(","))) if rest else []
        if "" in operands:
            raise AsmError(line_no, "empty operand")
        dangling = None
        statements.append((line_no, pred_token, mnemonic, pop_bit, operands))

    if dangling is not None:
        raise AsmError(dangling[0], f"label {dangling[1]!r} attached to no instruction")
    if not statements:
        raise AsmError(1, "empty program")
    register_file_size, predicate_file_size = sizes.values()

    instructions = []
    for line_no, pred_token, mnemonic, pop_bit, operands in statements:
        opcode = _MNEMONICS.get(mnemonic)
        if opcode is None:
            raise AsmError(line_no, f"unknown mnemonic {mnemonic!r}")
        try:
            fields = _parse_operands(opcode, operands, labels,
                                     register_file_size, predicate_file_size)
            if pred_token is not None:
                fields["pred"] = predicate_index(pred_token, predicate_file_size)
        except ProgramError as exc:
            raise AsmError(line_no, str(exc)) from None
        instructions.append(Instruction(opcode, pop_bit=pop_bit, **fields))

    try:
        return Program(tuple(instructions), register_file_size, predicate_file_size, labels)
    except ProgramError as exc:  # an instruction's fault at its line, else at the last
        raise AsmError(statements[getattr(exc, "index", -1)][0], str(exc)) from None


def _parse_operands(opcode: Opcode, tokens: list[str], labels: Mapping[str, int],
                    regs: int, preds: int) -> dict:
    """Operand fields of one statement, read by the shapes of its SPECS row.

    Targets, immediates and slot indices are range-checked afterwards by
    :func:`_check_instruction`.
    """
    operands = SPECS[opcode].operands
    if len(tokens) != len(operands):
        shapes = ", ".join(operand[0] for operand in operands)
        raise ProgramError(f"expected operands: {opcode.value} {shapes}".rstrip())
    fields = {}
    for operand, token in zip(operands, tokens):
        shape, name = operand[0], operand[1]
        if shape == "target":
            value = _parse_int_literal(token)
            if value is None:
                if token not in labels:
                    raise ProgramError(f"unresolved label {token!r}")
                value = labels[token]
        elif shape == "reg":
            value = register_index(token, regs)
        elif shape == "pred":
            value = predicate_index(token, preds)
        elif shape == "f32":
            try:
                value = f32(float(token))
            except (ValueError, OverflowError):
                raise ProgramError(f"not a float32 immediate: {token!r}") from None
        else:  # "reg|int" or "[reg|int]"
            if shape == "[reg|int]":
                if not (token.startswith("[") and token.endswith("]")):
                    raise ProgramError(f"slot operand must be bracketed: {token!r}")
                token = token[1:-1].strip()
            value = _parse_int_literal(token)
            if value is None:
                value = register_index(token, regs)
            else:
                name = operand[2]
        fields[name] = value
    return fields


def format_instruction(ins: Instruction, label_of=None) -> str:
    """Render one instruction body (no label prefix)."""
    texts = []
    for operand in SPECS[ins.opcode].operands:
        shape, value = operand[0], getattr(ins, operand[1])
        if shape == "target":
            text = (label_of or str)(value)
        elif shape == "pred":
            text = predicate_name(value)
        elif shape == "f32":
            text = repr(value)
        elif value is None and len(operand) == 3:  # integer form of "reg|int"
            text = str(getattr(ins, operand[2]))
        else:
            text = register_name(value)
        texts.append(f"[{text}]" if shape == "[reg|int]" else text)
    text = ins.opcode.value + (".S" if ins.pop_bit else "")
    if texts:
        text += " " + ", ".join(texts)
    if ins.pred is not None:
        text = f"@{predicate_name(ins.pred)} {text}"
    return text


def format_program(program: Program) -> str:
    """Render a program as assembly text that re-parses to an equal program."""
    names: dict[int, str] = {}
    for name in sorted(program.labels, key=lambda n: (program.labels[n], n)):
        names.setdefault(program.labels[name], name)
    targeted = {ins.target for ins in program.instructions} - {None}
    for target in targeted - names.keys():
        names[target] = f"L{target}"
        while names[target] in program.labels:  # never a source label's name
            names[target] += "_"

    lines = []
    if program.register_file_size != DEFAULT_REGISTER_FILE:
        lines.append(f".registers {program.register_file_size}")
    if program.predicate_file_size != DEFAULT_PREDICATE_FILE:
        lines.append(f".predicates {program.predicate_file_size}")
    width = max([len(name) + 1 for name in names.values()] + [7]) + 1
    for index, ins in enumerate(program.instructions):
        prefix = f"{names[index]}:" if index in targeted else ""
        body = format_instruction(ins, label_of=lambda t: names[t])
        lines.append(f"{prefix:<{width}}{body}")
    return "\n".join(lines) + "\n"

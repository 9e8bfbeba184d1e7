"""Parser, formatter, and program-validation behavior."""

import dataclasses

import pytest

import warpsim as ws
from warpsim import isa
from warpsim.errors import AsmError, ProgramError


def test_label_resolution():
    prog = ws.parse_program("""
        SSY done
        NOP
    done:
        NOP
        EXIT
    """)
    assert prog.instructions[0].opcode is ws.Opcode.SSY
    assert prog.instructions[0].target == 2
    assert prog.labels == {"done": 2}


def test_predicated_branch_parse():
    prog = ws.parse_program("""
    loop: IADD R4, R4, 1
        @P0 BRA loop
        EXIT
    """)
    bra = prog.instructions[1]
    assert bra.opcode is ws.Opcode.BRA
    assert bra.pred == 0
    assert bra.pop_bit is False
    assert bra.target == 0


def test_pop_bit_suffix():
    prog = ws.parse_program("NOP.S\nEXIT")
    assert prog.instructions[0].opcode is ws.Opcode.NOP
    assert prog.instructions[0].pop_bit is True


def test_pop_bit_on_non_nop_carrier():
    prog = ws.parse_program("IADD.S R0, R0, 0x420\nEXIT")
    ins = prog.instructions[0]
    assert ins.pop_bit and ins.opcode is ws.Opcode.IADD and ins.imm == 0x420


def test_comments_hex_and_case():
    prog = ws.parse_program("""
        mov R1, 0x10   ; set up
        iadd R1, R1, -2  # negative immediate
        EXIT
    """)
    assert prog.instructions[0].imm == 16
    assert prog.instructions[1].imm == -2


def test_unconditional_and_numeric_target():
    prog = ws.parse_program("BRA 1\nEXIT")
    assert prog.instructions[0].pred is None and prog.instructions[0].target == 1


@pytest.mark.parametrize("source,line,message", [
    ("FROB R1\nEXIT", 1, "unknown mnemonic 'FROB'"),
    ("BRA nowhere\nEXIT", 1, "unresolved label 'nowhere'"),
    ("MOV R99, 1\nEXIT", 1, "register R99 outside file of 16"),
    ("NOP\nISETP.LT P9, R0, 1\nEXIT", 2, "predicate P9 outside file of 7"),
    ("@P0 NOP\nEXIT", 1, "instruction 0 (NOP): predication not allowed on this opcode"),
    ("SSY.S 1\nEXIT", 1, "instruction 0 (SSY): pop-bit not allowed on this opcode"),
    ("BRA.S 1\nEXIT", 1, "instruction 0 (BRA): pop-bit not allowed on this opcode"),
    ("dup: NOP\ndup: NOP\nEXIT", 2, "duplicate label 'dup'"),
    ("IADD R1, R2\nEXIT", 1, "expected operands: IADD reg, reg, reg|int"),
    ("MOV R1,, 2\nEXIT", 1, "empty operand"),
    ("NOP\n.registers 8\nEXIT", 2, "directives must precede all instructions"),
    ("STSLOT R4, R5\nEXIT", 1, "slot operand must be bracketed: 'R4'"),
    ("STSLOT [-1], R5\nEXIT", 1, "instruction 0 (STSLOT): slot index -1 must be >= 0"),
    ("FADD32I R0, R0, nope\nEXIT", 1, "not a float32 immediate: 'nope'"),
    ("FADD32I R0, R0, 1e300\nEXIT", 1, "not a float32 immediate: '1e300'"),
    ("MOV R1, 08\nEXIT", 1, "not a register name: '08'"),
    ("IADD R1, R1, 0b12\nEXIT", 1, "not a register name: '0b12'"),
    ("BRA 0o9\nEXIT", 1, "unresolved label '0o9'"),
    (".registers 09\nEXIT", 1, "malformed directive '.registers 09'"),
    ("MOV R1, 5000000000\nNOP\nNOP\nEXIT", 1,
     "instruction 0 (MOV): immediate 5000000000 outside 32-bit signed range"),
    ("FADD32I R1, RZ, nan\nEXIT", 1,
     "instruction 0 (FADD32I): immediate nan is not float32-exact"),
    (".registers 100000000\nEXIT", 1, ".registers 100000000 outside 1..255"),
    (".registers 4\n.predicates 0\nEXIT", 2, ".predicates 0 outside 1..255"),
    ("EXIT\norphan:", 2, "label 'orphan' attached to no instruction"),
    ("NOP\na: ; b\nb: c: # d\n", 2, "label 'a' attached to no instruction"),
    ("a: b: a: EXIT", 1, "duplicate label 'a'"),
    ("FROB R1\ndup: NOP\ndup: EXIT", 3, "duplicate label 'dup'"),
    ("MOV R99, 1\nx:", 2, "label 'x' attached to no instruction"),
    ("a: .registers 4\nEXIT", 1, "unknown mnemonic '.REGISTERS'"),
    ("a:\n.registers 4\nEXIT", 2, "directives must precede all instructions"),
    ("@P0\nEXIT", 1, "predicate prefix without instruction"),
    ("@P9 BRA 1\nEXIT", 1, "predicate P9 outside file of 7"),
    ("BRA 2\nEXIT", 1, "instruction 0 (BRA): target 2 out of range"),
    ("MOV R1, 2\nMOV R1,, 2\nEXIT", 2, "empty operand"),
    ("EXIT\nFROB\nEXIT", 2, "unknown mnemonic 'FROB'"),
    ("EXIT\nNOP", 2, "program must contain exactly one EXIT, as the final instruction"),
    ("; nothing here\n", 1, "empty program"),
    (".foo 1\nEXIT", 1, "unknown directive '.foo'"),
])
def test_parse_errors_name_the_line(source, line, message):
    with pytest.raises(AsmError) as err:
        ws.parse_program(source)
    assert err.value.line_no == line
    assert str(err.value) == f"line {line}: {message}"


def test_long_label_runs_attach_to_the_next_instruction():
    names = [f"L{k}" for k in range(8000)]
    text = "\n".join(f"{name}:" for name in names) + "\nEXIT\n"
    assert ws.parse_program(text).labels == dict.fromkeys(names, 0)
    one_line = " ".join(f"{name}:" for name in names) + " EXIT"
    assert ws.parse_program(one_line).labels == dict.fromkeys(names, 0)
    runs = "NOP\n" + "\n".join(f"{name}: NOP" for name in names) + "\nEXIT\n"
    assert ws.parse_program(runs).labels == {name: k + 1 for k, name in enumerate(names)}
    with pytest.raises(AsmError) as err:
        ws.parse_program(text.replace("EXIT", "L17: EXIT"))
    assert (err.value.line_no, str(err.value)) == (8001, "line 8001: duplicate label 'L17'")
    with pytest.raises(AsmError) as err:
        ws.parse_program("EXIT\n" + text.replace("EXIT", ""))
    assert str(err.value) == "line 2: label 'L0' attached to no instruction"
    with pytest.raises(AsmError) as err:
        ws.parse_program(one_line.replace(" EXIT", " L17: EXIT"))
    assert str(err.value) == "line 1: duplicate label 'L17'"


def test_structural_errors():
    with pytest.raises(AsmError, match="EXIT"):
        ws.parse_program("NOP")
    with pytest.raises(AsmError, match="EXIT"):
        ws.parse_program("EXIT\nNOP")
    with pytest.raises(AsmError, match="EXIT"):
        ws.parse_program("EXIT\nEXIT")
    with pytest.raises(AsmError, match="empty"):
        ws.parse_program("; nothing here\n")
    with pytest.raises(AsmError, match="no instruction"):
        ws.parse_program("EXIT\norphan:")


def test_directives_resize_files():
    prog = ws.parse_program(".registers 4\n.predicates 2\nMOV R3, 1\nEXIT")
    assert prog.register_file_size == 4
    assert prog.predicate_file_size == 2
    with pytest.raises(AsmError, match="register"):
        ws.parse_program(".registers 4\nMOV R4, 1\nEXIT")


def test_file_sizes_are_capped():
    top = isa.MAX_FILE_SIZE
    prog = ws.parse_program(f".registers {top}\n.predicates {top}\nMOV R{top - 1}, 1\nEXIT")
    assert (prog.register_file_size, prog.predicate_file_size) == (top, top)
    with pytest.raises(ProgramError, match="file sizes"):
        isa.Program((isa.Instruction(ws.Opcode.EXIT),), register_file_size=top + 1)
    with pytest.raises(ProgramError, match="file sizes"):
        isa.Program((isa.Instruction(ws.Opcode.EXIT),), predicate_file_size=top + 1)


def test_float_immediate_rounded_to_float32():
    prog = ws.parse_program("FADD32I R0, R0, 0.1\nEXIT")
    assert prog.instructions[0].imm == ws.f32(0.1)


@pytest.mark.parametrize("kernel", ["single", "double", "single-instrumented"])
def test_round_trip_on_kernels(kernel):
    prog = ws.kernel_program(kernel)
    text = ws.format_program(prog)
    reparsed = ws.parse_program(text)
    assert reparsed == prog
    assert ws.format_program(reparsed) == text


def test_tab_separates_mnemonic_from_operands():
    prog = ws.parse_program("MOV\tR1, 2\nEXIT")
    assert prog.instructions[0].dst == 1 and prog.instructions[0].imm == 2


EVERY_FORM = """\
.registers 8
.predicates 3
top:    SSY done
        @P1 BRA top
        @PT BRA next
next:   BRA done
        NOP
        NOP.S
        IADD R1, R2, R3
        IADD.S RZ, R1, -5
        FADD32I R1, RZ, 0.5
        FADD32I.S R2, R1, -1.25
        ISETP.LT P0, R1, RZ
        ISETP.LT.S PT, R2, 0x10
        MOV R3, RZ
        MOV.S R4, -7
        CLOCK R5
        CLOCK.S RZ
        STSLOT [R6], R1
        STSLOT.S [3], RZ
done:   EXIT
"""


def test_round_trip_covers_every_opcode_and_operand_form():
    prog = ws.parse_program(EVERY_FORM)
    ins = prog.instructions
    assert {i.opcode for i in ins} == set(ws.Opcode)
    assert {i.opcode for i in ins if i.pop_bit} == {
        op for op, spec in isa.SPECS.items() if spec.pop}
    for op, spec in isa.SPECS.items():
        for operand in spec.operands:
            if len(operand) == 3:  # both the register and the integer form
                used = {name for i in ins if i.opcode is op
                        for name in operand[1:] if getattr(i, name) is not None}
                assert used == set(operand[1:]), (op, operand)
    assert [i.pred for i in ins if i.opcode is ws.Opcode.BRA] == [1, isa.PRED_PT, None]
    assert ins[7].dst == ins[8].src_a == isa.REG_RZ and ins[11].pdst == isa.PRED_PT
    text = ws.format_program(prog)
    reparsed = ws.parse_program(text)
    assert reparsed == prog
    assert ws.format_program(reparsed) == text


def test_every_opcode_has_one_spec_row_and_decode_kinds():
    assert list(isa.SPECS) == list(ws.Opcode)


def test_a_directly_built_program_is_checked_at_construction():
    with pytest.raises(ProgramError, match="32-bit"):
        isa.Program(instructions=(isa.Instruction(ws.Opcode.MOV, dst=0, imm=1 << 40),
                                  isa.Instruction(ws.Opcode.EXIT)))


def test_a_valid_directly_built_program_runs_without_a_parse():
    program = isa.Program((isa.Instruction(ws.Opcode.MOV, dst=2, imm=7),
                           isa.Instruction(ws.Opcode.IADD, dst=2, src_a=2, imm=-9),
                           isa.Instruction(ws.Opcode.EXIT)), register_file_size=3)
    result = ws.verify_result(ws.run(program))
    assert result.register("R2") == (-2,) * ws.WARP_SIZE
    assert ws.parse_program(ws.format_program(program)) == program


def test_replace_checks_the_new_program():
    program = ws.parse_program("NOP\nEXIT")
    with pytest.raises(ProgramError) as err:
        dataclasses.replace(program, register_file_size=0)
    assert str(err.value) == f"register and predicate file sizes must be in 1..{isa.MAX_FILE_SIZE}"
    with pytest.raises(ProgramError) as err:
        dataclasses.replace(program, instructions=program.instructions[1:] * 2)
    assert str(err.value) == "program must contain exactly one EXIT, as the final instruction"


def test_a_syntax_fault_is_reported_before_a_range_fault_on_an_earlier_line():
    with pytest.raises(AsmError) as err:
        ws.parse_program("MOV R1, 5000000000\nFOO\nEXIT")
    assert str(err.value) == "line 2: unknown mnemonic 'FOO'"
    with pytest.raises(AsmError) as err:  # alone, the range fault keeps its line and text
        ws.parse_program("MOV R1, 5000000000\nNOP\nEXIT")
    assert str(err.value) == \
        "line 1: instruction 0 (MOV): immediate 5000000000 outside 32-bit signed range"


def test_format_renders_suffix_prefix_and_directives():
    prog = ws.parse_program(".registers 8\nstart: NOP.S\n@P1 BRA start\nEXIT")
    text = ws.format_program(prog)
    assert "NOP.S" in text
    assert "@P1 BRA start" in text
    assert ".registers 8" in text
    assert ws.parse_program(text) == prog


def test_program_equality_ignores_label_names():
    a = ws.parse_program("top: NOP\nBRA top\nEXIT")
    b = ws.parse_program("loop: NOP\nBRA loop\nEXIT")
    assert a == b
    assert a != ws.parse_program("top: NOP\nBRA 0\nNOP\nEXIT")


def test_program_rejects_malformed_instructions():
    exit_ins = isa.Instruction(ws.Opcode.EXIT)

    def program_of(*instructions):
        return isa.Program(instructions=tuple(instructions) + (exit_ins,))

    cases = [
        isa.Instruction(ws.Opcode.BRA, target=99),
        isa.Instruction(ws.Opcode.SSY, target=None),
        isa.Instruction(ws.Opcode.BRA, target=0, pop_bit=True),
        isa.Instruction(ws.Opcode.IADD, dst=0, src_a=0, src_b=1, imm=2),
        isa.Instruction(ws.Opcode.IADD, dst=0, src_a=0),
        isa.Instruction(ws.Opcode.MOV, dst=0, imm=1 << 40),
        isa.Instruction(ws.Opcode.FADD_IMM, dst=0, src_a=0, imm=0.1),
        isa.Instruction(ws.Opcode.NOP, dst=3),
        isa.Instruction(ws.Opcode.ISETP_LT, pdst=0, src_a=0, imm=1, pred=1),
        isa.Instruction(ws.Opcode.STORE_SLOT, slot=0, slot_reg=1, src_a=0),
    ]
    for ins in cases:
        with pytest.raises(ProgramError):
            program_of(ins)


@pytest.mark.parametrize("ins,message", [
    (isa.Instruction(ws.Opcode.BRA, target=0, pred=7),
     "instruction 0 (BRA): predicate 7 outside file"),
    (isa.Instruction(ws.Opcode.MOV, dst=0, imm=1.5),
     "instruction 0 (MOV): immediate 1.5 must be an integer"),
    (isa.Instruction(ws.Opcode.IADD, src_a=0, imm=1), "instruction 0 (IADD): missing dst"),
    (isa.Instruction(ws.Opcode.MOV, dst=16, imm=1),
     "instruction 0 (MOV): dst=16 outside register file of 16"),
    (isa.Instruction(ws.Opcode.ISETP_LT, pdst=7, src_a=0, imm=1),
     "instruction 0 (ISETP.LT): pdst=7 outside predicate file"),
    (isa.Instruction(ws.Opcode.FADD_IMM, dst=0, src_a=0, imm=1),
     "instruction 0 (FADD32I): needs a float immediate"),
], ids=["pred", "int-imm", "missing-reg", "reg-range", "pred-operand", "f32-imm"])
def test_program_names_the_fault_of_a_hand_built_instruction(ins, message):
    with pytest.raises(ProgramError) as err:
        isa.Program((ins, isa.Instruction(ws.Opcode.EXIT)))
    assert str(err.value) == message


def _program_of(ins):
    return isa.Program((ins, isa.Instruction(ws.Opcode.EXIT)))


def _run_under_mask(active_mask):
    return ws.run(ws.parse_program("NOP\nEXIT"), ws.LaunchConfig(active_mask=active_mask))


@pytest.mark.parametrize("build,arg,message", [
    (_program_of, isa.Instruction(ws.Opcode.MOV, dst="a", imm=1),
     "instruction 0 (MOV): dst='a' is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.BRA, target=0, pred="0"),
     "instruction 0 (BRA): pred='0' is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.STORE_SLOT, slot="x", src_a=0),
     "instruction 0 (STSLOT): slot='x' is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.BRA, target=True),
     "instruction 0 (BRA): target=True is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.BRA, target=0.0),
     "instruction 0 (BRA): target=0.0 is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.STORE_SLOT, slot=1.5, src_a=0),
     "instruction 0 (STSLOT): slot=1.5 is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.ISETP_LT, pdst=0.0, src_a=0, imm=1),
     "instruction 0 (ISETP.LT): pdst=0.0 is not an integer"),
    (_program_of, isa.Instruction(ws.Opcode.IADD, dst=1, src_a=0, imm=True),
     "instruction 0 (IADD): immediate True must be an integer"),
    (_program_of, isa.Instruction(ws.Opcode.MOV, dst=1, src_a=True),
     "instruction 0 (MOV): src_a=True is not an integer"),
    (_run_under_mask, 1.5, "launch active mask 1.5 is not an integer"),
    (_run_under_mask, True, "launch active mask True is not an integer"),
    (_run_under_mask, "3", "launch active mask '3' is not an integer"),
], ids=["dst-str", "pred-str", "slot-str", "target-bool", "target-float", "slot-float",
        "pdst-float", "imm-bool", "src-bool", "mask-float", "mask-bool", "mask-str"])
def test_every_integer_field_must_be_a_plain_int(build, arg, message):
    with pytest.raises(ProgramError) as err:
        build(arg)
    assert str(err.value) == message


@pytest.mark.parametrize("labels,message", [
    ({"1 bad": 1}, "label '1 bad' is not an identifier"),
    ({"ok": 0, 7: 1}, "label 7 is not an identifier"),
    ({"x": 5}, "label 'x' points at 5, not an instruction of this program"),
    ({"x": -1}, "label 'x' points at -1, not an instruction of this program"),
    ({"x": True}, "label 'x' points at True, not an instruction of this program"),
], ids=["not-identifier", "not-str", "past-end", "negative", "bool"])
def test_program_checks_its_labels(labels, message):
    instructions = (isa.Instruction(ws.Opcode.BRA, target=1), isa.Instruction(ws.Opcode.EXIT))
    with pytest.raises(ProgramError) as err:
        isa.Program(instructions, labels=labels)
    assert str(err.value) == message
    with pytest.raises(ProgramError):
        dataclasses.replace(isa.Program(instructions), labels=labels)


@pytest.mark.parametrize("source", [
    "L1: NOP\nBRA L1\nBRA 1\nEXIT",
    "L2: NOP\nBRA 2\nNOP\nBRA L2\nEXIT",
    "L1: L1_: NOP\nBRA L1\nBRA 1\nEXIT",
], ids=["on-another-instruction", "named-twice", "suffixed-too"])
def test_format_never_gives_a_numeric_target_a_source_label_name(source):
    program = ws.parse_program(source)
    text = ws.format_program(program)
    assert ws.parse_program(text) == program
    assert ws.format_program(ws.parse_program(text)) == text


def test_program_rejects_an_empty_program():
    with pytest.raises(ProgramError) as err:
        isa.Program(())
    assert str(err.value) == "program has no instructions"


def test_register_and_predicate_names():
    assert isa.register_index("RZ") == isa.REG_RZ
    assert isa.register_index("r7") == 7
    assert isa.predicate_index("PT") == isa.PRED_PT
    assert isa.register_name(isa.REG_RZ) == "RZ"
    assert isa.predicate_name(3) == "P3"
    with pytest.raises(ProgramError):
        isa.register_index("Q1")


@pytest.mark.parametrize("parse,name,size,message", [
    (isa.register_index, "Q1", 16, "not a register name: 'Q1'"),
    (isa.register_index, "PT", 16, "not a register name: 'PT'"),
    (isa.register_index, " r4 ", 4, "register R4 outside file of 4"),
    (isa.predicate_index, "RZ", 7, "not a predicate name: 'RZ'"),
    (isa.predicate_index, "P", 7, "not a predicate name: 'P'"),
    (isa.predicate_index, "p7", 7, "predicate P7 outside file of 7"),
])
def test_register_and_predicate_index_errors(parse, name, size, message):
    with pytest.raises(ProgramError) as err:
        parse(name, size)
    assert str(err.value) == message


@pytest.mark.parametrize("parse,name,size,index", [
    (isa.register_index, " r4 ", 16, 4),
    (isa.register_index, "R01", 16, 1),
    (isa.register_index, "R0004", 5, 4),
    (isa.register_index, "r15", 16, 15),
    (isa.register_index, "rz", 16, isa.REG_RZ),
    (isa.register_index, "Rz", 1, isa.REG_RZ),
    (isa.register_index, " RZ\n", 16, isa.REG_RZ),
    (isa.register_index, "R254", 255, 254),
    (isa.predicate_index, "pt", 7, isa.PRED_PT),
    (isa.predicate_index, " PT ", 1, isa.PRED_PT),
    (isa.predicate_index, "P01", 7, 1),
    (isa.predicate_index, " p6 ", 7, 6),
])
def test_register_and_predicate_index_accept_non_canonical_names(parse, name, size, index):
    assert parse(name, size) == index


@pytest.mark.parametrize("parse,name,size,message", [
    (isa.register_index, "R01", 1, "register R01 outside file of 1"),
    (isa.register_index, "R255", 255, "register R255 outside file of 255"),
    (isa.register_index, "R16", 16, "register R16 outside file of 16"),
    (isa.register_index, "R 1", 16, "not a register name: 'R 1'"),
    (isa.register_index, "R-1", 16, "not a register name: 'R-1'"),
    (isa.register_index, "RT", 16, "not a register name: 'RT'"),
    (isa.predicate_index, "P7", 7, "predicate P7 outside file of 7"),
    (isa.predicate_index, "PZ", 7, "not a predicate name: 'PZ'"),
    (isa.predicate_index, "p07", 7, "predicate P07 outside file of 7"),
])
def test_register_and_predicate_index_errors_on_canonical_and_padded_names(
        parse, name, size, message):
    with pytest.raises(ProgramError) as err:
        parse(name, size)
    assert str(err.value) == message

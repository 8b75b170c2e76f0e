import random

import pytest

from cxlpim.config import ArchConfig
from cxlpim import isa
from cxlpim.isa import (
    IsaError, OPCODE_FIELDS, expand_microops, format_instruction,
    make_instruction, parse_instruction, parse_trace, validate_trace,
)

CFG = ArchConfig()


def random_instruction(rng: random.Random) -> isa.Instruction:
    opcode = rng.choice(sorted(OPCODE_FIELDS))
    values = []
    for name in OPCODE_FIELDS[opcode]:
        lo, hi = isa._field_range(name, CFG)
        if name == "OPsize":
            hi = 64  # keep expansions bounded
        if opcode == "WR_GB" and name == "CO":
            hi = CFG.gb_slots
        values.append(rng.randrange(lo, min(hi, 1 << 20)))
    kw = {}
    if opcode == "MAC_ABK":
        kw["source_select"] = rng.choice(["GB", "BANK"])
    if opcode == "RED":
        kw["red_mode"] = rng.choice(["SUM", "MAX"])
    if opcode in ("COPY_BKGB", "COPY_GBBK"):
        kw["copy_bank"] = rng.randrange(16)
    return make_instruction(opcode, *values, **kw)


def test_round_trip_identity():
    rng = random.Random(7)
    for _ in range(500):
        inst = random_instruction(rng)
        assert parse_instruction(format_instruction(inst)) == inst


def test_parse_examples():
    inst = parse_instruction("MAC_ABK 0xFFFFFFFF 64 12 0 2")
    assert inst.opcode == "MAC_ABK"
    assert inst.CHmask == 0xFFFFFFFF
    assert (inst.OPsize, inst.RO, inst.CO, inst.Regid) == (64, 12, 0, 2)
    assert inst.source_select == "GB"

    inst = parse_instruction("RECV_CXL")
    assert inst.opcode == "RECV_CXL" and inst.operands == ()

    inst = parse_instruction("BCAST_CXL 7 100 100")
    assert (inst.DVcount, inst.Rs, inst.Rd) == (7, 100, 100)


def test_format_examples():
    assert format_instruction(make_instruction(
        "MAC_ABK", 0xFFFFFFFF, 64, 12, 0, 2)) == "MAC_ABK 0xFFFFFFFF 64 12 0 2"
    assert format_instruction(make_instruction(
        "SEND_CXL", 3, 0, 0)) == "SEND_CXL 3 0 0"
    assert format_instruction(make_instruction(
        "WR_GB", 0x1, 8, 0, 16)) == "WR_GB 0x1 8 0 16"


def test_mac_abk_bank_suffix_round_trips():
    inst = make_instruction("MAC_ABK", 0x3, 4, 0, 0, 1, source_select="BANK")
    text = format_instruction(inst)
    assert text.endswith(" BANK")
    assert parse_instruction(text) == inst


def test_parse_errors_name_token():
    with pytest.raises(IsaError, match="unknown mnemonic"):
        parse_instruction("FROB 1 2 3")
    with pytest.raises(IsaError, match="expected 5 operands"):
        parse_instruction("MAC_ABK 0x1 64 12 0")
    with pytest.raises(IsaError, match="Regid=99"):
        parse_instruction("MAC_ABK 0x1 64 12 0 99")
    with pytest.raises(IsaError, match=r"operand 2 \(OPsize\)"):
        parse_instruction("MAC_ABK 0x1 banana 12 0 2")


def test_expand_mac_abk_columns():
    inst = make_instruction("MAC_ABK", 0x1, 4, 5, 10, 0)
    ops = expand_microops(inst, CFG)
    assert len(ops) == 4
    assert [m.col for m in ops] == [10, 11, 12, 13]
    assert all(m.channel == 0 and m.row == 5 for m in ops)
    assert all(m.banks == tuple(range(16)) for m in ops)


def test_expand_af_per_channel():
    ops = expand_microops(make_instruction("AF", 0x3, 0, 1), CFG)
    assert len(ops) == 2
    assert sorted(m.channel for m in ops) == [0, 1]
    assert all(m.seq == 0 for m in ops)


def test_expand_wr_sbk_slots():
    ops = expand_microops(make_instruction("WR_SBK", 2, 3, 0, 0, 0, 100), CFG)
    assert [m.slot for m in ops] == [100, 101, 102]
    assert [m.col for m in ops] == [0, 1, 2]
    assert all(m.channel == 2 and m.banks == (0,) for m in ops)


def test_microop_count_invariant():
    rng = random.Random(11)
    for _ in range(300):
        inst = random_instruction(rng)
        try:
            ops = expand_microops(inst, CFG)
        except IsaError:
            continue
        opsize = inst.get("OPsize", 1)
        fields = OPCODE_FIELDS[inst.opcode]
        assert len(ops) == isa.microop_count(inst.opcode, inst.operands)
        if "CHmask" in fields and inst.opcode in (
                "MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK", "WR_GB"):
            assert len(ops) == opsize * bin(inst.CHmask).count("1")
        elif "CHmask" in fields:
            assert len(ops) == bin(inst.CHmask).count("1")
        elif inst.opcode == "RED":
            # 32 parallel reduction trees share one micro-op per chunk
            assert len(ops) == -(-opsize // 32)
        elif inst.opcode in ("WR_SBK", "RD_SBK", "EXP", "ACC", "RISCV"):
            assert len(ops) == opsize
        else:
            assert len(ops) == 1
        cols = [m.col for m in ops if m.channel == ops[0].channel
                and m.col is not None]
        assert cols == sorted(cols)
        if len(cols) > 1:
            assert all(b - a == 1 for a, b in zip(cols, cols[1:]))


def test_red_max_suffix_round_trips():
    inst = make_instruction("RED", 256, 10, 20, red_mode="MAX")
    text = format_instruction(inst)
    assert text == "RED 256 10 20 MAX"
    assert parse_instruction(text) == inst
    assert parse_instruction("RED 256 10 20").red_mode == "SUM"


def test_expand_row_overflow_rejected():
    inst = make_instruction("MAC_ABK", 0x1, 10, 0, 60, 0)
    with pytest.raises(IsaError, match="row boundary"):
        expand_microops(inst, CFG)


def test_validate_empty_trace():
    assert validate_trace([], CFG).well_formed


def test_validate_send_without_recv():
    trace = {0: [make_instruction("SEND_CXL", 3, 0, 0)]}
    rep = validate_trace(trace, CFG)
    assert not rep.well_formed
    assert any(f.kind == "pairing" and f.device == 3 for f in rep.findings)

    trace[3] = [make_instruction("RECV_CXL")]
    assert validate_trace(trace, CFG).well_formed


def test_validate_gb_overflow():
    rep = validate_trace([make_instruction("WR_GB", 0x1, 65, 0, 0)], CFG)
    assert any(f.kind == "range" and "Global" in f.message
               for f in rep.findings)


def test_parse_trace_comments_and_blanks():
    text = "# header\nMAC_ABK 0x1 1 0 0 0  # inline\n\nRECV_CXL\n"
    insts = parse_trace(text)
    assert [i.opcode for i in insts] == ["MAC_ABK", "RECV_CXL"]

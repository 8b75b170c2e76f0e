import random

import pytest

from cxlpim.config import ROW_SLOTS, ArchConfig
from cxlpim import isa
from cxlpim.isa import (
    IsaError, OPCODE_FIELDS, make_instruction, validate_trace,
)

CFG = ArchConfig()


def random_operands(rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """An opcode and operands each drawn from its own range; the runs
    they start may cross a row or overflow a buffer."""
    opcode = rng.choice(sorted(OPCODE_FIELDS))
    bounds, _ = isa._operand_rules(CFG)[opcode]
    values = []
    for name, lo, hi in bounds:
        if name == "OPsize":
            hi = 64
        values.append(rng.randrange(lo, min(hi, 1 << 20)))
    return opcode, tuple(values)


def test_make_instruction_errors_name_operand():
    with pytest.raises(IsaError, match="unknown mnemonic"):
        make_instruction("FROB", 1, 2, 3)
    with pytest.raises(IsaError, match="expected 5 operands"):
        make_instruction("MAC_ABK", 0x1, 64, 12, 0)
    with pytest.raises(IsaError, match="Regid=99"):
        make_instruction("MAC_ABK", 0x1, 64, 12, 0, 99)


def test_expand_mac_abk_columns():
    # one micro-op per column of the run
    assert isa.microop_count("MAC_ABK", (0x1, 4, 5, 10, 0)) == 4


def test_expand_af_per_channel():
    assert isa.microop_count("AF", (0x3, 0, 1)) == 2


def test_expand_wr_sbk_slots():
    assert isa.microop_count("WR_SBK", (2, 3, 0, 0, 0, 100)) == 3


def _expected_microops(opcode: str, operands: tuple) -> int:
    fields = dict(zip(OPCODE_FIELDS[opcode], operands))
    opsize = fields.get("OPsize", 1)
    if "CHmask" in fields:
        chans = bin(fields["CHmask"]).count("1")
        if opcode in ("MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK",
                      "WR_GB"):
            return opsize * chans
        return chans
    if opcode == "RED":
        # 32 parallel reduction trees share one micro-op per chunk
        return -(-opsize // 32)
    if opcode in ("WR_SBK", "RD_SBK", "EXP", "ACC", "RISCV"):
        return opsize
    return 1


def test_microop_count_invariant():
    rng = random.Random(11)
    legal = 0
    for _ in range(300):
        opcode, operands = random_operands(rng)
        try:
            make_instruction(opcode, *operands, cfg=CFG)
        except IsaError:
            continue
        legal += 1
        assert (isa.microop_count(opcode, operands)
                == _expected_microops(opcode, operands)), (opcode, operands)
    assert legal > 150


def test_expand_row_overflow_rejected():
    with pytest.raises(IsaError, match="row boundary"):
        make_instruction("MAC_ABK", 0x1, 10, 0, 60, 0)
    rep = validate_trace([isa.Instruction("MAC_ABK", (0x1, 10, 0, 60, 0))],
                         CFG)
    assert [(f.index, f.kind) for f in rep.findings] == [(0, "range")]
    assert "row boundary" in rep.findings[0].message


@pytest.mark.parametrize("opcode, name, limit, match", [
    ("EW_MUL", "CO", ROW_SLOTS, "cross the row boundary"),
    ("RD_SBK", "CO", ROW_SLOTS, "cross the row boundary"),
    ("WR_GB", "CO", CFG.gb_slots, "exceed Global Buffer"),
    ("WR_GB", "Rs", CFG.sb_slots, "Rs=2040 run of 9 exceeds Shared Buffer"),
    ("ACC", "Rd", CFG.sb_slots, "Rd=2040 run of 9 exceeds Shared Buffer"),
    ("RED", "Rs", CFG.sb_slots, "Rs=2040 run of 9 exceeds Shared Buffer"),
    ("RISCV", "Rs", CFG.sb_slots, "Rs=2040 run of 9 exceeds Shared Buffer"),
])
def test_extent_rules_at_the_limit(opcode, name, limit, match):
    """A run that ends at its row or buffer's last slot is legal; one
    more slot is rejected alike by make_instruction and validate_trace."""
    idx = isa.FIELD_INDEX[opcode]
    for opsize, ok in ((8, True), (9, False)):
        operands = [1] * len(idx)
        operands[idx["OPsize"]] = opsize
        operands[idx[name]] = limit - 8
        if ok:
            make_instruction(opcode, *operands, cfg=CFG)
            assert validate_trace([isa.Instruction(opcode, tuple(operands))],
                                  CFG).well_formed
            continue
        with pytest.raises(IsaError, match=match):
            make_instruction(opcode, *operands, cfg=CFG)
        rep = validate_trace([isa.Instruction(opcode, tuple(operands))], CFG)
        assert [f.kind for f in rep.findings] == ["range"]


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
    rep = validate_trace([isa.Instruction("WR_GB", (0x1, 65, 0, 0))], CFG)
    assert any(f.kind == "range" and "Global" in f.message
               for f in rep.findings)

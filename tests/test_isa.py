import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cxlpim.config import KB, MB, ROW_SLOTS, ArchConfig
from cxlpim import compiler, isa
from cxlpim.isa import (
    IsaError, OPCODE_FIELDS, make_instruction, validate_trace,
)

CFG = ArchConfig()
# every rule that reads the config moves: DVid, Rs/Rd and their runs, RO
SMALL_CFG = ArchConfig(n_devices=4, shared_buffer_B=8 * KB,
                       bank_capacity_B=4 * MB)


def random_operands(rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """An opcode and operands each drawn from its own range; the runs
    they start may cross a row or overflow a buffer."""
    opcode = rng.choice(sorted(OPCODE_FIELDS))
    values = []
    for name, lo, hi in isa._operand_rules(CFG)[opcode].bounds:
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
    ("WR_GB", "CO", ROW_SLOTS, "exceed Global Buffer"),
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


def test_equal_configs_share_one_rule_table():
    """Rule tables are shared by the numbers they read, not by config
    identity, and never pickled with a config."""
    first, second = ArchConfig(), ArchConfig(pnm_clock_Hz=1e9)
    assert isa._operand_rules(first) is isa._operand_rules(second)
    small = ArchConfig(shared_buffer_B=8 * KB)
    rules = isa._operand_rules(small)
    assert rules is not isa._operand_rules(first)
    rs_hi = {name: hi for name, _, hi in rules["EXP"].bounds}["Rs"]
    assert rs_hi == small.sb_slots == 256
    assert _raised(isa.check_operands, "EXP", (1, 0, 256), cfg=small)
    assert _raised(isa.check_operands, "EXP", (1, 0, 256), cfg=first) is None
    assert "_isa_rules" not in vars(pickle.loads(pickle.dumps(small)))


def test_validate_gb_overflow():
    rep = validate_trace([isa.Instruction("WR_GB", (0x1, 65, 0, 0))], CFG)
    assert any(f.kind == "range" and "Global" in f.message
               for f in rep.findings)


@st.composite
def near_rule_edges(draw, cfg):
    """An opcode, operands at and around each of its rules' edges and
    the flags: every operand at lo or hi-1, except that one may be at
    lo-1 or hi; maybe a run that ends at its limit or one past it; maybe
    one operand too few or too many; maybe a flag no instruction
    takes."""
    opcode = draw(st.sampled_from(sorted(OPCODE_FIELDS)))
    rule = isa._operand_rules(cfg)[opcode]
    values = [draw(st.sampled_from((lo, hi - 1)))
              for _, lo, hi in rule.bounds]
    if values and draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        _, lo, hi = rule.bounds[i]
        values[i] = draw(st.sampled_from((lo - 1, hi)))
    for base, size, limit, _ in rule.extents:
        if draw(st.booleans()):
            values[base] = limit - values[size] + draw(st.sampled_from((0, 1)))
    arity = draw(st.sampled_from((0, 0, 0, -1, 1)))
    if arity < 0:
        values = values[:-1]
    elif arity > 0:
        values.append(draw(st.integers(0, 3)))
    flags = {"source_select": draw(st.sampled_from(("GB", "BANK", "ROW"))),
             "red_mode": draw(st.sampled_from(("SUM", "MAX", "MIN")))}
    return opcode, tuple(values), flags


def _raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except IsaError as e:
        return str(e)
    return None


@pytest.mark.parametrize("cfg", [CFG, SMALL_CFG], ids=["default", "small"])
@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_compiled_rules_match_the_table_walk(cfg, data):
    """Each opcode's compiled predicate accepts exactly what walking its
    rule table accepts, and the checker and both sinks raise the
    walk's message."""
    opcode, operands, flags = data.draw(near_rule_edges(cfg))
    rule = isa._operand_rules(cfg)[opcode]
    walked = isa._first_broken_rule(opcode, operands, "GB", "SUM", cfg)
    assert rule.accepts(operands) == (walked is None)

    expected = isa._first_broken_rule(opcode, operands, cfg=cfg, **flags)
    assert _raised(isa.check_operands, opcode, operands, cfg=cfg,
                   **flags) == expected
    for sink in (compiler.CountSink(0, cfg), compiler.ListSink(0, cfg)):
        assert _raised(sink.i, opcode, *operands, **flags) == expected
        assert sink.summary.total_instructions == (expected is None)


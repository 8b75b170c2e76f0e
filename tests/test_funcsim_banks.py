"""The interpreter runs MAC_ABK, EW_MUL and WR_ABK over all 16 banks of
a channel in one numpy operation. Each test here checks one of them
against a per-bank loop written out below, on random BF16 bit patterns
that include NaN, infinities, signed zeros and subnormals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxlpim.compiler import ROW_ELEMS
from cxlpim.config import BANK_GROUPS, BANKS, LANE, REGS, ROW_SLOTS, ArchConfig
from cxlpim.funcsim import (MemoryImage, PoisonError, bf16_round, bf16_to_f32,
                            run_trace)
from cxlpim.isa import make_instruction

# inf - inf and overflow are part of the inputs, not a fault
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

ARCH = ArchConfig()
ROWS = 3                  # DRAM rows the tests touch on each channel
BIAS_SLOT = 7
DRAIN_SLOT = 100          # RD_MAC of the i-th channel drains to 100 + i

SPECIAL = np.array([0x7FC0, 0xFFC1, 0x7F80, 0xFF80,     # NaNs, +-Inf
                    0x0000, 0x8000, 0x0001, 0x807F,     # +-0, subnormals
                    0x7F7F, 0x3F80], dtype=np.uint16)   # max finite, 1.0
RATES = (0.0, 1e-3, 2e-2)


@st.composite
def bits(draw, shape):
    """Dense BF16 bit patterns: mostly finite values within a few dozen
    binades of 1, so that FP32 sums round and their order shows, with
    some drawn from all 16-bit patterns and some from SPECIAL."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = bf16_round(np.ldexp(rng.normal(size=shape),
                              rng.integers(-16, 17, size=shape)))
    wild = rng.random(shape) < draw(st.sampled_from(RATES))
    out[wild] = rng.integers(0, 1 << 16, size=wild.sum())
    special = rng.random(shape) < draw(st.sampled_from(RATES))
    out[special] = rng.choice(SPECIAL, size=special.sum())
    return out


def channels_of(mask):
    return [c for c in range(8) if mask >> c & 1]


def fill(img, mask, rows, gb, acc):
    """Store `rows` (ROWS, BANKS, ROW_ELEMS) bank by bank on every
    channel of `mask`, with its Global Buffer and accumulators."""
    dev = img.device(0)
    for ch in channels_of(mask):
        for row in range(ROWS):
            for bank in range(BANKS):
                dev.bank_row(ch, bank, row, True)[:] = rows[row, bank]
        buf, written = dev.gb_arrays(ch)
        buf[:] = gb
        written[:] = True
        dev.acc_array(ch)[:] = bf16_to_f32(acc)


def fp32_bits(x):
    """FP32 bit patterns, every NaN as the canonical quiet NaN."""
    return np.where(np.isnan(x), np.uint32(0x7FC00000),
                    np.asarray(x, np.float32).view(np.uint32))


def tree(v):
    """One bank's 16-lane product tree: pairs of neighbours, halving."""
    while len(v) > 1:
        v = v[0::2] + v[1::2]
    return v[0]


def mac_per_bank(rows, vec, acc, bias, op, source):
    """The accumulator register of every bank after one MAC_ABK, bank by
    bank and column by column, in FP32; `vec` is the run's Global
    Buffer slots."""
    _, n, row, co, reg = op
    out = bf16_to_f32(acc)[:, reg].copy()
    for bank in range(BANKS):
        mine = bf16_to_f32(rows[row, bank])
        other = (bf16_to_f32(vec).reshape(-1) if source == "GB"
                 else bf16_to_f32(rows[row, bank ^ 1]))
        total = np.float32(bf16_to_f32(bias)[bank]) if bias is not None \
            else out[bank]
        for c in range(co, co + n):
            lanes = slice(c * LANE, (c + 1) * LANE)
            gb_lanes = slice((c - co) * LANE, (c - co + 1) * LANE)
            x = other[gb_lanes] if source == "GB" else other[lanes]
            total = np.float32(total + tree(mine[lanes] * x))
        out[bank] = total
    return out


@st.composite
def mac_case(draw):
    co = draw(st.integers(0, ROW_SLOTS - 1))
    n = draw(st.integers(1, ROW_SLOTS - co))
    op = (draw(st.sampled_from((0x1, 0x4, 0x3, 0x21))), n,
          draw(st.integers(0, ROWS - 1)), co, draw(st.integers(0, REGS - 1)))
    return (op, draw(st.sampled_from(("GB", "BANK"))), draw(st.booleans()),
            draw(bits((ROWS, BANKS, ROW_ELEMS))),
            draw(bits((ROW_SLOTS, LANE))), draw(bits((BANKS, REGS))),
            draw(bits(LANE)))


@settings(max_examples=120, deadline=None, database=None)
@given(case=mac_case())
def test_mac_abk_equals_per_bank_loop(case):
    op, source, armed, rows, gb, acc, bias = case
    mask, n, _, co, reg = op
    img = MemoryImage(ARCH)
    fill(img, mask, rows, gb, acc)
    dev = img.device(0)
    dev.sb[BIAS_SLOT] = bias
    dev.sb_written[BIAS_SLOT] = True
    trace = [make_instruction("WR_BIAS", mask, BIAS_SLOT)] if armed else []
    trace.append(make_instruction("MAC_ABK", *op, source_select=source))
    chans = channels_of(mask)
    trace += [make_instruction("RD_MAC", 1 << ch, DRAIN_SLOT + i, reg)
              for i, ch in enumerate(chans)]
    run_trace({0: trace}, img)

    want = mac_per_bank(rows, gb[co:co + n], acc, bias if armed else None,
                        op, source)
    for i, ch in enumerate(chans):
        assert np.array_equal(dev.sb[DRAIN_SLOT + i], bf16_round(want))
        # the drain hides most FP32 rounding, so check the registers too
        assert np.array_equal(fp32_bits(dev.acc[ch][:, reg]),
                              fp32_bits(want))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_ew_mul_equals_per_bank_loop(data):
    co = data.draw(st.integers(0, ROW_SLOTS - 1))
    op = (data.draw(st.sampled_from((0x1, 0x6))),
          data.draw(st.integers(1, ROW_SLOTS - co)),
          data.draw(st.integers(0, ROWS - 1)), co)
    rows = data.draw(bits((ROWS, BANKS, ROW_ELEMS)))
    mask, n, row, _ = op
    img = MemoryImage(ARCH)
    fill(img, mask, rows, np.zeros((ROW_SLOTS, LANE), np.uint16),
         np.zeros((BANKS, REGS), np.uint16))
    run_trace({0: [make_instruction("EW_MUL", *op)]}, img)

    want = rows.copy()
    lo, hi = co * LANE, (co + n) * LANE
    for g in range(BANK_GROUPS):
        a, b, out = (BANKS // BANK_GROUPS * g + i for i in range(3))
        want[row, out, lo:hi] = bf16_round(bf16_to_f32(rows[row, a, lo:hi])
                                           * bf16_to_f32(rows[row, b, lo:hi]))
    for ch in channels_of(mask):
        for r in range(ROWS):
            for bank in range(BANKS):
                got = img.device(0).bank_row(ch, bank, r, False)
                assert np.array_equal(got, want[r, bank]), (ch, r, bank)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_wr_abk_equals_per_bank_loop(data):
    op = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, ROWS - 1)),
          data.draw(st.integers(0, ROW_SLOTS - 1)), 9,
          data.draw(st.integers(0, LANE - 1)))
    rows = data.draw(bits((ROWS, BANKS, ROW_ELEMS)))
    lanes = data.draw(bits(LANE))
    ch, row, co, rs, reg = op
    img = MemoryImage(ARCH)
    fill(img, 1 << ch, rows, np.zeros((ROW_SLOTS, LANE), np.uint16),
         np.zeros((BANKS, REGS), np.uint16))
    dev = img.device(0)
    dev.sb[rs] = lanes
    dev.sb_written[rs] = True
    run_trace({0: [make_instruction("WR_ABK", *op)]}, img)

    want = rows.copy()
    for bank in range(BANKS):
        want[row, bank, co * LANE + reg] = lanes[bank]
    for r in range(ROWS):
        for bank in range(BANKS):
            assert np.array_equal(dev.bank_row(ch, bank, r, False),
                                  want[r, bank])


def partly_written_image(banks, row_bits, vec):
    """An image whose row 2 on channel 0 holds `row_bits` in `banks`
    only, with every Global Buffer slot written."""
    img = MemoryImage(ARCH)
    dev = img.device(0)
    for bank in banks:
        dev.bank_row(0, bank, 2, True)[:] = row_bits[bank]
    buf, ok = dev.gb_arrays(0)
    buf[:], ok[:] = vec, True
    return img


@pytest.mark.parametrize("source", ["GB", "BANK"])
def test_partly_written_row_poisons_strict_reads_only(source):
    """A read names the first bank never written."""
    banks = [0, 1, 2, 3, 4, 6, 7, 9]             # 5 is the first gap
    rng = np.random.default_rng(0)
    row_bits = bf16_round(rng.normal(size=(BANKS, ROW_ELEMS)))
    vec = bf16_round(rng.normal(size=(ROW_SLOTS, LANE)))
    op = (0x1, 4, 2, 0, 0)
    mac = make_instruction("MAC_ABK", *op, source_select=source)

    img = partly_written_image(banks, row_bits, vec)
    with pytest.raises(PoisonError, match=r"unwritten row 2 \(ch 0 bank 5\)"):
        run_trace({0: [mac]}, img)


def test_ew_mul_reads_only_its_input_banks():
    """EW_MUL reads banks 4g and 4g+1: a row written only there passes
    its read, and one missing bank 4 is named."""
    rng = np.random.default_rng(1)
    row_bits = bf16_round(rng.normal(size=(BANKS, ROW_ELEMS)))
    vec = np.zeros((ROW_SLOTS, LANE), np.uint16)
    ew = make_instruction("EW_MUL", 0x1, 2, 2, 5)
    img = partly_written_image([0, 1, 4, 5, 8, 9, 12, 13], row_bits, vec)
    run_trace({0: [ew]}, img)
    assert img.device(0).slab(0, 2)[1].tolist() == [
        bank % 4 != 3 for bank in range(BANKS)]
    img = partly_written_image([0, 1, 5, 8, 9, 12, 13], row_bits, vec)
    with pytest.raises(PoisonError, match=r"unwritten row 2 \(ch 0 bank 4\)"):
        run_trace({0: [ew]}, img)

"""Architectural-state execution of device traces.

Every 16-bit lane holds a BF16 bit pattern; near-bank MAC units
accumulate in FP32 and round on drain. Inter-device SEND/RECV pairs
rendezvous through per-destination FIFOs under a deterministic
run-until-blocked round-robin schedule.

DRAM is held as one slab per (channel, row): uint16[BANKS, ROW_ELEMS],
bank b's copy of the row in slab[b]. A channel's 16 bank units run in
lockstep, so MAC_ABK, EW_MUL and WR_ABK each run as one numpy operation
over the bank axis, with each bank's arithmetic in the hardware's order:
one pairwise FP32 product tree per column, columns accumulated left to
right in FP32, one BF16 rounding on drain. Each slab carries a mask of
the banks written so far. In strict mode (the default) a read of a bank
outside it raises PoisonError naming the first such bank; in lenient
mode it reads zeros.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import (BANK_GROUPS, BANKS, LANE, REGS, ROW_SLOTS, ArchConfig,
                     ModelSpec)
from .isa import OPCODE_FIELDS, Instruction, mask_channels
from .compiler import (
    ROW_ELEMS, EwWeightPlacement, Layout, TensorPlacement, slots_of,
)


class SimError(RuntimeError):
    pass


class DeadlockError(SimError):
    pass


class PoisonError(SimError):
    """Strict-mode read of never-written state."""


# ---------------------------------------------------------------------------
# BF16 helpers

def bf16_round(values) -> np.ndarray:
    """Round float32 values to BF16 bit patterns (round-to-nearest-even)."""
    f = np.asarray(values, dtype=np.float32)
    bits = f.view(np.uint32) if f.flags["C_CONTIGUOUS"] else \
        np.ascontiguousarray(f).view(np.uint32)
    # bits + 0x7FFF + lsb, in place on one uint32 temporary
    rounded = (bits >> 16) & 1
    rounded += 0x7FFF
    rounded += bits
    rounded >>= 16
    out = rounded.astype(np.uint16)
    nan = np.isnan(f)
    if nan.any():
        out = np.where(nan, np.uint16(0x7FC0), out)
    return out


def bf16_to_f32(bits) -> np.ndarray:
    b = np.asarray(bits, dtype=np.uint16)
    return (b.astype(np.uint32) << 16).view(np.float32)


def bf16(values) -> np.ndarray:
    """Round through BF16 and back to float32."""
    return bf16_to_f32(bf16_round(values))


def _tree_sum(products: np.ndarray) -> np.ndarray:
    """Pairwise FP32 reduction over the last axis (power-of-two length)."""
    v = np.asarray(products, dtype=np.float32)
    while v.shape[-1] > 1:
        v = v[..., 0::2] + v[..., 1::2]
    return v[..., 0]


# ---------------------------------------------------------------------------
# activation-function lookup tables

_AF_DOMAIN = 8.0
_AF_ENTRIES = 1024


def _make_table(fn) -> np.ndarray:
    xs = np.linspace(-_AF_DOMAIN, _AF_DOMAIN, _AF_ENTRIES)
    return fn(xs).astype(np.float32)


_SIGMOID_TABLE = _make_table(lambda x: 1.0 / (1.0 + np.exp(-x)))
_TANH_TABLE = _make_table(np.tanh)
_PHI_TABLE = _make_table(
    lambda x: 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0))))


def _lut(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    xc = np.clip(x, -_AF_DOMAIN, _AF_DOMAIN)
    pos = (xc + _AF_DOMAIN) * ((_AF_ENTRIES - 1) / (2 * _AF_DOMAIN))
    i = np.minimum(pos.astype(np.int64), _AF_ENTRIES - 2)
    frac = (pos - i).astype(np.float32)
    return table[i] * (1 - frac) + table[i + 1] * frac


def apply_af(af_id: int, x: np.ndarray) -> np.ndarray:
    """Sigmoid/tanh read the table directly; SiLU and GELU multiply the
    unclamped input by the gating table so large activations stay exact."""
    x = np.asarray(x, dtype=np.float32)
    if af_id == 0:                      # SILU
        return x * _lut(_SIGMOID_TABLE, x)
    if af_id == 1:                      # GELU
        return x * _lut(_PHI_TABLE, x)
    if af_id == 2:
        return _lut(_SIGMOID_TABLE, x)
    if af_id == 3:
        return _lut(_TANH_TABLE, x)
    raise SimError(f"unknown AFid {af_id}")


def taylor_exp(x: np.ndarray) -> np.ndarray:
    """10-term Taylor series with power-of-two argument reduction:
    exp(x) = T(x/32)^32 over the clamped stabilized domain [-16, 0]."""
    t = (np.asarray(x, dtype=np.float32) / 32.0).astype(np.float32)
    p = np.zeros_like(t)
    for n in range(10, 0, -1):
        p = (p + 1.0 / math.factorial(n)) * t
    p = p + np.float32(1.0)
    for _ in range(5):
        p = p * p
    return p.astype(np.float32)


# ---------------------------------------------------------------------------
# memory image

_ALL_BANKS = np.arange(BANKS)
# EW_MUL runs one triple per bank group: banks 4g and 4g+1 in, 4g+2 out
_GROUP_STRIDE = BANKS // BANK_GROUPS
_EW_INPUTS = np.sort(np.concatenate([_ALL_BANKS[0::_GROUP_STRIDE],
                                     _ALL_BANKS[1::_GROUP_STRIDE]]))
# MAC_ABK's BANK source: each bank multiplies its neighbour's row
_NEIGHBOR = _ALL_BANKS ^ 1


def _unwritten(ch: int, bank, row: int) -> str:
    return f"read of unwritten row {row} (ch {ch} bank {bank})"


class DeviceState:
    """One device's architectural state.

    DRAM is one slab per (channel, row): uint16[BANKS, ROW_ELEMS] with
    bank b's copy of the row in slab[b], so an op that runs on all
    banks of a channel in lockstep is one numpy operation over the bank
    axis. Each slab carries a bool[BANKS] mask of the banks written
    since it was allocated; in strict mode a read of a bank outside the
    mask raises PoisonError."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg
        self.banks: dict = {}   # (ch, row) -> (uint16[16, 1024], bool[16])
        self.gb: dict = {}           # ch -> uint16[64, 16]
        self.gb_written: dict = {}   # ch -> bool[64]
        self.sb = np.zeros((cfg.sb_slots, LANE), dtype=np.uint16)
        self.sb_written = np.zeros(cfg.sb_slots, dtype=bool)
        self.acc: dict = {}          # ch -> float32[16, 32]
        self.armed: dict = {}        # ch -> armed bias slot or None
        self.stab = 0.0

    def slab(self, ch: int, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(contents, written mask) of one row across the channel's
        banks, zero and unwritten on first touch. Writers mark the banks
        they write in the mask."""
        entry = self.banks.get((ch, row))
        if entry is None:
            entry = self.banks[ch, row] = (
                np.zeros((BANKS, ROW_ELEMS), dtype=np.uint16),
                np.zeros(BANKS, dtype=bool))
        return entry

    def read_slab(self, ch: int, row: int, lo: int, hi: int, strict: bool,
                  banks: np.ndarray = _ALL_BANKS) -> np.ndarray:
        """View of elements [lo, hi) of one row in all banks, shaped
        (BANKS, hi - lo), for a read of `banks` (ascending). In strict
        mode, raise PoisonError naming the first of them not written."""
        entry = self.banks.get((ch, row))
        if entry is None:
            if strict:
                raise PoisonError(_unwritten(ch, banks[0], row))
            entry = self.slab(ch, row)
        data, written = entry
        if strict:
            ok = written[banks]
            if not ok.all():
                raise PoisonError(_unwritten(ch, banks[ok.argmin()], row))
        return data[:, lo:hi]

    def bank_row(self, ch: int, bank: int, row: int, write: bool,
                 strict: bool) -> np.ndarray:
        """View of one bank's row; a write marks the bank written."""
        data, written = self.slab(ch, row)
        if write:
            written[bank] = True
        elif strict and not written[bank]:
            raise PoisonError(_unwritten(ch, bank, row))
        return data[bank]

    def gb_arrays(self, ch: int):
        if ch not in self.gb:
            self.gb[ch] = np.zeros((ROW_SLOTS, LANE), dtype=np.uint16)
            self.gb_written[ch] = np.zeros(ROW_SLOTS, dtype=bool)
        return self.gb[ch], self.gb_written[ch]

    def acc_array(self, ch: int) -> np.ndarray:
        if ch not in self.acc:
            self.acc[ch] = np.zeros((BANKS, REGS), dtype=np.float32)
        return self.acc[ch]


class MemoryImage:
    def __init__(self, cfg: Optional[ArchConfig] = None, strict: bool = True):
        self.cfg = cfg or ArchConfig()
        self.strict = strict
        self.devices: dict[int, DeviceState] = {}

    def device(self, dev: int) -> DeviceState:
        if dev not in self.devices:
            self.devices[dev] = DeviceState(self.cfg)
        return self.devices[dev]

    # -- host-side accessors ------------------------------------------------

    def write_slots(self, dev: int, base: int, values) -> None:
        """Write float values into Shared Buffer slots, 16 lanes each."""
        v = np.asarray(values, dtype=np.float32).reshape(-1)
        if len(v) % LANE:
            v = np.concatenate([v, np.zeros(LANE - len(v) % LANE,
                                            dtype=np.float32)])
        st = self.device(dev)
        n = len(v) // LANE
        st.sb[base:base + n] = bf16_round(v).reshape(n, LANE)
        st.sb_written[base:base + n] = True

    def read_slots(self, dev: int, base: int, n_elems: int) -> np.ndarray:
        st = self.device(dev)
        n = slots_of(n_elems)
        if self.strict and not st.sb_written[base:base + n].all():
            raise PoisonError(f"read of unwritten slots at {base}")
        return bf16_to_f32(st.sb[base:base + n]).reshape(-1)[:n_elems]

    def zero_rows(self, dev: int, ch: int, rows) -> None:
        """Mark rows written in every bank; they read as zero until a
        loader or an instruction writes them."""
        st = self.device(dev)
        for row in rows:
            st.slab(ch, row)[1][:] = True


# ---------------------------------------------------------------------------
# image loaders driven by the compiler's layout

def load_gemv_weights(image: MemoryImage, pl: TensorPlacement,
                      matrix) -> None:
    """Store a (rows, cols) matrix per the row-per-bank placement. The
    matrix is indexed with the placement's local coordinates; col_perm
    maps each physical column position to the logical column it holds."""
    w = np.asarray(matrix, dtype=np.float32)
    if w.shape != (pl.rows, pl.cols):
        raise SimError(f"{pl.name}: matrix shape {w.shape} does not match "
                       f"placement ({pl.rows}, {pl.cols})")
    if pl.col_perm is not None:
        w = w[:, np.asarray(pl.col_perm)]
    st = image.device(pl.device)
    for j in range(pl.n_groups):
        ch, _ = pl.group_channel(j)
        group = bf16_round(w[j * LANE:(j + 1) * LANE])    # row r -> bank r
        for t, s in enumerate(pl.tiles):
            row, co, _ = pl.loc(j, t)
            seg = group[:, t * ROW_ELEMS:t * ROW_ELEMS + s * LANE]
            data, written = st.slab(ch, row)
            data[:len(seg), co * LANE:co * LANE + seg.shape[1]] = seg
            written[:len(seg)] = True


def load_ew_weights(image: MemoryImage, wp: EwWeightPlacement,
                    vector) -> None:
    bits = bf16_round(np.asarray(vector, dtype=np.float32).reshape(-1))
    st = image.device(wp.device)
    for s in range(wp.n_slots):
        bank, row, col = wp.loc(s)
        arr = st.bank_row(wp.channel, bank, row, True, False)
        seg = bits[s * LANE:(s + 1) * LANE]
        arr[col * LANE:col * LANE + len(seg)] = seg


def rope_angles(d_head: int, position) -> np.ndarray:
    """Per-pair rotation angle, theta_j = p * 10000^(-2j/d_head); an
    array of positions shaped (n, 1) gives one row per position."""
    j = np.arange(d_head // 2, dtype=np.float64)
    return position * np.power(10000.0, -2.0 * j / d_head)


def load_rope_tables(image: MemoryImage, layout: Layout, block: int) -> None:
    """cos table in the weight bank of bank group 0, sin table in that
    of group 1, one column run per position; each pair angle occupies
    both interleaved lanes."""
    bl = layout.blocks[block]
    m = layout.model
    dh = slots_of(m.d_head)
    run, per_row = dh * LANE, ROW_SLOTS // dh
    st = image.device(bl.master)
    theta = rope_angles(m.d_head, np.arange(m.max_context)[:, None])
    for g, fn in enumerate((np.cos, np.sin)):
        tab = bf16_round(np.repeat(fn(theta), 2, axis=1).astype(np.float32))
        for r, p0 in enumerate(range(0, m.max_context, per_row)):
            runs = tab[p0:p0 + per_row]
            arr = st.bank_row(bl.norm_channel, BANK_GROUPS * g,
                              bl.rope_base_row + r, True, False)
            arr[:len(runs) * run].reshape(len(runs), run)[:, :m.d_head] = runs


def load_kv_history(image: MemoryImage, layout: Layout, block: int,
                    k_cache, v_cache) -> None:
    """Install rotated K/V cache contents for positions [0, n)."""
    bl = layout.blocks[block]
    k = bf16_round(np.asarray(k_cache, dtype=np.float32))
    v = bf16_round(np.asarray(v_cache, dtype=np.float32))
    n_pos = k.shape[1]
    st = image.device(bl.master)
    for kv in bl.kv:
        # the keys of positions 16i..16i+15 are one run in banks 0..15
        for i in range(slots_of(n_pos)):
            row, co = kv.k_loc(i)
            keys = k[kv.kv_head, i * LANE:(i + 1) * LANE]
            data, written = st.slab(kv.channel, row)
            data[:len(keys), co * LANE:co * LANE + kv.d_head] = keys
            written[:len(keys)] = True
        # V^T: dimension 16g+b in bank b, one row per ROW_ELEMS positions
        for g in range(kv.dh_slots):
            nb = min(LANE, kv.d_head - g * LANE)
            for p0 in range(0, n_pos, ROW_ELEMS):
                row, _, _ = kv.v_loc(g, p0)
                vals = v[kv.kv_head, p0:p0 + ROW_ELEMS, g * LANE:g * LANE + nb]
                data, written = st.slab(kv.channel, row)
                data[:nb, :len(vals)] = vals.T
                written[:nb] = True


def load_block_weights(image: MemoryImage, layout: Layout, block: int,
                       weights: dict) -> None:
    bl = layout.blocks[block]
    for name in ("q", "k", "v", "o", "gate", "up", "down"):
        full = np.asarray(weights[name], dtype=np.float32)
        for pl in bl.placements[name].values():
            sub = full[pl.row_offset:pl.row_offset + pl.rows,
                       pl.col_offset:pl.col_offset + pl.cols]
            load_gemv_weights(image, pl, sub)
    for name in ("w_rms1", "w_rms2"):
        load_ew_weights(image, bl.placements[name][bl.master],
                        weights[name])


def prepare_image(layout: Layout, weights: list[dict],
                  strict: bool = True) -> MemoryImage:
    """Build an image with all static state: zeroed scratch rows, the
    zero-constant Shared Buffer slots, RoPE tables and block weights."""
    image = MemoryImage(layout.arch, strict=strict)
    for (dev, ch), runs in layout.zero_rows.items():
        for rows in runs:
            image.zero_rows(dev, ch, rows)
    devices = {d for bl in layout.blocks for d in bl.tp_group}
    for dev in devices:
        image.write_slots(dev, layout.sb.zero,
                          np.zeros(layout.sb.zero_slots * LANE,
                                   dtype=np.float32))
    for b, bl in enumerate(layout.blocks):
        load_block_weights(image, layout, b, weights[bl.block])
        load_rope_tables(image, layout, b)
    return image


def tp_groups(plan) -> dict:
    """device -> its tensor-parallel group, for broadcast delivery."""
    groups = {}
    for a in plan.block_assignments:
        for d in a.devices:
            groups[d] = a.devices
    return groups


# ---------------------------------------------------------------------------
# execution

@dataclass
class _DevProgram:
    device: int
    instructions: list[Instruction]
    routines: dict
    pc: int = 0
    fifo: deque = field(default_factory=deque)
    state: Optional[DeviceState] = None


class _Executor:
    """Opcode semantics. Each handler takes the program and one
    instruction and unpacks its operands in OPCODE_FIELDS order."""

    def __init__(self, image: MemoryImage, programs: dict,
                 groups: Optional[dict]):
        self.image = image
        self.strict = image.strict
        self.programs = programs
        self.groups = groups or {}
        self.default_group = tuple(sorted(programs))
        for p in programs.values():
            p.state = image.device(p.device)

    # -- state helpers ------------------------------------------------------

    def _sb_read(self, st: DeviceState, base: int, n: int) -> np.ndarray:
        if self.strict and not st.sb_written[base:base + n].all():
            raise PoisonError(f"read of unwritten Shared Buffer slots "
                              f"[{base}, {base + n})")
        return bf16_to_f32(st.sb[base:base + n])

    def _sb_write(self, st: DeviceState, base: int,
                  bits: np.ndarray) -> None:
        n = bits.shape[0] if bits.ndim == 2 else 1
        st.sb[base:base + n] = bits
        st.sb_written[base:base + n] = True

    def _sb_run(self, st: DeviceState, base: int, n: int,
                what: str) -> np.ndarray:
        """Bits of slots [base, base + n), poisoned if any is unwritten."""
        if self.strict and not st.sb_written[base:base + n].all():
            raise PoisonError(f"{what} from unwritten slots at {base}")
        return st.sb[base:base + n]

    def _gb_operand(self, st, ch, co, n):
        gb, written = st.gb_arrays(ch)
        if self.strict and not written[co:co + n].all():
            raise PoisonError(f"MAC reads unwritten Global Buffer slots "
                              f"[{co}, {co + n}) on channel {ch}")
        return bf16_to_f32(gb[co:co + n])

    # -- opcode semantics ---------------------------------------------------

    def _op_wr_gb(self, prog, inst):
        mask, n, co, rs = inst.operands
        st = prog.state
        vals = self._sb_run(st, rs, n, "WR_GB")
        for ch in mask_channels(mask):
            gb, written = st.gb_arrays(ch)
            gb[co:co + n] = vals
            written[co:co + n] = True

    def _op_wr_bias(self, prog, inst):
        mask, rs = inst.operands
        for ch in mask_channels(mask):
            prog.state.armed[ch] = rs

    def _op_mac_abk(self, prog, inst):
        mask, n, row, co, reg = inst.operands
        st = prog.state
        for ch in mask_channels(mask):
            acc = st.acc_array(ch)
            if st.armed.get(ch) is not None:
                acc[:, reg] = self._sb_read(st, st.armed[ch], 1)[0]
                st.armed[ch] = None
            w = bf16_to_f32(st.read_slab(
                ch, row, co * LANE, (co + n) * LANE, self.strict)
                ).reshape(BANKS, n, LANE)
            if inst.source_select == "GB":
                partial = _tree_sum(w * self._gb_operand(st, ch, co, n))
            else:
                partial = _tree_sum(w * w[_NEIGHBOR])
            # column micro-ops accumulate sequentially in FP32; cumsum
            # reproduces the running left-to-right sum exactly
            run = np.concatenate([acc[:, reg:reg + 1], partial], axis=1)
            acc[:, reg] = np.cumsum(run, axis=1, dtype=np.float32)[:, -1]

    def _op_rd_mac(self, prog, inst):
        mask, rd, reg = inst.operands
        st = prog.state
        for ch in mask_channels(mask):
            self._sb_write(st, rd, bf16_round(st.acc_array(ch)[:, reg]))

    def _op_af(self, prog, inst):
        mask, af, reg = inst.operands
        for ch in mask_channels(mask):
            acc = prog.state.acc_array(ch)
            acc[:, reg] = apply_af(af, acc[:, reg])

    def _op_ew_mul(self, prog, inst):
        mask, n, row, co = inst.operands
        st = prog.state
        lo, hi = co * LANE, (co + n) * LANE
        for ch in mask_channels(mask):
            x = bf16_to_f32(st.read_slab(ch, row, lo, hi, self.strict,
                                         _EW_INPUTS))
            data, written = st.slab(ch, row)
            data[2::_GROUP_STRIDE, lo:hi] = bf16_round(
                x[0::_GROUP_STRIDE] * x[1::_GROUP_STRIDE])
            written[2::_GROUP_STRIDE] = True

    def _op_wr_sbk(self, prog, inst):
        ch, n, bank, row, co, rs = inst.operands
        st = prog.state
        vals = self._sb_run(st, rs, n, "WR_SBK")
        st.bank_row(ch, bank, row, True, False)[
            co * LANE:(co + n) * LANE] = vals.reshape(-1)

    def _op_rd_sbk(self, prog, inst):
        ch, n, bank, row, co, rd = inst.operands
        st = prog.state
        arr = st.bank_row(ch, bank, row, False, self.strict)
        self._sb_write(st, rd,
                       arr[co * LANE:(co + n) * LANE].reshape(n, LANE))

    def _op_wr_abk(self, prog, inst):
        ch, row, co, rs, reg = inst.operands
        st = prog.state
        if self.strict and not st.sb_written[rs]:
            raise PoisonError(f"WR_ABK from unwritten slot {rs}")
        data, written = st.slab(ch, row)
        data[:, co * LANE + reg] = st.sb[rs]        # lane b -> bank b
        written[:] = True

    def _op_copy_bkgb(self, prog, inst):
        mask, n, row, co = inst.operands
        st = prog.state
        for ch in mask_channels(mask):
            arr = st.bank_row(ch, inst.copy_bank, row, False, self.strict)
            gb, written = st.gb_arrays(ch)
            gb[co:co + n] = arr[co * LANE:(co + n) * LANE].reshape(n, LANE)
            written[co:co + n] = True

    def _op_copy_gbbk(self, prog, inst):
        mask, n, row, co = inst.operands
        st = prog.state
        for ch in mask_channels(mask):
            vec = self._gb_operand(st, ch, co, n)
            arr = st.bank_row(ch, inst.copy_bank, row, True, False)
            arr[co * LANE:(co + n) * LANE] = bf16_round(vec).reshape(-1)

    # -- near-memory units --------------------------------------------------

    def _op_exp(self, prog, inst):
        n, rd, rs = inst.operands
        st = prog.state
        x = self._sb_read(st, rs, n)
        y = np.clip(x - np.float32(st.stab), -16.0, 0.0)
        self._sb_write(st, rd, bf16_round(taylor_exp(y)))

    def _op_red(self, prog, inst):
        n, rd, rs = inst.operands
        st = prog.state
        x = self._sb_read(st, rs, n).reshape(-1)
        if inst.red_mode == "MAX":
            r = np.float32(x.max())
        else:
            size = 1 << (len(x) - 1).bit_length()
            pad = np.zeros(size, dtype=np.float32)
            pad[:len(x)] = x
            r = _tree_sum(pad)
        self._sb_write(st, rd, bf16_round(np.full(LANE, r)))

    def _op_acc(self, prog, inst):
        n, rd, rs = inst.operands
        st = prog.state
        a = self._sb_read(st, rd, n)
        b = self._sb_read(st, rs, n)
        self._sb_write(st, rd, bf16_round(a + b))

    def _op_riscv(self, prog, inst):
        n, pc, rd, rs = inst.operands
        kind, params = prog.routines.get(pc, ("generic", ()))
        getattr(self, "_rv_" + kind)(prog.state, n, rd, rs, params)

    # -- CXL ----------------------------------------------------------------

    def _op_send_cxl(self, prog, inst):
        dest, rs, rd = inst.operands
        st = prog.state
        payload = st.sb[rs].copy()
        if self.strict and not st.sb_written[rs]:
            raise PoisonError(f"SEND of unwritten slot {rs}")
        if dest not in self.programs:
            raise SimError(f"SEND to device {dest} with no trace")
        self.programs[dest].fifo.append((rd, payload))

    def _op_bcast_cxl(self, prog, inst):
        count, rs, rd = inst.operands
        payload = prog.state.sb[rs].copy()
        group = self.groups.get(prog.device, self.default_group)
        dests = [d for d in group if d != prog.device][:count]
        if len(dests) != count:
            raise SimError(f"broadcast fanout {count} exceeds "
                           f"group of device {prog.device}")
        for d in dests:
            self.programs[d].fifo.append((rd, payload))

    def _op_recv_cxl(self, prog, inst):
        slot, payload = prog.fifo.popleft()
        prog.state.sb[slot] = payload
        prog.state.sb_written[slot] = True

    # -- scalar-core routines: (state, OPsize, Rd, Rs, params) ---------------

    def _rv_rms_finalize(self, st, n, rd, rs, params):
        d, eps, dup = params
        sq = self._sb_read(st, rs, 1)[0, 0]
        r = 1.0 / math.sqrt(sq / dup / d + eps)
        self._sb_write(st, rd, bf16_round(np.full(LANE, r)))

    def _rv_scale(self, st, n, rd, rs, params):
        f = self._sb_read(st, params[0], 1)[0, 0]
        x = self._sb_read(st, rs, n)
        self._sb_write(st, rd, bf16_round(x * f))

    def _rv_scale_const(self, st, n, rd, rs, params):
        x = self._sb_read(st, rs, n)
        self._sb_write(st, rd, bf16_round(x * np.float32(params[0])))

    def _rv_rope_pack(self, st, n, rd, rs, params):
        x = self._sb_read(st, rs, n).reshape(-1)
        out = np.empty_like(x)
        out[0::2] = -x[1::2]
        out[1::2] = x[0::2]
        self._sb_write(st, rd, bf16_round(out.reshape(-1, LANE)))

    def _rv_rope_combine(self, st, n, rd, rs, params):
        dh = params[0]
        a = self._sb_read(st, rs, dh)
        b = self._sb_read(st, rs + dh, dh)
        self._sb_write(st, rd, bf16_round(a + b))

    def _rv_fill(self, st, n, rd, rs, params):
        self._sb_write(st, rd,
                       bf16_round(np.full(LANE, np.float32(params[0]))))

    def _rv_maxacc(self, st, n, rd, rs, params):
        a = self._sb_read(st, rd, 1)[0, 0]
        b = self._sb_read(st, rs, 1)[0, 0]
        self._sb_write(st, rd, bf16_round(np.full(LANE, max(a, b))))

    def _rv_set_stab(self, st, n, rd, rs, params):
        st.stab = float(self._sb_read(st, rs, 1)[0, 0])

    def _rv_mask_tail(self, st, n, rd, rs, params):
        keep = params[0]
        x = self._sb_read(st, rd, 1)[0].copy()
        x[keep:] = -3.0e38
        self._sb_write(st, rd, bf16_round(x))

    def _rv_recip(self, st, n, rd, rs, params):
        v = self._sb_read(st, rs, 1)[0, 0]
        self._sb_write(st, rd, bf16_round(np.full(LANE, 1.0 / v)))


# opcode -> its _Executor handler
_HANDLERS = {op: getattr(_Executor, "_op_" + op.lower())
             for op in OPCODE_FIELDS}


def run_trace(traces, image: MemoryImage,
              groups: Optional[dict] = None) -> MemoryImage:
    """Execute traces to completion over the image (mutated in place).

    `traces` is a list of DeviceTrace or a {device: [Instruction]}
    mapping. Devices run round-robin until blocked on an empty receive
    queue; a full round without progress is a deadlock.
    """
    programs = {}
    if isinstance(traces, dict):
        for dev, insts in traces.items():
            programs[dev] = _DevProgram(dev, list(insts),
                                        getattr(insts, "routines", {}))
    else:
        for t in traces:
            programs[t.device] = _DevProgram(t.device, t.instructions,
                                             t.routines)
    ex = _Executor(image, programs, groups)
    order = sorted(programs)
    done = 0
    while done < len(order):
        progressed = False
        done = 0
        for dev in order:
            p = programs[dev]
            while p.pc < len(p.instructions):
                inst = p.instructions[p.pc]
                if inst.opcode == "RECV_CXL" and not p.fifo:
                    break
                _HANDLERS[inst.opcode](ex, p, inst)
                p.pc += 1
                progressed = True
            if p.pc == len(p.instructions):
                done += 1
        if done < len(order) and not progressed:
            blocked = [d for d in order
                       if programs[d].pc < len(programs[d].instructions)]
            raise DeadlockError(f"devices {blocked} blocked on RECV with "
                                f"no matching SEND")
    return image


# ---------------------------------------------------------------------------
# reference oracle

def gemv_reference(matrix, vector) -> np.ndarray:
    """BF16 GEMV with the hardware's reduction order: 16-wide pairwise
    product trees per column chunk, FP32 sequential accumulation across
    chunks, one BF16 rounding on drain. Bit-exact against run_trace."""
    w = bf16(np.asarray(matrix, dtype=np.float32))
    x = bf16(np.asarray(vector, dtype=np.float32)).reshape(-1)
    rows, cols = w.shape
    pad = (-cols) % LANE
    if pad:
        w = np.pad(w, ((0, 0), (0, pad)))
        x = np.pad(x, (0, pad))
    chunks = (cols + pad) // LANE
    wt = w.reshape(rows, chunks, LANE)
    xt = x.reshape(chunks, LANE)
    partial = _tree_sum(wt * xt)            # (rows, chunks)
    out = np.zeros(rows, dtype=np.float32)
    for c in range(chunks):
        out = (out + partial[:, c]).astype(np.float32)
    return bf16(out)


def _gemv_acc(matrix, vector) -> np.ndarray:
    """FP32 accumulator contents of the hardware GEMV before drain."""
    w = np.asarray(matrix, dtype=np.float32)
    x = np.asarray(vector, dtype=np.float32).reshape(-1)
    rows, cols = w.shape
    pad = (-cols) % LANE
    if pad:
        w = np.pad(w, ((0, 0), (0, pad)))
        x = np.pad(x, (0, pad))
    chunks = (cols + pad) // LANE
    partial = _tree_sum(w.reshape(rows, chunks, LANE) *
                        x.reshape(chunks, LANE))
    run = np.concatenate(
        [np.zeros((rows, 1), np.float32), partial], axis=1)
    return np.cumsum(run, axis=1, dtype=np.float32)[:, -1]


def _hw_red_sum(values) -> np.float32:
    x = np.asarray(values, dtype=np.float32).reshape(-1)
    n = 1 << max(0, (len(x) - 1).bit_length())
    pad = np.zeros(n, dtype=np.float32)
    pad[:len(x)] = x
    return _tree_sum(pad)


def _hw_rmsnorm(x, w, d: int, eps: float = 1e-5) -> np.ndarray:
    """Mirror of the compiled RMSNorm: per-neighbor-pair FP32 partial
    sums of squares (each element counted twice), BF16 drain, PNM tree
    reduction, scalar-core rsqrt, then two BF16 multiplies."""
    S = slots_of(d)
    pairs = BANKS // 2
    ps = -(-S // pairs)
    partials = []
    for p in range(pairs):
        seg = x[p * ps * LANE:min((p + 1) * ps, S) * LANE]
        acc = _gemv_acc(seg.reshape(1, -1), seg)[0]
        partials.extend([acc, acc])
    sq = bf16(np.array(partials, dtype=np.float32))
    total = bf16(_hw_red_sum(sq))
    r = bf16(1.0 / math.sqrt(float(total) / 2 / d + eps))
    xr = bf16(x * r)
    return bf16(xr * np.asarray(w, dtype=np.float32))


def _hw_rope(x, position: int) -> np.ndarray:
    d = len(x)
    theta = rope_angles(d, position)
    cos_t = bf16(np.repeat(np.cos(theta), 2))
    sin_t = bf16(np.repeat(np.sin(theta), 2))
    xp = np.empty_like(x)
    xp[0::2] = -x[1::2]
    xp[1::2] = x[0::2]
    xp = bf16(xp)
    return bf16(bf16(x * cos_t) + bf16(xp * sin_t))


def _hw_softmax_probs(scores, n_valid: int) -> np.ndarray:
    """Stabilized Taylor-exp probabilities in the hardware's order;
    returns unnormalized probabilities and applies 1/denominator."""
    s = np.asarray(scores, dtype=np.float32).copy()
    s[n_valid:] = bf16(-3.0e38)
    stab = float(s.max())
    e = bf16(taylor_exp(np.clip(s - np.float32(stab), -16.0, 0.0)))
    den = np.float32(0.0)
    for t in range(0, slots_of(len(s)), ROW_SLOTS):
        tile = e[t * LANE:(t + ROW_SLOTS) * LANE]
        den = bf16(den + bf16(_hw_red_sum(tile)))
    return e, bf16(1.0 / den)


def _hw_block(model: ModelSpec, wd: dict, h, k_cache, v_cache,
              position: int, down_perm) -> tuple:
    dh = model.d_head
    hpk = model.n_heads // model.n_kv_heads
    h = bf16(h)

    x = _hw_rmsnorm(h, wd["w_rms1"], model.d_model)
    q = bf16(_gemv_acc(wd["q"], x))
    k = bf16(_gemv_acc(wd["k"], x))
    v = bf16(_gemv_acc(wd["v"], x))
    for head in range(model.n_heads):
        q[head * dh:(head + 1) * dh] = _hw_rope(
            q[head * dh:(head + 1) * dh], position)
    for g in range(model.n_kv_heads):
        k[g * dh:(g + 1) * dh] = _hw_rope(k[g * dh:(g + 1) * dh],
                                          position)
    new_k = k.reshape(model.n_kv_heads, dh)
    new_v = v.reshape(model.n_kv_heads, dh)

    n_pos = position + 1
    padded = -(-n_pos // LANE) * LANE
    attn = np.zeros(model.d_model, dtype=np.float32)
    for g in range(model.n_kv_heads):
        keys = np.zeros((padded, dh), dtype=np.float32)
        keys[:position] = bf16(np.asarray(k_cache[g],
                                          np.float32)).reshape(-1, dh)
        keys[position] = new_k[g]
        vals = np.zeros((padded, dh), dtype=np.float32)
        vals[:position] = bf16(np.asarray(v_cache[g],
                                          np.float32)).reshape(-1, dh)
        vals[position] = new_v[g]
        for hq in range(hpk):
            head = g * hpk + hq
            qs = bf16(q[head * dh:(head + 1) * dh]
                      * np.float32(1.0 / math.sqrt(dh)))
            scores = bf16(_gemv_acc(keys, qs))
            e, inv = _hw_softmax_probs(scores, n_pos)
            out = bf16(_gemv_acc(vals.T.copy(), e))
            attn[head * dh:(head + 1) * dh] = bf16(out * inv)
    h = bf16(h + bf16(_gemv_acc(wd["o"], attn)))

    x = _hw_rmsnorm(h, wd["w_rms2"], model.d_model)
    gate = bf16(apply_af(0, _gemv_acc(wd["gate"], x)))
    up = bf16(_gemv_acc(wd["up"], x))
    gated = bf16(gate * up)
    if down_perm is None:
        down_out = bf16(_gemv_acc(wd["down"], gated))
    else:
        perm = list(down_perm)
        down_out = bf16(_gemv_acc(wd["down"][:, perm], gated[perm]))
    return bf16(h + down_out), new_k, new_v


def reference_rmsnorm(x, w, eps: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt(np.mean(x * x) + eps) * np.asarray(w, np.float64)


def reference_rope(x, position: int) -> np.ndarray:
    """Rotate interleaved pairs of a head vector."""
    x = np.asarray(x, dtype=np.float64)
    theta = rope_angles(len(x), position)
    a, b = x[0::2], x[1::2]
    out = np.empty_like(x)
    out[0::2] = a * np.cos(theta) - b * np.sin(theta)
    out[1::2] = a * np.sin(theta) + b * np.cos(theta)
    return out


def reference_block(model: ModelSpec, weights: dict, hidden, k_cache,
                    v_cache, position: int, exp_fn=np.exp,
                    match_hardware: bool = False,
                    down_perm=None) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """One transformer block at one decode step.

    k_cache/v_cache hold rotated keys and values for positions < pos,
    shaped (n_kv_heads, position, d_head). Returns (new hidden, new k
    row per head, new v row per head). With match_hardware the
    evaluation mirrors the device dataflow: BF16 rounding at every
    architectural store, 16-wide product trees with sequential FP32
    chunk accumulation, Taylor exponentials and the activation lookup
    tables; down_perm is the physical column order of the down
    projection input (TensorPlacement.col_perm)."""
    h = np.asarray(hidden, dtype=np.float64)
    if h.shape != (model.d_model,):
        raise SimError(f"hidden shape {h.shape} != ({model.d_model},)")
    if match_hardware:
        wb = {k: bf16(np.asarray(v, np.float32))
              for k, v in weights.items()}
        return _hw_block(model, wb, h, k_cache, v_cache, position,
                         down_perm)
    wd = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    dh = model.d_head
    hpk = model.n_heads // model.n_kv_heads

    x = reference_rmsnorm(h, wd["w_rms1"])
    q, k, v = wd["q"] @ x, wd["k"] @ x, wd["v"] @ x
    for head in range(model.n_heads):
        q[head * dh:(head + 1) * dh] = reference_rope(
            q[head * dh:(head + 1) * dh], position)
    for g in range(model.n_kv_heads):
        k[g * dh:(g + 1) * dh] = reference_rope(
            k[g * dh:(g + 1) * dh], position)

    attn = np.zeros(model.d_model)
    new_k = k.reshape(model.n_kv_heads, dh)
    new_v = v.reshape(model.n_kv_heads, dh)
    for g in range(model.n_kv_heads):
        keys = np.vstack([np.asarray(k_cache[g], dtype=np.float64)
                          .reshape(-1, dh), new_k[g][None]])
        vals = np.vstack([np.asarray(v_cache[g], dtype=np.float64)
                          .reshape(-1, dh), new_v[g][None]])
        for hq in range(hpk):
            head = g * hpk + hq
            qh = q[head * dh:(head + 1) * dh] / math.sqrt(dh)
            scores = keys @ qh
            e = exp_fn(scores - scores.max())
            attn[head * dh:(head + 1) * dh] = (e / e.sum()) @ vals
    h = h + wd["o"] @ attn

    x = reference_rmsnorm(h, wd["w_rms2"])
    gate = wd["gate"] @ x
    gated = gate / (1.0 + np.exp(-gate)) * (wd["up"] @ x)
    return h + wd["down"] @ gated, new_k, new_v


# ---------------------------------------------------------------------------
# comparison

@dataclass
class DiffReport:
    max_abs: float
    max_rel: float
    mean_abs: float
    n: int
    passed: bool

    def __str__(self):
        return (f"n={self.n} max_abs={self.max_abs:.3e} "
                f"max_rel={self.max_rel:.3e} mean_abs={self.mean_abs:.3e} "
                f"{'PASS' if self.passed else 'FAIL'}")


def compare(actual, expected, rel_tol: float = 0.02,
            abs_floor: float = 1e-6) -> DiffReport:
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    b = np.asarray(expected, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise SimError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.abs(a - b)
    denom = np.maximum(np.abs(b), abs_floor)
    rel = diff / denom
    return DiffReport(float(diff.max(initial=0.0)),
                      float(rel.max(initial=0.0)),
                      float(diff.mean()) if len(a) else 0.0,
                      len(a), bool((rel <= rel_tol).all()))

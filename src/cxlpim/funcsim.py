"""Architectural-state execution of device traces.

Every 16-bit lane holds a BF16 bit pattern; near-bank MAC units
accumulate in FP32 and round on drain. Inter-device SEND/RECV pairs
rendezvous through per-destination FIFOs under a deterministic
run-until-blocked round-robin schedule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import (BANK_GROUPS, BANKS, LANE, REGS, ROW_SLOTS, ArchConfig,
                     ModelSpec)
from .isa import Instruction, mask_channels
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
    rounded = bits + 0x7FFF + ((bits >> 16) & 1)
    out = (rounded >> 16).astype(np.uint16)
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
    v = products.astype(np.float32, copy=True)
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

class DeviceState:
    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg
        self.banks: dict = {}        # (ch, bank) -> {row: uint16[1024]}
        self.gb: dict = {}           # ch -> uint16[64, 16]
        self.gb_written: dict = {}   # ch -> bool[64]
        self.sb = np.zeros((cfg.sb_slots, LANE), dtype=np.uint16)
        self.sb_written = np.zeros(cfg.sb_slots, dtype=bool)
        self.acc: dict = {}          # ch -> float32[16, 32]
        self.armed: dict = {}        # ch -> armed bias slot or None
        self.stab = 0.0

    def bank_row(self, ch: int, bank: int, row: int, write: bool,
                 strict: bool) -> np.ndarray:
        rows = self.banks.setdefault((ch, bank), {})
        arr = rows.get(row)
        if arr is None:
            if strict and not write:
                raise PoisonError(
                    f"read of unwritten row {row} (ch {ch} bank {bank})")
            arr = rows[row] = np.zeros(ROW_ELEMS, dtype=np.uint16)
        return arr

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
        st = self.device(dev)
        for bank in range(BANKS):
            for row in rows:
                st.bank_row(ch, bank, row, True, False)


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
        w = w[:, list(pl.col_perm)]
    st = image.device(pl.device)
    for j in range(pl.n_groups):
        ch, _ = pl.group_channel(j)
        for t, s in enumerate(pl.tiles):
            row, co, _ = pl.loc(j, t)
            for r in range(min(LANE, pl.rows - j * LANE)):
                seg = w[j * LANE + r, t * ROW_ELEMS:t * ROW_ELEMS + s * LANE]
                arr = st.bank_row(ch, r, row, True, False)
                arr[co * LANE:co * LANE + len(seg)] = bf16_round(seg)


def load_ew_weights(image: MemoryImage, wp: EwWeightPlacement,
                    vector) -> None:
    v = np.asarray(vector, dtype=np.float32).reshape(-1)
    st = image.device(wp.device)
    for s in range(wp.n_slots):
        bank, row, col = wp.loc(s)
        arr = st.bank_row(wp.channel, bank, row, True, False)
        seg = v[s * LANE:(s + 1) * LANE]
        arr[col * LANE:col * LANE + len(seg)] = bf16_round(seg)


def rope_angles(d_head: int, position: int) -> np.ndarray:
    """Per-pair rotation angle, theta_j = p * 10000^(-2j/d_head)."""
    j = np.arange(d_head // 2, dtype=np.float64)
    return position * np.power(10000.0, -2.0 * j / d_head)


def load_rope_tables(image: MemoryImage, layout: Layout, block: int) -> None:
    """cos table in the weight bank of bank group 0, sin table in that
    of group 1, one column run per position; each pair angle occupies
    both interleaved lanes."""
    bl = layout.blocks[block]
    m = layout.model
    dh = slots_of(m.d_head)
    per_row = ROW_SLOTS // dh
    st = image.device(bl.master)
    for pos in range(m.max_context):
        theta = rope_angles(m.d_head, pos)
        cos = np.repeat(np.cos(theta), 2).astype(np.float32)
        sin = np.repeat(np.sin(theta), 2).astype(np.float32)
        row = bl.rope_base_row + pos // per_row
        off = (pos % per_row) * dh * LANE
        for g, tab in enumerate((cos, sin)):
            arr = st.bank_row(bl.norm_channel, BANK_GROUPS * g, row, True,
                              False)
            arr[off:off + len(tab)] = bf16_round(tab)


def load_kv_history(image: MemoryImage, layout: Layout, block: int,
                    k_cache, v_cache) -> None:
    """Install rotated K/V cache contents for positions [0, n)."""
    bl = layout.blocks[block]
    k = np.asarray(k_cache, dtype=np.float32)
    v = np.asarray(v_cache, dtype=np.float32)
    st = image.device(bl.master)
    for kv in bl.kv:
        for pos in range(k.shape[1]):
            row, co = kv.k_loc(pos // LANE)
            arr = st.bank_row(kv.channel, pos % LANE, row, True, False)
            arr[co * LANE:co * LANE + kv.d_head] = bf16_round(
                k[kv.kv_head, pos])
            for g in range(kv.dh_slots):
                vrow, vco, lane = kv.v_loc(g, pos)
                for bank in range(min(LANE, kv.d_head - g * LANE)):
                    varr = st.bank_row(kv.channel, bank, vrow, True, False)
                    varr[vco * LANE + lane] = bf16_round(
                        v[kv.kv_head, pos, g * LANE + bank])[()]


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


class _Executor:
    def __init__(self, image: MemoryImage, programs: dict,
                 groups: Optional[dict]):
        self.image = image
        self.programs = programs
        self.groups = groups or {}
        self.default_group = tuple(sorted(programs))

    # -- state helpers ------------------------------------------------------

    def _sb_read(self, st: DeviceState, base: int, n: int) -> np.ndarray:
        if self.image.strict and not st.sb_written[base:base + n].all():
            raise PoisonError(f"read of unwritten Shared Buffer slots "
                              f"[{base}, {base + n})")
        return bf16_to_f32(st.sb[base:base + n])

    def _sb_write(self, st: DeviceState, base: int,
                  bits: np.ndarray) -> None:
        n = bits.shape[0] if bits.ndim == 2 else 1
        st.sb[base:base + n] = bits
        st.sb_written[base:base + n] = True

    def _row_f32(self, st: DeviceState, ch: int, bank: int, row: int,
                 write: bool = False) -> np.ndarray:
        return st.bank_row(ch, bank, row, write, self.image.strict)

    # -- opcode semantics ---------------------------------------------------

    def execute(self, prog: _DevProgram, inst: Instruction) -> None:
        getattr(self, "_op_" + inst.opcode.lower())(prog, inst)

    def _op_wr_gb(self, prog, inst):
        st = self.image.device(prog.device)
        vals = st.sb[inst.Rs:inst.Rs + inst.OPsize]
        if self.image.strict and \
                not st.sb_written[inst.Rs:inst.Rs + inst.OPsize].all():
            raise PoisonError(f"WR_GB from unwritten slots at {inst.Rs}")
        for ch in mask_channels(inst.CHmask):
            gb, written = st.gb_arrays(ch)
            gb[inst.CO:inst.CO + inst.OPsize] = vals
            written[inst.CO:inst.CO + inst.OPsize] = True

    def _op_wr_bias(self, prog, inst):
        st = self.image.device(prog.device)
        for ch in mask_channels(inst.CHmask):
            st.armed[ch] = inst.Rs

    def _gb_operand(self, st, ch, co, n):
        gb, written = st.gb_arrays(ch)
        if self.image.strict and not written[co:co + n].all():
            raise PoisonError(f"MAC reads unwritten Global Buffer slots "
                              f"[{co}, {co + n}) on channel {ch}")
        return bf16_to_f32(gb[co:co + n])

    def _op_mac_abk(self, prog, inst):
        st = self.image.device(prog.device)
        n, co, row = inst.OPsize, inst.CO, inst.RO
        for ch in mask_channels(inst.CHmask):
            acc = st.acc_array(ch)
            if st.armed.get(ch) is not None:
                bias = self._sb_read(st, st.armed[ch], 1)[0]
                acc[:, inst.Regid] = bias
                st.armed[ch] = None
            rows = [bf16_to_f32(
                self._row_f32(st, ch, b, row)[co * LANE:(co + n) * LANE]
                ).reshape(n, LANE) for b in range(BANKS)]
            if inst.source_select == "GB":
                vec = self._gb_operand(st, ch, co, n)
                partial = np.stack([_tree_sum(rows[b] * vec)
                                    for b in range(BANKS)])
            else:
                partial = np.stack([_tree_sum(rows[b] * rows[b ^ 1])
                                    for b in range(BANKS)])
            # column micro-ops accumulate sequentially in FP32; cumsum
            # reproduces the running left-to-right sum exactly
            run = np.concatenate(
                [acc[:, inst.Regid:inst.Regid + 1], partial], axis=1)
            acc[:, inst.Regid] = np.cumsum(run, axis=1,
                                           dtype=np.float32)[:, -1]

    def _op_rd_mac(self, prog, inst):
        st = self.image.device(prog.device)
        for ch in mask_channels(inst.CHmask):
            acc = st.acc_array(ch)
            self._sb_write(st, inst.Rd, bf16_round(acc[:, inst.Regid]))

    def _op_af(self, prog, inst):
        st = self.image.device(prog.device)
        for ch in mask_channels(inst.CHmask):
            acc = st.acc_array(ch)
            acc[:, inst.Regid] = apply_af(inst.AFid, acc[:, inst.Regid])

    def _op_ew_mul(self, prog, inst):
        st = self.image.device(prog.device)
        lo, hi = inst.CO * LANE, (inst.CO + inst.OPsize) * LANE
        for ch in mask_channels(inst.CHmask):
            for g in range(BANK_GROUPS):
                bank = BANK_GROUPS * g
                a = bf16_to_f32(self._row_f32(st, ch, bank, inst.RO)[lo:hi])
                b = bf16_to_f32(
                    self._row_f32(st, ch, bank + 1, inst.RO)[lo:hi])
                out = self._row_f32(st, ch, bank + 2, inst.RO, write=True)
                out[lo:hi] = bf16_round(a * b)

    def _op_wr_sbk(self, prog, inst):
        st = self.image.device(prog.device)
        vals = st.sb[inst.Rs:inst.Rs + inst.OPsize]
        if self.image.strict and \
                not st.sb_written[inst.Rs:inst.Rs + inst.OPsize].all():
            raise PoisonError(f"WR_SBK from unwritten slots at {inst.Rs}")
        arr = self._row_f32(st, inst.CHid, inst.BK, inst.RO, write=True)
        lo = inst.CO * LANE
        arr[lo:lo + inst.OPsize * LANE] = vals.reshape(-1)

    def _op_rd_sbk(self, prog, inst):
        st = self.image.device(prog.device)
        arr = self._row_f32(st, inst.CHid, inst.BK, inst.RO)
        lo = inst.CO * LANE
        vals = arr[lo:lo + inst.OPsize * LANE].reshape(inst.OPsize, LANE)
        self._sb_write(st, inst.Rd, vals.copy())

    def _op_wr_abk(self, prog, inst):
        st = self.image.device(prog.device)
        if self.image.strict and not st.sb_written[inst.Rs]:
            raise PoisonError(f"WR_ABK from unwritten slot {inst.Rs}")
        vals = st.sb[inst.Rs]                       # lane b -> bank b
        pos = inst.CO * LANE + inst.Regid
        for bank in range(BANKS):
            arr = self._row_f32(st, inst.CHid, bank, inst.RO, write=True)
            arr[pos] = vals[bank]

    def _op_copy_bkgb(self, prog, inst):
        st = self.image.device(prog.device)
        lo = inst.CO * LANE
        for ch in mask_channels(inst.CHmask):
            arr = self._row_f32(st, ch, inst.copy_bank, inst.RO)
            gb, written = st.gb_arrays(ch)
            gb[inst.CO:inst.CO + inst.OPsize] = \
                arr[lo:lo + inst.OPsize * LANE].reshape(inst.OPsize, LANE)
            written[inst.CO:inst.CO + inst.OPsize] = True

    def _op_copy_gbbk(self, prog, inst):
        st = self.image.device(prog.device)
        lo = inst.CO * LANE
        for ch in mask_channels(inst.CHmask):
            vec = self._gb_operand(st, ch, inst.CO, inst.OPsize)
            arr = self._row_f32(st, ch, inst.copy_bank, inst.RO, write=True)
            arr[lo:lo + inst.OPsize * LANE] = bf16_round(vec).reshape(-1)

    # -- near-memory units --------------------------------------------------

    def _op_exp(self, prog, inst):
        st = self.image.device(prog.device)
        x = self._sb_read(st, inst.Rs, inst.OPsize)
        y = np.clip(x - np.float32(st.stab), -16.0, 0.0)
        self._sb_write(st, inst.Rd, bf16_round(taylor_exp(y)))

    def _op_red(self, prog, inst):
        st = self.image.device(prog.device)
        x = self._sb_read(st, inst.Rs, inst.OPsize).reshape(-1)
        if inst.red_mode == "MAX":
            r = np.float32(x.max())
        else:
            n = 1 << (len(x) - 1).bit_length()
            pad = np.zeros(n, dtype=np.float32)
            pad[:len(x)] = x
            r = _tree_sum(pad)
        self._sb_write(st, inst.Rd, bf16_round(np.full(LANE, r)))

    def _op_acc(self, prog, inst):
        st = self.image.device(prog.device)
        a = self._sb_read(st, inst.Rd, inst.OPsize)
        b = self._sb_read(st, inst.Rs, inst.OPsize)
        self._sb_write(st, inst.Rd, bf16_round(a + b))

    def _op_riscv(self, prog, inst):
        kind, params = prog.routines.get(inst.PC, ("generic", ()))
        getattr(self, "_rv_" + kind)(prog, inst, params)

    # -- CXL ----------------------------------------------------------------

    def _op_send_cxl(self, prog, inst):
        st = self.image.device(prog.device)
        payload = st.sb[inst.Rs].copy()
        if self.image.strict and not st.sb_written[inst.Rs]:
            raise PoisonError(f"SEND of unwritten slot {inst.Rs}")
        if inst.DVid not in self.programs:
            raise SimError(f"SEND to device {inst.DVid} with no trace")
        self.programs[inst.DVid].fifo.append((inst.Rd, payload))

    def _op_bcast_cxl(self, prog, inst):
        st = self.image.device(prog.device)
        payload = st.sb[inst.Rs].copy()
        group = self.groups.get(prog.device, self.default_group)
        dests = [d for d in group if d != prog.device][:inst.DVcount]
        if len(dests) != inst.DVcount:
            raise SimError(f"broadcast fanout {inst.DVcount} exceeds "
                           f"group of device {prog.device}")
        for d in dests:
            self.programs[d].fifo.append((inst.Rd, payload))

    def _op_recv_cxl(self, prog, inst):
        slot, payload = prog.fifo.popleft()
        st = self.image.device(prog.device)
        st.sb[slot] = payload
        st.sb_written[slot] = True

    # -- scalar-core routines ----------------------------------------------

    def _rv_rms_finalize(self, prog, inst, params):
        d, eps, dup = params
        st = self.image.device(prog.device)
        sq = self._sb_read(st, inst.Rs, 1)[0, 0]
        r = 1.0 / math.sqrt(sq / dup / d + eps)
        self._sb_write(st, inst.Rd, bf16_round(np.full(LANE, r)))

    def _rv_scale(self, prog, inst, params):
        st = self.image.device(prog.device)
        f = self._sb_read(st, params[0], 1)[0, 0]
        x = self._sb_read(st, inst.Rs, inst.OPsize)
        self._sb_write(st, inst.Rd, bf16_round(x * f))

    def _rv_scale_const(self, prog, inst, params):
        st = self.image.device(prog.device)
        x = self._sb_read(st, inst.Rs, inst.OPsize)
        self._sb_write(st, inst.Rd, bf16_round(x * np.float32(params[0])))

    def _rv_rope_pack(self, prog, inst, params):
        st = self.image.device(prog.device)
        x = self._sb_read(st, inst.Rs, inst.OPsize).reshape(-1)
        out = np.empty_like(x)
        out[0::2] = -x[1::2]
        out[1::2] = x[0::2]
        self._sb_write(st, inst.Rd, bf16_round(out.reshape(-1, LANE)))

    def _rv_rope_combine(self, prog, inst, params):
        dh = params[0]
        st = self.image.device(prog.device)
        a = self._sb_read(st, inst.Rs, dh)
        b = self._sb_read(st, inst.Rs + dh, dh)
        self._sb_write(st, inst.Rd, bf16_round(a + b))

    def _rv_fill(self, prog, inst, params):
        st = self.image.device(prog.device)
        self._sb_write(st, inst.Rd,
                       bf16_round(np.full(LANE, np.float32(params[0]))))

    def _rv_maxacc(self, prog, inst, params):
        st = self.image.device(prog.device)
        a = self._sb_read(st, inst.Rd, 1)[0, 0]
        b = self._sb_read(st, inst.Rs, 1)[0, 0]
        self._sb_write(st, inst.Rd, bf16_round(np.full(LANE, max(a, b))))

    def _rv_set_stab(self, prog, inst, params):
        st = self.image.device(prog.device)
        st.stab = float(self._sb_read(st, inst.Rs, 1)[0, 0])

    def _rv_mask_tail(self, prog, inst, params):
        keep = params[0]
        st = self.image.device(prog.device)
        x = self._sb_read(st, inst.Rd, 1)[0].copy()
        x[keep:] = -3.0e38
        self._sb_write(st, inst.Rd, bf16_round(x))

    def _rv_recip(self, prog, inst, params):
        st = self.image.device(prog.device)
        v = self._sb_read(st, inst.Rs, 1)[0, 0]
        self._sb_write(st, inst.Rd, bf16_round(np.full(LANE, 1.0 / v)))


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
                ex.execute(p, inst)
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

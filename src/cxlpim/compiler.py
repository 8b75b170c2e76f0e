"""Lowers transformer blocks and whole token iterations to device traces.

Dataflow per block (all within one device group):
  RMSNorm -> fused QKV GEMV -> RoPE -> per-head attention (score GEMV,
  stabilized softmax, score x V GEMV) -> output projection -> residual ->
  RMSNorm -> fused gate/up GEMV + SiLU + elementwise gate -> down
  projection -> residual.

Matrices are row-partitioned: matrix row r lives in bank r%16, row-group
j = r//16; row groups round-robin over the assigned channels and map to
accumulation registers in batches of 32. Inputs are re-streamed through
the Global Buffer (or via COPY_BKGB from a DRAM scratch region) for each
register batch, so partial sums never spill. These numbers are the
device's fixed geometry, imported from config (LANE, ROW_SLOTS, REGS,
BANK_GROUPS); only capacities, counts and clocks come from ArchConfig.

The lowering emits straight into a sink: `i` takes an opcode and its
operands, and `riscv` a RISC-V routine, which gets the next PC of the
sink's routine table. Both sinks keep instruction/micro-op counters and per-channel activity
statistics (for timing and energy), counted from the operand tuple by a
per-opcode plan that reads isa.MICROOP_RULES, the micro-op rule of
isa.microop_count. ListSink also builds each instruction with
isa.make_instruction and keeps it for the functional simulator;
CountSink builds nothing and runs the opcode's compiled operand
predicate itself, falling back to isa.check_operands (the same
predicate, plus the messages) for flags or a rejected instruction.
Either way every emitted instruction is checked exactly once, against
every ISA rule: operand ranges and the row, Global Buffer and Shared
Buffer extents of its runs.

A block lowers as three segments: before_core (RMSNorm, QKV), the
attention core (RoPE, KV append, per-head attention) and after_core
(O projection and residual, RMSNorm, FFN). Only the core reads the
token position. The module has two entry points, and both run these
segments. compile_token lowers every block whole into ListSinks for the
functional simulator. block_summaries, the counting path that timing
and energy read, caches the two position-invariant segments as
unfinished CountSinks and composes them with the core lowered at each
position; that is exact because CountSink keeps each channel's first
and last DRAM-row bracket open until finish(). The cache is keyed by
the block's geometry with devices named by role, so layouts built with
one cache (the rows of a sweep) lower each block geometry once.

Inside the core, query heads that share a KV head (grouped-query
attention) differ only in the Shared Buffer slots they read q from and
write their output to. Everything between (the score pass, softmax and
the score x V pass) reads only the KV head's placement, the position
and the channel's scratch row, so it is the same for each of the KV
head's query heads. Across a tensor-parallel group, the devices other
than the master mostly run the same per-device pieces: their GEMV
shares, the fused gate/up pass, the RECV_CXL runs of broadcasts and
gathers, and the SEND_CXL run of the down-projection gather.

Both kinds of piece go through one memo per block and position,
BlockLowering._shared: it lowers each distinct piece once into a
segment sink, keyed by everything its lowering reads, and appends it
wherever a piece has that key, in list and count mode alike. A
llama2-70B TP block emits about 16k of the 260k instructions its 32
devices count. A piece that emits RISCV (an attention body) is appended
only to the device it was lowered for, because PCs index each device's
own routine table.

Inside a GEMV or the fused gate/up pass, the channels whose register
batch holds the same local row groups run the same WR_BIAS/MAC_ABK
sequence on each input tile but for the channel they name. Each such
class's run is lowered once into a segment and appended to the class's
other channels with the channel renamed (`append`'s `chan_map`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .config import (BANK_GROUPS, BANKS, LANE, REGS, ROW_SLOTS, WORD_B,
                     ArchConfig, ModelSpec)
from . import isa
from .isa import Instruction, make_instruction
from .mapper import MappingPlan, BlockAssignment

ROW_ELEMS = LANE * ROW_SLOTS   # 1024 elements per bank row
SB_ZERO_SLOTS = 32             # zero-constant Shared Buffer slots

SILU = 0                       # AF id of SiLU


class CompileError(ValueError):
    pass


def slots_of(elems: int) -> int:
    return -(-elems // LANE)


def input_tiles(cols: int) -> list[int]:
    """Slot count of each Global Buffer tile of a `cols`-wide vector."""
    full, rest = divmod(slots_of(cols), ROW_SLOTS)
    return [ROW_SLOTS] * full + ([rest] if rest else [])


# ---------------------------------------------------------------------------
# placements

@dataclass
class TensorPlacement:
    """Row-partitioned matrix layout: geometry only, so every device of
    a tensor-parallel group whose share lands on the same rows holds
    the same object. Device di of the group holds the di-th share:
    rows di*rows.. of a row-split matrix, columns di*cols.. of down.

    Matrix row r -> bank r%16, row-group j = r//16; group j lives on
    channel ordinal j % n_channels at local index j // n_channels.
    Tile t of a group is one run of columns in a DRAM row; single-tile
    matrices pack several groups per row (the Global Buffer then holds
    replicated copies of the vector so every run sees its input).
    """
    name: str
    channels: tuple[int, ...]
    rows: int
    cols: int
    base_row: int
    # physical column position -> logical column it holds, when the
    # columns are stored permuted (DownPlacement)
    col_perm = None

    def __post_init__(self):
        if self.rows % LANE and len(self.channels) > 1:
            raise CompileError(f"{self.name}: ragged row group would "
                               f"straddle channels")
        self.tiles = input_tiles(self.cols)
        self.n_groups = -(-self.rows // LANE)
        self.runs_per_row = (ROW_SLOTS // self.tiles[0]
                             if len(self.tiles) == 1 else 1)
        per_ch = -(-self.n_groups // len(self.channels))
        self.groups_per_channel = per_ch
        tile_rows = -(-per_ch // self.runs_per_row)
        self.tile_row_offsets = [t * tile_rows
                                 for t in range(len(self.tiles))]
        self.rows_needed = len(self.tiles) * tile_rows

    @property
    def geometry(self) -> tuple:
        """The fields a GEMV over this placement reads (channels, rows,
        cols, base_row); everything else it reads derives from them."""
        return self.channels, self.rows, self.cols, self.base_row

    def group_channel(self, j: int) -> tuple[int, int]:
        """(channel id, local index) of row group j."""
        nch = len(self.channels)
        return self.channels[j % nch], j // nch

    def loc(self, j: int, t: int) -> tuple[int, int, int]:
        """(row, column, slot width) of group j's tile t."""
        _, lg = self.group_channel(j)
        s = self.tiles[t]
        row = (self.base_row + self.tile_row_offsets[t]
               + lg // self.runs_per_row)
        co = (lg % self.runs_per_row) * s
        return row, co, s

    def channel_groups(self, ch: int) -> list[int]:
        nch = len(self.channels)
        return list(range(self.channels.index(ch), self.n_groups, nch))

    def element_loc(self, r: int, c: int):
        """(channel, bank, row, column, lane) of local element [r, c].
        c indexes physical storage order; col_perm names the logical
        column each physical position holds."""
        ch, _ = self.group_channel(r // LANE)
        t, e = divmod(c, ROW_ELEMS)
        row, co, _ = self.loc(r // LANE, t)
        return ch, r % LANE, row, co + e // LANE, e % LANE


@dataclass
class DownPlacement(TensorPlacement):
    """The down projection: its input is the gated vector in the order
    the gate/up pass produces it, each channel's row groups in turn, so
    its columns are stored in that order."""

    @functools.cached_property
    def col_perm(self) -> tuple[int, ...]:
        # the gate placement on this device has the same channels, and
        # its rows are these columns
        nch = len(self.channels)
        groups = -(-self.cols // LANE)
        return tuple(c for first in range(nch)
                     for j in range(first, groups, nch)
                     for c in range(j * LANE, min((j + 1) * LANE, self.cols)))


@dataclass
class EwWeightPlacement:
    """Per-element weight vector for a bank-group triple pass: quarter g
    of the vector sits in bank 4g, the activation is written to bank
    4g+1 at run time and the product is read back from bank 4g+2."""
    name: str
    device: int
    channel: int
    base_row: int
    n_slots: int

    @property
    def geometry(self) -> tuple:
        """The fields the lowering reads, all but the device."""
        return self.channel, self.base_row, self.n_slots

    @property
    def quarter(self) -> int:
        return -(-self.n_slots // BANK_GROUPS)

    @property
    def rows_needed(self) -> int:
        return -(-self.quarter // ROW_SLOTS)

    def loc(self, s: int) -> tuple[int, int, int]:
        """(bank, row, column) of vector slot s."""
        g, local = divmod(s, self.quarter)
        return (BANK_GROUPS * g, self.base_row + local // ROW_SLOTS,
                local % ROW_SLOTS)


@dataclass
class KvCachePlacement:
    """K rows packed like a score-GEMV matrix (position p -> bank p%16,
    row-group p//16); V stored transposed so one token's append lands
    one lane deep in every bank via WR_ABK."""
    kv_head: int
    channel: int
    d_head: int
    max_context: int
    k_base_row: int
    v_base_row: int

    @property
    def dh_slots(self) -> int:
        return slots_of(self.d_head)

    @property
    def k_runs_per_row(self) -> int:
        return ROW_SLOTS // self.dh_slots

    def k_loc(self, group: int) -> tuple[int, int]:
        return (self.k_base_row + group // self.k_runs_per_row,
                (group % self.k_runs_per_row) * self.dh_slots)

    def k_rows_needed(self) -> int:
        groups = -(-self.max_context // LANE)
        return -(-groups // self.k_runs_per_row)

    @property
    def v_rows_per_group(self) -> int:
        return -(-self.max_context // ROW_ELEMS)

    def v_loc(self, group: int, pos: int) -> tuple[int, int, int]:
        """(row, column, lane) holding element [group dim, pos] of V^T."""
        row = (self.v_base_row + group * self.v_rows_per_group
               + pos // ROW_ELEMS)
        return row, (pos % ROW_ELEMS) // LANE, pos % LANE

    def v_rows_needed(self) -> int:
        return self.dh_slots * self.v_rows_per_group


# ---------------------------------------------------------------------------
# sinks

@dataclass
class ChannelStats:
    bracket_hist: Counter = field(default_factory=Counter)  # cols -> count
    wr_gb: int = 0               # Global Buffer column writes
    rd_mac: int = 0              # accumulator drains (tCL each)

    def merge(self, other: "ChannelStats", factor: int = 1) -> None:
        for k, v in other.bracket_hist.items():
            self.bracket_hist[k] += v * factor
        self.wr_gb += other.wr_gb * factor
        self.rd_mac += other.rd_mac * factor


@dataclass
class TraceSummary:
    instructions: Counter = field(default_factory=Counter)
    microops: Counter = field(default_factory=Counter)
    operators: Counter = field(default_factory=Counter)
    channels: dict = field(default_factory=dict)       # ch -> ChannelStats
    riscv_slots: Counter = field(default_factory=Counter)  # routine kind
    pnm_microops: int = 0
    cxl_sent_B: int = 0
    # (kind, fan-in, bytes per sender) -> count of the CXL collectives
    # this device leads, kinds as timesim.cxl_transfer_time reads them
    collectives: Counter = field(default_factory=Counter)

    def merge(self, other: "TraceSummary", factor: int = 1,
              chan_map: Optional[dict] = None) -> None:
        for k, v in other.instructions.items():
            self.instructions[k] += v * factor
        for k, v in other.microops.items():
            self.microops[k] += v * factor
        for k, v in other.operators.items():
            self.operators[k] += v * factor
        for k, v in other.riscv_slots.items():
            self.riscv_slots[k] += v * factor
        for k, v in other.collectives.items():
            self.collectives[k] += v * factor
        for ch, st in other.channels.items():
            dst = chan_map[ch] if chan_map else ch
            self.channels.setdefault(dst, ChannelStats()).merge(st, factor)
        self.pnm_microops += other.pnm_microops * factor
        self.cxl_sent_B += other.cxl_sent_B * factor

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions.values())

    def mac_fraction(self) -> float:
        arith = sum(v for k, v in self.microops.items()
                    if k in isa.ARITHMETIC_OPCODES)
        return self.microops.get("MAC_ABK", 0) / arith if arith else 0.0

    def to_dict(self) -> dict:
        return {
            "instructions": dict(self.instructions),
            "microops": dict(self.microops),
            "operators": dict(self.operators),
            "riscv_slots": dict(self.riscv_slots),
            "pnm_microops": self.pnm_microops,
            "cxl_sent_B": self.cxl_sent_B,
            "collectives": [[*k, n] for k, n in
                            sorted(self.collectives.items())],
            "channels": {
                str(ch): {"wr_gb": st.wr_gb,
                          "rd_mac": st.rd_mac,
                          "bracket_hist": {str(k): v for k, v in
                                           sorted(st.bracket_hist.items())}}
                for ch, st in sorted(self.channels.items())},
        }


_BANK_ROW_OPS = frozenset({"MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK",
                           "WR_SBK", "RD_SBK", "WR_ABK"})

# which counters an opcode feeds, beyond its instruction and micro-op
# counts
_ROW, _WR_GB, _RD_MAC, _PNM, _RISCV, _CXL = range(1, 7)
_COUNTER_KIND = {**dict.fromkeys(_BANK_ROW_OPS, _ROW),
                 "WR_GB": _WR_GB, "RD_MAC": _RD_MAC,
                 **dict.fromkeys(("EXP", "RED", "ACC"), _PNM),
                 "RISCV": _RISCV,
                 **dict.fromkeys(("SEND_CXL", "BCAST_CXL"), _CXL)}


def _count_plan(op: str) -> tuple:
    """(counter kind, CHid index, RO index, OPsize index, CHmask index,
    slots per micro-op) of `op`: the last three are its
    isa.MICROOP_RULES entry. An absent field's index is None, and so is
    CHid's where no per-channel counter reads it."""
    kind = _COUNTER_KIND.get(op)
    idx = isa.FIELD_INDEX[op]
    chid = idx.get("CHid") if kind in (_ROW, _WR_GB, _RD_MAC) else None
    return (kind, chid, idx.get("RO"), *isa.MICROOP_RULES[op])


_COUNT_PLAN = {op: _count_plan(op) for op in isa.OPCODE_FIELDS}


class CountSink:
    """Accumulates activity counters; never materializes instructions.

    `i` checks each instruction against the opcode's compiled
    operand predicate (`isa.check_operands`' own, so the same rules and
    messages) and counts it straight from its operand tuple, so no
    `Instruction` is built.

    Consecutive bank-row instructions on a channel that stay within one
    DRAM row share an activate/precharge bracket; the histogram of
    bracket column counts drives the timing and energy models.

    Each channel's first and last bracket stay open until `finish()`,
    since an earlier or later stream may continue them. An unfinished
    sink is therefore an exact summary of a trace segment, and
    `append` composes such segments as if their instructions had been
    emitted into one sink in order.
    """

    def __init__(self, device: int, cfg: ArchConfig):
        self.device = device
        self.cfg = cfg
        self.summary = TraceSummary()
        self.annotations: list[tuple[str, int, int]] = []
        self._open: dict = {}          # ch -> [row, cols] of last bracket
        self._first: dict = {}         # ch -> [row, cols] of first bracket
        self._rules = isa._operand_rules(cfg)
        self._routines: dict = {}      # (kind, params) -> pc

    def begin_op(self, name: str) -> None:
        self.summary.operators[name] += 1

    def end_op(self) -> None:
        pass

    def collective(self, kind: str, fan_in: int, sender_B: int) -> None:
        """Record one CXL collective that this device leads: a MULTICAST
        of `sender_B` bytes to `fan_in` devices, or a GATHER of
        `sender_B` bytes from each of `fan_in` devices. Its instructions
        are emitted and counted as usual; this is what timing prices."""
        self.summary.collectives[(kind, fan_in, sender_B)] += 1

    def i(self, opcode: str, *operands,
          riscv_kind: Optional[str] = None, **flags) -> None:
        """Count one instruction given as its opcode, its operands in
        OPCODE_FIELDS order and make_instruction's keyword flags."""
        rule = self._rules.get(opcode)
        if flags or rule is None or not rule.accepts(operands):
            isa.check_operands(opcode, operands, cfg=self.cfg, **flags)
        self._count(opcode, operands, riscv_kind)

    def riscv(self, kind: str, opsize: int, rd: int, rs: int,
              params: tuple = ()) -> None:
        """Emit a RISCV instruction running routine `kind` with `params`;
        each distinct routine takes the next PC of the routine table."""
        if kind not in isa.RV_ROUTINES:
            raise CompileError(f"unknown RISC-V routine {kind!r}")
        pc = self._routines.setdefault((kind, params), len(self._routines))
        self.i("RISCV", opsize, pc, rd, rs, riscv_kind=kind)

    def segment(self) -> "CountSink":
        """A fresh sink of this one's class that shares its routine
        table, for a segment appended here later (or, if it emits no
        RISCV, to other devices' sinks as well)."""
        seg = type(self)(self.device, self.cfg)
        seg._routines = self._routines
        return seg

    @property
    def routines(self) -> dict:
        """pc -> (kind, params) of every routine emitted so far."""
        return {pc: key for key, pc in self._routines.items()}

    def _count(self, op: str, operands: tuple,
               riscv_kind: Optional[str]) -> None:
        s = self.summary
        kind, chid_i, ro_i, size_i, mask_i, per_uop = _COUNT_PLAN[op]
        opsize = 1 if size_i is None else operands[size_i]
        n = opsize if per_uop == 1 else -(-opsize // per_uop)
        s.instructions[op] += 1
        if mask_i is None:
            s.microops[op] += n
            chans = () if chid_i is None else (operands[chid_i],)
        else:
            mask = operands[mask_i]
            if mask & (mask - 1):
                chans = isa.mask_channels(mask)
                s.microops[op] += n * len(chans)
            else:  # one channel: most masks
                chans = (mask.bit_length() - 1,)
                s.microops[op] += n

        if kind == _ROW:
            ro = operands[ro_i]
            for ch in chans:
                cur = self._open.get(ch)
                if cur is not None and cur[0] == ro:
                    cur[1] += opsize   # continues the open bracket
                else:
                    self._open_bracket(ch, cur, ro, opsize)
        elif kind == _WR_GB:
            for ch in chans:
                self._stats(ch).wr_gb += opsize
        elif kind == _RD_MAC:
            for ch in chans:
                self._stats(ch).rd_mac += 1
        elif kind == _PNM:
            s.pnm_microops += n
        elif kind == _RISCV:
            s.pnm_microops += n
            s.riscv_slots[riscv_kind] += opsize
        elif kind == _CXL:
            s.cxl_sent_B += WORD_B

    def _open_bracket(self, ch: int, cur: Optional[list], ro: int,
                      cols: int) -> None:
        """Start a bracket of `cols` columns in row `ro` on `ch`, closing
        `cur`, the channel's open bracket (None before its first)."""
        if cur is None:
            self._stats(ch)
            self._open[ch] = self._first[ch] = [ro, cols]
        else:
            self._close(ch, cur)
            self._open[ch] = [ro, cols]

    def _stats(self, ch: int) -> ChannelStats:
        st = self.summary.channels.get(ch)
        if st is None:
            st = self.summary.channels[ch] = ChannelStats()
        return st

    def append(self, seg: "CountSink",
               chan_map: Optional[dict] = None) -> None:
        """Count the unfinished sink `seg` as if its instructions had
        been emitted here after this sink's own. Its first bracket on a
        channel continues this sink's open bracket when both hold the
        same row, and closes it otherwise. `seg` is left unchanged.

        `chan_map` (segment channel -> channel here) renames a segment
        whose every instruction names one channel, by CHmask, to the
        stream of the same instructions on the mapped channels. Their
        other operands were checked when `seg` was lowered, so only each
        target channel is checked, with the error its first instruction
        would raise."""
        if chan_map and seg.summary.instructions:
            first = next(iter(seg.summary.instructions))
            for dst in chan_map.values():
                isa.check_mask(first, 1 << dst, self.cfg)
        for ch, head in seg._first.items():
            ch_here = chan_map[ch] if chan_map else ch
            cur = self._open.get(ch_here)
            if cur is None:
                cur = self._open[ch_here] = self._first[ch_here] = list(head)
            elif cur[0] == head[0]:
                cur[1] += head[1]
            else:
                self._close(ch_here, cur)
                cur = self._open[ch_here] = list(head)
            last = seg._open[ch]
            if last is not head:
                self._close(ch_here, cur)
                self._open[ch_here] = list(last)
        self.summary.merge(seg.summary, chan_map=chan_map)

    def _close(self, ch: int, bracket: list) -> None:
        # the first bracket stays open: an earlier segment may continue it
        if bracket is not self._first[ch]:
            self.summary.channels[ch].bracket_hist[bracket[1]] += 1

    def finish(self) -> TraceSummary:
        for ch, last in self._open.items():
            hist = self.summary.channels[ch].bracket_hist
            first = self._first[ch]
            if first is not last:
                hist[first[1]] += 1
            hist[last[1]] += 1
        self._open.clear()
        self._first.clear()
        return self.summary


class ListSink(CountSink):
    """Materializes the instruction stream alongside the counters:
    `i` builds each instruction with `isa.make_instruction` (which
    checks it), counts its operands as `CountSink` does and keeps
    it."""

    def __init__(self, device: int, cfg: ArchConfig):
        super().__init__(device, cfg)
        self.instructions: list[Instruction] = []
        self._op_stack: list[tuple[str, int]] = []

    def begin_op(self, name: str) -> None:
        super().begin_op(name)
        self._op_stack.append((name, len(self.instructions)))

    def end_op(self) -> None:
        name, start = self._op_stack.pop()
        self.annotations.append((name, start, len(self.instructions)))

    def i(self, opcode: str, *operands,
          riscv_kind: Optional[str] = None, **flags) -> None:
        inst = make_instruction(opcode, *operands, cfg=self.cfg, **flags)
        self._count(opcode, inst.operands, riscv_kind)
        self.instructions.append(inst)

    def append(self, seg: "ListSink",
               chan_map: Optional[dict] = None) -> None:
        """As `CountSink.append`, and the segment's instructions follow
        this sink's own: the same frozen objects, or, with `chan_map`,
        each rebuilt by `make_instruction` on its mapped channel.
        Segments open no operators, so there are no annotations to carry
        over."""
        super().append(seg, chan_map)
        if not chan_map:
            self.instructions.extend(seg.instructions)
            return
        for inst in seg.instructions:
            ops = list(inst.operands)
            mask_i = _COUNT_PLAN[inst.opcode][4]
            ops[mask_i] = 1 << chan_map[ops[mask_i].bit_length() - 1]
            self.instructions.append(make_instruction(
                inst.opcode, *ops, source_select=inst.source_select,
                copy_bank=inst.copy_bank, red_mode=inst.red_mode,
                cfg=self.cfg))


@dataclass
class DeviceTrace:
    device: int
    instructions: list[Instruction]
    annotations: list[tuple[str, int, int]]
    summary: TraceSummary
    routines: dict           # pc -> (kind, params)


# ---------------------------------------------------------------------------
# layout

@dataclass
class SbMap:
    """Shared Buffer slot regions, reused by every block on a device."""
    zero: int        # SB_ZERO_SLOTS zero-constant slots (bias sources)
    hidden: int      # residual stream
    rms: int         # normalized vector; reused for concat head outputs
    qkv: int         # q vector, then reused for projection outputs;
                     # doubles as the staging region on non-master devices
    kv_new: int      # this token's k and v head vectors
    tmp: int         # chunk temporaries and softmax statistics
    size: int

    @property
    def zero_slots(self) -> int:
        return self.hidden - self.zero


def _build_sb_map(model: ModelSpec, arch: ArchConfig) -> SbMap:
    S = slots_of(model.d_model)
    Skv = slots_of(model.n_kv_heads * model.d_head)
    hidden = SB_ZERO_SLOTS
    rms = hidden + S
    qkv = rms + S
    kv_new = qkv + S
    tmp = kv_new + 2 * Skv
    size = tmp + 160
    if size > arch.sb_slots:
        raise CompileError(f"Shared Buffer map needs {size} slots, "
                           f"only {arch.sb_slots} available")
    return SbMap(0, hidden, rms, qkv, kv_new, tmp, size)


@dataclass
class BlockLayout:
    block: int
    replica: int
    assignment: BlockAssignment
    tp_group: tuple[int, ...]
    master: int
    placements: dict             # name -> {device: placement}
    kv: list[KvCachePlacement]
    norm_channel: int
    rms_input_row: int           # neighbor-pair dot scratch (norm channel)
    rope_base_row: int           # cos/sin tables (norm channel)
    rope_rows: int
    ewmul_row: dict              # device -> FFN triple scratch row
    gated_scratch_row: dict      # device -> gated-vector staging base row
    score_scratch_row: dict      # kv channel -> score staging base row


@dataclass
class Layout:
    model: ModelSpec
    arch: ArchConfig
    plan: MappingPlan
    sb: SbMap
    blocks: list[BlockLayout]    # plan order: a replica's blocks ascend
    zero_rows: dict              # (device, channel) -> row ranges
    # _segment_key -> (before_core, after_core), each a tuple of
    # unfinished CountSinks by tp role; layouts given one dict share it
    segment_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)
    # structure key -> its entry of segment_cache, filled by
    # block_summaries on first use
    invariant_segments: dict = field(default_factory=dict, repr=False,
                                     compare=False)


class _RowAlloc:
    """Next free DRAM row of every channel, per device. A region spans
    its channels from the highest of their next free rows.

    Devices that have taken the same regions share one cursor
    (channel -> next free row). A take on only some of a cursor's
    devices first gives them a copy of it, so each device's rows are
    exactly those of taking its regions alone."""

    def __init__(self, rows_per_bank: int):
        self.cursor: dict = {}      # device -> its history's cursor
        self.users: dict = {}       # id(cursor) -> devices holding it
        self.limit = rows_per_bank

    def take(self, devices, channels, n: int) -> list[tuple]:
        """Take `n` rows spanning `channels` on each of `devices`: one
        (base row, devices) pair per subset of them sharing a cursor,
        in the order of each subset's first device."""
        if len(devices) == 1:
            # every take of a pipeline layout; grouping one device
            # makes a 70B PP build_layout about 10% slower
            return [(self._take_alike(devices, channels, n), devices)]
        subsets: dict = {}          # id(cursor) -> its devices here
        for d in devices:
            subsets.setdefault(id(self.cursor.get(d)), []).append(d)
        return [(self._take_alike(devs, channels, n), devs)
                for devs in subsets.values()]

    def _take_alike(self, devices, channels, n: int) -> int:
        """`take` on devices that share one cursor (or are all fresh):
        their one base row."""
        rows = self.cursor.get(devices[0])
        if rows is None or self.users[id(rows)] > len(devices):
            if rows is not None:
                self.users[id(rows)] -= len(devices)
            rows = Counter(rows)
            self.users[id(rows)] = len(devices)
            for d in devices:
                self.cursor[d] = rows
        base = max(map(rows.__getitem__, channels))
        if base + n > self.limit:
            raise CompileError(f"device {devices[0]}: DRAM rows exhausted "
                               f"({base + n} > {self.limit})")
        if n:
            for c in channels:
                rows[c] = base + n
        return base


def _fc_shapes(model: ModelSpec) -> list[tuple[str, int, int]]:
    d = model.d_model
    kv = model.n_kv_heads * model.d_head
    return [("q", d, d), ("k", kv, d), ("v", kv, d), ("o", d, d),
            ("gate", model.d_ff, d), ("up", model.d_ff, d),
            ("down", d, model.d_ff)]


def build_layout(model: ModelSpec, plan: MappingPlan, arch: ArchConfig,
                 segment_cache: Optional[dict] = None) -> Layout:
    """Place every block of `plan`. A tensor-parallel share is placed
    once for each subset of the group's devices whose rows are alike,
    and those devices hold one placement object.

    `segment_cache` becomes the layout's cache of position-invariant
    block segments (see `block_summaries`): layouts built with one dict
    lower each block geometry once. Without it the layout gets its own."""
    sb = _build_sb_map(model, arch)
    alloc = _RowAlloc(arch.rows_per_bank)
    zero_rows: dict = {}

    def mark_zero(device, ch, lo, n):
        zero_rows.setdefault((device, ch), []).append(range(lo, lo + n))

    # transient scratch and the position-indexed RoPE tables hold no
    # per-block state, so blocks sharing a channel share one copy
    shared: dict = {}

    def take_shared(key, devices, channels, n, zero=False) -> dict:
        """device -> base row of the `key` region on `channels` that the
        blocks of `devices` share."""
        full = (key, tuple(devices), channels)
        if full not in shared:
            at = shared[full] = {d: base for base, devs
                                 in alloc.take(devices, channels, n)
                                 for d in devs}
            if zero:
                for d in devices:
                    for c in channels:
                        mark_zero(d, c, at[d], n)
        return shared[full]

    blocks = []
    for a in plan.block_assignments:
        group = a.devices
        master = a.master
        tp = len(group)
        by_chans: dict = {}     # channel tuple -> its devices, in order
        for dev, chans in zip(group, a.channels):
            by_chans.setdefault(chans, []).append(dev)
        placements: dict = {}
        for name, rows, cols in _fc_shapes(model):
            # down is split by columns (each device owns a gated slice
            # and emits a full-length partial sum); the rest by rows
            if name == "down":
                if rows % LANE or cols % (LANE * tp):
                    raise CompileError(f"down: ({rows}, {cols}) not "
                                       f"divisible over tp={tp}")
            elif rows % (LANE * tp):
                raise CompileError(f"{name}: {rows} rows not divisible "
                                   f"over tp={tp} in 16-row groups")
            cls = DownPlacement if name == "down" else TensorPlacement
            r, c = (rows, cols // tp) if name == "down" else (rows // tp, cols)
            share: dict = {}
            for chans, devs in by_chans.items():
                first = cls(name, chans, r, c, 0)
                at: dict = {}       # base row -> placement
                for base, sub in alloc.take(devs, chans, first.rows_needed):
                    if not at:
                        first.base_row = base
                        at[base] = first
                    elif base not in at:
                        at[base] = cls(name, chans, r, c, base)
                    for d in sub:
                        share[d] = at[base]
            placements[name] = {d: share[d] for d in group}
        mchans = a.channels[a.devices.index(master)]
        norm_ch = mchans[0]
        S = slots_of(model.d_model)
        for wname in ("w_rms1", "w_rms2"):
            wp = EwWeightPlacement(wname, master, norm_ch, 0, S)
            wp.base_row = alloc.take((master,), (norm_ch,),
                                     wp.rows_needed)[0][0]
            placements[wname] = {master: wp}
            mark_zero(master, norm_ch, wp.base_row, wp.rows_needed)

        # RoPE cos/sin tables: position p occupies one run of columns
        dh_slots = slots_of(model.d_head)
        rope_rows = -(-model.max_context // (ROW_SLOTS // dh_slots))
        rope_base = take_shared("rope", (master,), (norm_ch,), rope_rows,
                                zero=True)[master]

        # neighbor-pair scratch for the RMSNorm self dot product
        pair_slots = -(-S // (BANKS // 2))
        rms_rows = -(-pair_slots // ROW_SLOTS)
        rms_row = take_shared("rms_in", (master,), (norm_ch,), rms_rows,
                              zero=True)[master]

        # KV caches: one channel per KV head, round-robin over the
        # master's channels; score staging rows beside each cache
        kvs = []
        score_row = {}
        score_rows = -(-slots_of(model.max_context) // ROW_SLOTS)
        for g in range(model.n_kv_heads):
            ch = mchans[g % len(mchans)]
            kv = KvCachePlacement(g, ch, model.d_head, model.max_context,
                                  0, 0)
            # the head's K cache, then its V cache, in one region
            k_rows, v_rows = kv.k_rows_needed(), kv.v_rows_needed()
            kv.k_base_row = alloc.take((master,), (ch,),
                                       k_rows + v_rows)[0][0]
            kv.v_base_row = kv.k_base_row + k_rows
            mark_zero(master, ch, kv.k_base_row, k_rows)
            mark_zero(master, ch, kv.v_base_row, v_rows)
            if ch not in score_row:
                score_row[ch] = take_shared("score", (master,), (ch,),
                                            score_rows)[master]
            kvs.append(kv)

        # per-device FFN scratch: EW_MUL triple row + gated staging rows
        ew_row, gated_row = {}, {}
        gated_rows = -(-slots_of(model.d_ff // tp) // ROW_SLOTS)
        for chans, devs in by_chans.items():
            ew_row.update(take_shared("ew", devs, chans, 1, zero=True))
            gated_row.update(take_shared("gated", devs, chans, gated_rows))

        blocks.append(BlockLayout(
            block=a.block, replica=a.replica, assignment=a, tp_group=group,
            master=master, placements=placements, kv=kvs,
            norm_channel=norm_ch, rms_input_row=rms_row,
            rope_base_row=rope_base, rope_rows=rope_rows,
            ewmul_row=ew_row, gated_scratch_row=gated_row,
            score_scratch_row=score_row))

    return Layout(model, arch, plan, sb, blocks, zero_rows,
                  {} if segment_cache is None else segment_cache)


# ---------------------------------------------------------------------------
# emission

def _chmask(channels) -> int:
    m = 0
    for c in channels:
        m |= 1 << c
    return m


def _sbk_run(sink: CountSink, op: str, ch: int, bank: int, row: int,
             col: int, n: int, slot: int) -> None:
    """`op` (WR_SBK or RD_SBK) between `n` Shared Buffer slots from
    `slot` on and `bank`'s columns from `col` of `row` on, where `col`
    may run past the row: one instruction per DRAM row it touches."""
    end = col + n
    while col < end:
        w = min(ROW_SLOTS - col % ROW_SLOTS, end - col)
        sink.i(op, ch, w, bank, row + col // ROW_SLOTS, col % ROW_SLOTS, slot)
        col += w
        slot += w


def _class_runs(sink: CountSink, live: list, classes: dict, lower) -> None:
    """Emit `lower(seg, c)`, one channel's run, for every channel c of
    `live` in order. Channels with one `classes[c]` run alike but for
    their channel, so each class is lowered once, into a segment on its
    first channel, and appended renamed to the others."""
    first: dict = {}                 # class -> (channel, segment)
    for c in live:
        hit = first.get(classes[c])
        if hit is None:
            seg = sink.segment()
            lower(seg, c)
            first[classes[c]] = c, seg
            sink.append(seg)
        else:
            sink.append(hit[1], {hit[0]: c})


@dataclass
class GemvJob:
    placement: TensorPlacement
    out_base: int        # result slot for row group j is out_base + j


def emit_gemv(sink: CountSink, jobs: list[GemvJob], vec_src: tuple,
              sb_zero: int) -> None:
    """Shared GEMV loop: register batches x input tiles.

    vec_src is ("SB", base_slot) for Global Buffer loads from the Shared
    Buffer, or ("BK", base_row) to re-stream the vector from bank-0 DRAM
    scratch via COPY_BKGB. Fused jobs must share channels and input
    width.
    """
    pl0 = jobs[0].placement
    channels, tiles = pl0.channels, pl0.tiles
    for j in jobs[1:]:
        if j.placement.channels != channels or j.placement.tiles != tiles:
            raise CompileError("fused GEMV jobs must share layout")

    per_ch: dict[int, list] = {c: [] for c in channels}
    for job in jobs:
        for j in range(job.placement.n_groups):
            ch, _ = job.placement.group_channel(j)
            per_ch[ch].append((job, j))
    n_batches = max(-(-len(v) // REGS) for v in per_ch.values() if v)

    for b in range(n_batches):
        batch = {c: per_ch[c][b * REGS:(b + 1) * REGS] for c in channels}
        live = [c for c in channels if batch[c]]
        mask = _chmask(live)
        # a group's local index j // len(channels) names its row and
        # column on every channel: channels whose batches hold one
        # sequence of them run alike
        classes = {c: tuple((id(job), j // len(channels))
                            for job, j in batch[c]) for c in live}
        for t, s in enumerate(tiles):
            if vec_src[0] == "SB":
                reps = max(job.placement.loc(j, t)[1] // s
                           for c in live for job, j in batch[c]) + 1
                for r in range(reps):
                    sink.i("WR_GB", mask, s, r * s,
                           vec_src[1] + t * ROW_SLOTS)
            else:
                if pl0.runs_per_row > 1:
                    raise CompileError("bank-streamed input cannot feed "
                                       "packed matrix rows")
                sink.i("COPY_BKGB", mask, s, vec_src[1] + t, 0)

            def run(seg, c, t=t, s=s):
                for idx, (job, j) in enumerate(batch[c]):
                    row, co, _ = job.placement.loc(j, t)
                    if t == 0:
                        seg.i("WR_BIAS", 1 << c, sb_zero)
                    seg.i("MAC_ABK", 1 << c, s, row, co, idx)
            _class_runs(sink, live, classes, run)
        for c in live:
            for idx, (job, j) in enumerate(batch[c]):
                sink.i("RD_MAC", 1 << c, job.out_base + j, idx)


# ---------------------------------------------------------------------------
# block lowering

class BlockLowering:
    """Emits one transformer block for one token position.

    In a tensor-parallel group most devices run the same per-device
    pieces: a GEMV share, the fused gate/up pass, runs of RECV_CXL and
    the SEND_CXL run of the down-projection gather. On the master, the
    query heads of one KV head run the same attention body. `_shared`
    lowers each distinct piece once into a segment sink, keyed by
    everything its lowering reads, and appends it wherever a piece has
    that key. The memo lives only as long as this object (one block at
    one position, or one block segment).
    """

    def __init__(self, layout: Layout, bl: BlockLayout, position: int,
                 sinks: dict):
        self.L = layout
        self.bl = bl
        self.pos = position
        self.sinks = sinks                       # device -> sink
        self.model = layout.model
        self.cfg = layout.arch
        self.sb = layout.sb
        self.tp = len(bl.tp_group)
        self.master = bl.master
        self.ms = sinks[bl.master]
        self._pieces: dict = {}                  # key -> segment sink

    def _begin(self, name: str) -> None:
        for d in self.bl.tp_group:
            self.sinks[d].begin_op(name)

    def _end(self) -> None:
        for d in self.bl.tp_group:
            self.sinks[d].end_op()

    def _d_slots(self) -> int:
        return slots_of(self.model.d_model)

    # -- pieces lowered once and appended many times -----------------------

    def _shared(self, dev: int, key: tuple, lower) -> None:
        """Append to `dev`'s sink what `lower(sink)` emits. It is
        lowered into a segment on the first device with this `key`,
        which must hold everything `lower` reads, and appended as is for
        every later one. A piece that emits RISCV may be appended only
        to the device whose routine table it was lowered with, since its
        PCs index that table."""
        sink = self.sinks[dev]
        seg = self._pieces.get(key)
        if seg is None:
            seg = self._pieces[key] = sink.segment()
            lower(seg)
        assert (seg._routines is sink._routines
                or "RISCV" not in seg.summary.instructions), key
        sink.append(seg)

    def _gemv(self, dev: int, jobs: list[GemvJob], vec_src: tuple) -> None:
        zero = self.sb.zero
        key = ("gemv", tuple((j.placement.geometry, j.out_base)
                             for j in jobs), vec_src, zero)
        self._shared(dev, key,
                     lambda sink: emit_gemv(sink, jobs, vec_src, zero))

    def _recv(self, dev: int, n: int) -> None:
        def lower(sink):
            for _ in range(n):
                sink.i("RECV_CXL")
        self._shared(dev, ("RECV_CXL", n), lower)

    # -- collectives -------------------------------------------------------

    def _bcast(self, base: int, n: int) -> None:
        """Master broadcasts n Shared Buffer slots to the group."""
        if self.tp == 1:
            return
        self.ms.collective("MULTICAST", self.tp - 1, n * WORD_B)
        for i in range(n):
            self.ms.i("BCAST_CXL", self.tp - 1, base + i, base + i)
        for dev in self.bl.tp_group:
            if dev != self.master:
                self._recv(dev, n)

    def _gather(self, name: str, out: int, sender_base: int) -> None:
        """Non-masters send their output shares to the master's slots.
        The sends name each share's own rows, so they are not shared."""
        if self.tp == 1:
            return
        for di, dev in enumerate(self.bl.tp_group):
            if dev == self.master:
                continue
            pl = self.bl.placements[name][dev]
            for g in range(pl.n_groups):
                self.sinks[dev].i("SEND_CXL", self.master, sender_base + g,
                                  out + di * pl.n_groups + g)
            self._recv(self.master, pl.n_groups)
        # build_layout splits every FC into equal shares
        self.ms.collective("GATHER", self.tp - 1, pl.n_groups * WORD_B)

    def _gather_accumulate(self, out: int, sender_base: int) -> None:
        """Down-projection partial sums: stage each sender's full vector
        on the master (in the rms region, dead by this point), then add
        it in. Each sender's SEND batch arrives contiguously (senders
        never block mid-batch), so the shared staging is race-free."""
        if self.tp == 1:
            return
        n, master, stage = self._d_slots(), self.master, self.sb.rms
        self.ms.collective("GATHER", self.tp - 1, n * WORD_B)

        def send(sink):
            for g in range(n):
                sink.i("SEND_CXL", master, sender_base + g, stage + g)
        for dev in self.bl.tp_group:
            if dev == master:
                continue
            self._shared(dev, ("SEND_CXL", master, sender_base, stage, n),
                         send)
            self._recv(master, n)
            self.ms.i("ACC", n, out, stage)

    # -- block segments ----------------------------------------------------
    # A block is before_core, attention_core, after_core. Only the core
    # reads the position, so the other two lower identically at every
    # position of a given layout and structure class.

    def before_core(self) -> None:
        self.rmsnorm("w_rms1")
        self.qkv()

    def after_core(self) -> None:
        self.o_proj()
        self.rmsnorm("w_rms2")
        self.ffn()

    # -- operators ---------------------------------------------------------

    def rmsnorm(self, w_name: str) -> None:
        self._begin("rmsnorm")
        m, sb, sink = self.model, self.sb, self.ms
        ch = self.bl.norm_channel
        S = self._d_slots()
        pairs = BANKS // 2
        pair_slots = -(-S // pairs)
        # duplicate each pair's share of the vector into both banks of
        # the pair so the pair dot product accumulates x*x
        for p in range(pairs):
            seg = min(pair_slots, S - p * pair_slots)
            for bank in (2 * p, 2 * p + 1):
                _sbk_run(sink, "WR_SBK", ch, bank, self.bl.rms_input_row, 0,
                         seg, sb.hidden + p * pair_slots)
        sink.i("WR_BIAS", 1 << ch, sb.zero)
        for r in range(-(-pair_slots // ROW_SLOTS)):
            n = min(ROW_SLOTS, pair_slots - r * ROW_SLOTS)
            sink.i("MAC_ABK", 1 << ch, n, self.bl.rms_input_row + r, 0, 0,
                   source_select="BANK")
        sink.i("RD_MAC", 1 << ch, sb.tmp, 0)
        sink.i("RED", 1, sb.tmp + 1, sb.tmp)
        # every element is counted twice (both banks of its pair)
        sink.riscv("rms_finalize", 1, sb.tmp + 2, sb.tmp + 1,
                   params=(m.d_model, 1e-5, 2))
        sink.riscv("scale", S, sb.rms, sb.hidden, params=(sb.tmp + 2,))
        # learned per-element weights via a bank-group triple pass
        wp = self.bl.placements[w_name][self.master]
        q = wp.quarter
        for g in range(BANK_GROUPS):
            _sbk_run(sink, "WR_SBK", ch, BANK_GROUPS * g + 1, wp.base_row, 0,
                     min(q, S - g * q), sb.rms + g * q)
        for r in range(wp.rows_needed):
            sink.i("EW_MUL", 1 << ch, min(ROW_SLOTS, q - r * ROW_SLOTS),
                   wp.base_row + r, 0)
        for g in range(BANK_GROUPS):
            _sbk_run(sink, "RD_SBK", ch, BANK_GROUPS * g + 2, wp.base_row, 0,
                     min(q, S - g * q), sb.rms + g * q)
        self._end()

    def rope(self, base_slot: int, n_heads: int) -> None:
        """Rotate n_heads head vectors in place on the master."""
        m, sb, sink = self.model, self.sb, self.ms
        ch = self.bl.norm_channel
        dh = slots_of(m.d_head)
        per_row = ROW_SLOTS // dh
        row = self.bl.rope_base_row + self.pos // per_row
        co = (self.pos % per_row) * dh
        for h in range(n_heads):
            x = base_slot + h * dh
            sink.riscv("rope_pack", dh, sb.tmp, x)   # pairwise swap-negate
            # bank-group triples: group 0 multiplies x by the cos
            # table, group 1 the packed x by the sin table
            for g, src in enumerate((x, sb.tmp)):
                sink.i("WR_SBK", ch, dh, BANK_GROUPS * g + 1, row, co, src)
            sink.i("EW_MUL", 1 << ch, dh, row, co)
            for g, dst in enumerate((sb.tmp, sb.tmp + dh)):
                sink.i("RD_SBK", ch, dh, BANK_GROUPS * g + 2, row, co, dst)
            sink.riscv("rope_combine", dh, x, sb.tmp, params=(dh,))

    def qkv(self) -> None:
        """Opens the attention operator: the fused Q/K/V projections."""
        self._begin("attention")
        m, sb = self.model, self.sb
        kvS = slots_of(m.n_kv_heads * m.d_head)
        if self.tp == 1:
            jobs = [GemvJob(self.bl.placements["q"][self.master], sb.qkv),
                    GemvJob(self.bl.placements["k"][self.master],
                            sb.kv_new),
                    GemvJob(self.bl.placements["v"][self.master],
                            sb.kv_new + kvS)]
            self._gemv(self.master, jobs, ("SB", sb.rms))
        else:
            for name, out in (("q", sb.qkv), ("k", sb.kv_new),
                              ("v", sb.kv_new + kvS)):
                self._bcast(sb.rms, self._d_slots())
                for di, dev in enumerate(self.bl.tp_group):
                    pl = self.bl.placements[name][dev]
                    base = ((out + di * pl.n_groups)
                            if dev == self.master else sb.qkv)
                    self._gemv(dev, [GemvJob(pl, base)], ("SB", sb.rms))
                self._gather(name, out, sb.qkv)

    def attention_core(self) -> None:
        """RoPE, the KV-cache append and per-head attention on the
        master: the only part of a block that depends on the position.

        Query heads that share a KV head run the same attention body
        (see `_head_attention`): it reads only the KV placement, the
        group count, the position's lane and the channel's score
        scratch row, never the query head. It is lowered once per KV
        head, into a segment of the master's sink class, and appended
        for every query head between that head's own prologue and
        epilogue."""
        m, sb, sink = self.model, self.sb, self.ms
        kvS = slots_of(m.n_kv_heads * m.d_head)
        dh = slots_of(m.d_head)
        self.rope(sb.qkv, m.n_heads)
        self.rope(sb.kv_new, m.n_kv_heads)
        heads_per_kv = m.n_heads // m.n_kv_heads
        n_groups = -(-(self.pos + 1) // LANE)
        for kv in self.bl.kv:
            ch = kv.channel
            # append this token's K row and V lane before the score pass
            krow, kco = kv.k_loc(self.pos // LANE)
            sink.i("WR_SBK", ch, dh, self.pos % LANE, krow, kco,
                   sb.kv_new + kv.kv_head * dh)
            for g in range(dh):
                vrow, vco, lane = kv.v_loc(g, self.pos)
                sink.i("WR_ABK", ch, vrow, vco,
                       sb.kv_new + kvS + kv.kv_head * dh + g, lane)
            for hq in range(heads_per_kv):
                self._head_attention(kv, kv.kv_head * heads_per_kv + hq,
                                     n_groups)

    def o_proj(self) -> None:
        """Output projection over the concatenated head outputs and the
        residual add; closes the attention operator."""
        sb = self.sb
        if self.tp > 1:
            self._bcast(sb.rms, self._d_slots())
        for di, dev in enumerate(self.bl.tp_group):
            pl = self.bl.placements["o"][dev]
            base = ((sb.qkv + di * pl.n_groups)
                    if dev == self.master else sb.qkv)
            self._gemv(dev, [GemvJob(pl, base)], ("SB", sb.rms))
        self._gather("o", sb.qkv, sb.qkv)
        self.ms.i("ACC", self._d_slots(), sb.hidden, sb.qkv)
        self._end()

    def _softmax_slots(self) -> tuple[int, int, int, int, int]:
        """Running max, denominator, reduction result, 1/denominator and
        the score tile, in the tmp slot region."""
        t = self.sb.tmp
        return t + 8, t + 9, t + 10, t + 11, t + 16

    def _head_attention(self, kv: KvCachePlacement, head: int,
                        n_groups: int) -> None:
        """One query head's attention: a prologue that scales q and
        replicates it into the Global Buffer, the body from
        `_attention_body`, and an epilogue that drains the d_head
        accumulators into the head's output slots and applies
        1/denominator. Only the prologue and epilogue name the head's
        own Shared Buffer slots, so the body is the same for every
        query head of `kv` and goes through `_shared`, keyed by the KV
        head. The first query head lowers it after its prologue, so
        RISC-V routines keep their first-use order."""
        sb, sink = self.sb, self.ms
        dh, mask = kv.dh_slots, 1 << kv.channel
        q_slot = sb.qkv + head * dh
        sink.riscv("scale_const", dh, q_slot, q_slot,
                   params=(1.0 / math.sqrt(self.model.d_head),))
        # replicate q so each packed K run sees it at its own columns
        for r in range(min(kv.k_runs_per_row, n_groups)):
            sink.i("WR_GB", mask, dh, r * dh, q_slot)
        self._shared(self.master, ("attention", kv.kv_head),
                     lambda body: self._attention_body(body, kv, n_groups))
        out = sb.rms + head * dh
        for g in range(dh):
            sink.i("RD_MAC", mask, out + g, g)
        sinv = self._softmax_slots()[3]
        sink.riscv("scale", dh, out, out, params=(sinv,))

    def _attention_body(self, sink: CountSink, kv: KvCachePlacement,
                        n_groups: int) -> None:
        """Scores into DRAM staging (pass 1, tracking the running max),
        then per 64-slot tile: stabilized exp, denominator accumulation
        and the score x V GEMV into d_head accumulators (pass 2), and
        1/denominator. It reads no query head's slots."""
        sb = self.sb
        ch, dh = kv.channel, kv.dh_slots
        mask = 1 << ch
        srow = self.bl.score_scratch_row[ch]
        smax, sden, sred, sinv, stile = self._softmax_slots()
        sink.riscv("fill", 1, smax, smax, params=(-3.0e38,))
        sink.riscv("fill", 1, sden, sden, params=(0.0,))
        for base in range(0, n_groups, REGS):
            chunk = min(REGS, n_groups - base)
            for i in range(chunk):
                row, co = kv.k_loc(base + i)
                sink.i("WR_BIAS", mask, sb.zero)
                sink.i("MAC_ABK", mask, dh, row, co, i)
            for i in range(chunk):
                sink.i("RD_MAC", mask, stile + i, i)
            if base + chunk == n_groups and (self.pos + 1) % LANE:
                sink.riscv("mask_tail", 1, stile + chunk - 1,
                           stile + chunk - 1,
                           params=((self.pos + 1) % LANE,))
            sink.i("RED", chunk, sred, stile, red_mode="MAX")
            sink.riscv("maxacc", 1, smax, sred)
            sink.i("WR_SBK", ch, chunk, 0, srow + base // ROW_SLOTS,
                   base % ROW_SLOTS, stile)
        sink.riscv("set_stab", 1, smax, smax)
        for t, s in enumerate(input_tiles(n_groups * LANE)):
            sink.i("RD_SBK", ch, s, 0, srow + t, 0, stile)
            sink.i("EXP", s, stile, stile)
            sink.i("RED", s, sred, stile)
            sink.i("ACC", 1, sden, sred)
            sink.i("WR_GB", mask, s, 0, stile)
            for g in range(dh):
                if t == 0:
                    sink.i("WR_BIAS", mask, sb.zero)
                sink.i("MAC_ABK", mask, s,
                       kv.v_base_row + g * kv.v_rows_per_group + t, 0, g)
        sink.riscv("recip", 1, sinv, sden)

    def ffn(self) -> None:
        self._begin("ffn")
        sb = self.sb
        if self.tp > 1:
            self._bcast(sb.rms, self._d_slots())
        for dev in self.bl.tp_group:
            self._ffn_gate_up(dev)
        for dev in self.bl.tp_group:
            self._gemv(dev,
                       [GemvJob(self.bl.placements["down"][dev], sb.qkv)],
                       ("BK", self.bl.gated_scratch_row[dev]))
        self._gather_accumulate(sb.qkv, sb.qkv)
        self.ms.i("ACC", self._d_slots(), sb.hidden, sb.qkv)
        self._end()

    def _ffn_gate_up(self, dev: int) -> None:
        gate = self.bl.placements["gate"][dev]
        up = self.bl.placements["up"][dev]
        ew_row = self.bl.ewmul_row[dev]
        gbase = self.bl.gated_scratch_row[dev]
        self._shared(dev, ("gate_up", gate.geometry, up.geometry, ew_row,
                           gbase),
                     lambda sink: self._lower_gate_up(sink, gate, up, ew_row,
                                                      gbase))

    def _lower_gate_up(self, sink: CountSink, gate: TensorPlacement,
                       up: TensorPlacement, ew_row: int, gbase: int) -> None:
        """Fused gate/up pass: 16+16 matched row groups fill all 32
        accumulation registers, SiLU lands in-register via AF, gate x up
        runs on a bank-group triple, and the gated chunk is staged into
        every channel's gated scratch rows for the down projection."""
        sb = self.sb
        half = REGS // 2
        tg, tu = sb.tmp + 16, sb.tmp + 16 + half

        per_ch = {c: list(zip(gate.channel_groups(c),
                              up.channel_groups(c)))
                  for c in gate.channels}
        phys_off, acc = {}, 0
        for c in gate.channels:
            phys_off[c] = acc
            acc += len(per_ch[c])

        tiles = gate.tiles
        n_rounds = max(-(-len(v) // half) for v in per_ch.values() if v)
        for rnd in range(n_rounds):
            batch = {c: per_ch[c][rnd * half:(rnd + 1) * half]
                     for c in gate.channels}
            live = [c for c in gate.channels if batch[c]]
            mask = _chmask(live)
            # a channel's k-th pair in a round is its k-th local group
            # of both matrices, so channels with as many pairs run alike
            classes = {c: len(batch[c]) for c in live}
            for t, s in enumerate(tiles):
                reps = 1 + max(
                    max(gate.loc(gj, t)[1], up.loc(uj, t)[1]) // s
                    for c in live for gj, uj in batch[c])
                for r in range(reps):
                    sink.i("WR_GB", mask, s, r * s, sb.rms + t * ROW_SLOTS)

                def run(seg, c, t=t, s=s):
                    for i, (gj, uj) in enumerate(batch[c]):
                        grow, gco, _ = gate.loc(gj, t)
                        urow, uco, _ = up.loc(uj, t)
                        if t == 0:
                            seg.i("WR_BIAS", 1 << c, sb.zero)
                        seg.i("MAC_ABK", 1 << c, s, grow, gco, i)
                        if t == 0:
                            seg.i("WR_BIAS", 1 << c, sb.zero)
                        seg.i("MAC_ABK", 1 << c, s, urow, uco, half + i)
                _class_runs(sink, live, classes, run)
            for c in live:
                n = len(batch[c])
                for i in range(n):
                    sink.i("AF", 1 << c, SILU, i)
                for i in range(n):
                    sink.i("RD_MAC", 1 << c, tg + i, i)
                for i in range(n):
                    sink.i("RD_MAC", 1 << c, tu + i, half + i)
                q = -(-n // BANK_GROUPS)
                for g in range(BANK_GROUPS):
                    seg = min(q, n - g * q)
                    if seg <= 0:
                        break
                    sink.i("WR_SBK", c, seg, BANK_GROUPS * g, ew_row, 0,
                           tg + g * q)
                    sink.i("WR_SBK", c, seg, BANK_GROUPS * g + 1, ew_row, 0,
                           tu + g * q)
                sink.i("EW_MUL", 1 << c, q, ew_row, 0)
                for g in range(BANK_GROUPS):
                    seg = min(q, n - g * q)
                    if seg <= 0:
                        break
                    sink.i("RD_SBK", c, seg, BANK_GROUPS * g + 2, ew_row, 0,
                           tg + g * q)
                off = phys_off[c] + rnd * half
                for dst in gate.channels:
                    _sbk_run(sink, "WR_SBK", dst, 0, gbase, off, n, tg)


# ---------------------------------------------------------------------------
# whole-token compilation

def _compile_block(layout: Layout, bl: BlockLayout, position: int,
                   sinks: dict) -> None:
    low = BlockLowering(layout, bl, position,
                        {d: sinks[d] for d in bl.tp_group})
    low.before_core()
    low.attention_core()
    low.after_core()


def check_position(model: ModelSpec, token_pos: int) -> None:
    """Raise CompileError unless `token_pos` is in [0, max_context),
    the positions `model`'s KV cache rows hold."""
    if token_pos < 0:
        raise CompileError(f"position {token_pos} is negative")
    if token_pos >= model.max_context:
        raise CompileError(f"position {token_pos} beyond max context "
                           f"{model.max_context}")


def compile_token(model: ModelSpec, plan: MappingPlan, token_pos: int,
                  layout: Optional[Layout] = None) -> list[DeviceTrace]:
    """Lower one full token step to per-device instruction traces, for
    the functional simulator and trace validation.

    Prefill and decode tokens lower alike; only `token_pos` differs.
    Every block is lowered whole, segment after segment, into one
    ListSink per device, on `layout` (built for the default ArchConfig
    when not given). Nothing is cached here: the segment cache in
    `layout.segment_cache` belongs to `block_summaries`, the counting
    path that timing and energy read, and it holds only because
    `BlockLowering.attention_core` is the one segment that reads
    `token_pos`.
    """
    check_position(model, token_pos)
    layout = layout or build_layout(model, plan, ArchConfig())
    arch = layout.arch
    devices = sorted({d for a in plan.block_assignments
                      for d in a.devices})
    sinks = {d: ListSink(d, arch) for d in devices}

    senders = handoffs(layout)
    for bl in layout.blocks:
        src = senders.get((bl.replica, bl.block))
        if src is not None:
            _emit_handoff(layout, src, bl.master, sinks)
        _compile_block(layout, bl, token_pos, sinks)

    traces = []
    for d in devices:
        sinks[d].finish()
        traces.append(DeviceTrace(
            device=d,
            instructions=sinks[d].instructions,
            annotations=sinks[d].annotations,
            summary=sinks[d].summary,
            routines=sinks[d].routines))
    return traces


def handoffs(layout: Layout) -> dict:
    """(replica, block) -> the device that hands the hidden state to
    that block over CXL, for each block whose predecessor in its replica
    runs on another master. A hand-off moves slots_of(d_model) Shared
    Buffer slots, point to point."""
    senders, master = {}, {}             # replica -> last block's master
    for bl in layout.blocks:
        if master.get(bl.replica, bl.master) != bl.master:
            senders[(bl.replica, bl.block)] = master[bl.replica]
        master[bl.replica] = bl.master
    return senders


def _emit_handoff(layout: Layout, src: int, dst: int,
                  sinks: dict) -> None:
    """Hidden-state hand-off from device `src` to device `dst`."""
    n = slots_of(layout.model.d_model)
    h = layout.sb.hidden
    for i in range(n):
        sinks[src].i("SEND_CXL", dst, h + i, h + i)
    for _ in range(n):
        sinks[dst].i("RECV_CXL")


def _structure_key(bl: BlockLayout) -> tuple:
    return (len(bl.tp_group), tuple(map(len, bl.assignment.channels)))


def _segment_key(layout: Layout, bl: BlockLayout) -> tuple:
    """What the position-invariant segments of `bl` are lowered from,
    with each device named by its role (index in `bl.tp_group`): the
    model's dimensions, the arch numbers of the ISA rules (which also
    size the Shared Buffer map and bound the row allocator) and the
    block's whole geometry. No timing, energy or cost field is in it,
    since the lowering reads none. Blocks with equal keys, in any
    layouts, lower these segments to equal sinks role by role."""
    model = layout.model
    role = {d: di for di, d in enumerate(bl.tp_group)}
    return (
        tuple(getattr(model, f.name) for f in dataclasses.fields(model)
              if f.name != "name"),
        isa.rule_numbers(layout.arch),
        role[bl.master],
        tuple((name, tuple((role[d], pl.geometry) for d, pl in by_dev.items()))
              for name, by_dev in bl.placements.items()),
        tuple(map(dataclasses.astuple, bl.kv)),
        bl.norm_channel, bl.rms_input_row, bl.rope_base_row, bl.rope_rows,
        tuple(sorted(bl.score_scratch_row.items())),
        tuple((role[d], row) for d, row in bl.ewmul_row.items()),
        tuple((role[d], row) for d, row in bl.gated_scratch_row.items()))


@dataclass
class BlockClassSummary:
    """Counters for one structurally-identical class of blocks."""
    count: int
    representative: BlockLayout
    device_summaries: dict       # role index within tp_group -> summary


def layout_mismatch(layout: Layout, model: ModelSpec, plan: MappingPlan,
                    arch: ArchConfig) -> Optional[str]:
    """Why `layout` was not built for `model`, `plan` and `arch`, or
    None if it was."""
    for kind, built, given in (("model", layout.model, model),
                               ("plan", layout.plan, plan),
                               ("arch", layout.arch, arch)):
        if built is not given and built != given:
            fields = [f.name for f in dataclasses.fields(given)
                      if getattr(built, f.name) != getattr(given, f.name)]
            return (f"layout was built for another {kind} (differs in "
                    f"{', '.join(fields)})")
    return None


def block_summaries(model: ModelSpec, plan: MappingPlan, arch: ArchConfig,
                    token_pos: int, layout: Optional[Layout] = None
                    ) -> list[BlockClassSummary]:
    """One compiled summary per structure class of blocks; the timing
    model multiplies per-block latency by the class count.

    Each class is counted on its first block. Only
    `BlockLowering.attention_core` reads the position, so the segments
    before and after it lower to the same instructions at every
    position. They are kept as unfinished CountSinks by tp role in
    `layout.segment_cache`, under the block's `_segment_key`, which is
    computed once per layout and class: layouts that share the cache
    (the rows of one sweep) lower each block geometry once. A `layout`
    built for another model, plan or arch raises CompileError. Each
    call lowers only the core at `token_pos` and composes the three
    segments with `CountSink.append`, which gives exactly the summary
    of lowering the whole block into one CountSink.
    Inside each segment, the pieces that several devices of a
    tensor-parallel group run alike are lowered once and appended to
    each of them (see `BlockLowering`). The returned summaries are new
    objects that the caller may change.
    """
    check_position(model, token_pos)
    if layout is None:
        layout = build_layout(model, plan, arch)
    else:
        mismatch = layout_mismatch(layout, model, plan, arch)
        if mismatch:
            raise CompileError(mismatch)
    classes: dict = {}
    order = []
    for bl in layout.blocks:
        key = _structure_key(bl)
        if key not in classes:
            classes[key] = [0, bl]
            order.append(key)
        classes[key][0] += 1
    out = []
    for key in order:
        count, rep = classes[key]
        invariant = layout.invariant_segments.get(key)
        if invariant is None:
            cache, seg_key = layout.segment_cache, _segment_key(layout, rep)
            invariant = cache.get(seg_key)
            if invariant is None:
                invariant = cache[seg_key] = (
                    _count_segment(layout, rep, token_pos, arch,
                                   BlockLowering.before_core),
                    _count_segment(layout, rep, token_pos, arch,
                                   BlockLowering.after_core))
            layout.invariant_segments[key] = invariant
        before, after = invariant
        core = _count_segment(layout, rep, token_pos, arch,
                              BlockLowering.attention_core)
        summaries = {}
        for di, dev in enumerate(rep.tp_group):
            sink = CountSink(dev, arch)
            for seg in (before, core, after):
                sink.append(seg[di])
            summaries[di] = sink.finish()
        out.append(BlockClassSummary(count, rep, summaries))
    return out


def _count_segment(layout: Layout, bl: BlockLayout, position: int,
                   arch: ArchConfig, segment) -> tuple:
    """Unfinished CountSinks holding one block segment (a BlockLowering
    method) at `position`, one per device of `bl`'s group in role
    order."""
    sinks = {d: CountSink(d, arch) for d in bl.tp_group}
    segment(BlockLowering(layout, bl, position, sinks))
    return tuple(sinks.values())

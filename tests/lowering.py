"""Lower a single operator into ListSinks, for the tests of one GEMV or
one BlockLowering method, and the GEMV passes written channel by
channel, the reference for the channel-class lowering."""

from cxlpim.compiler import (SILU, BlockLowering, DeviceTrace, ListSink,
                             _sbk_run)
from cxlpim.config import BANK_GROUPS, REGS, ROW_SLOTS, ArchConfig


def lower(emit, layout=None, block=0, position=0) -> DeviceTrace:
    """Run `emit` into fresh ListSinks and return one device's finished
    trace.

    Without a `layout`, `emit(sink)` gets one ListSink on device 0 of
    the default ArchConfig, for `emit_gemv`. With one, `emit(low)` gets
    a BlockLowering of `layout.blocks[block]` at `position` with a
    ListSink per device of the block's group, and the trace is the
    group master's.
    """
    if layout is None:
        arch, devices, master = ArchConfig(), (0,), 0
    else:
        bl = layout.blocks[block]
        arch, devices, master = layout.arch, bl.tp_group, bl.master
    sinks = {d: ListSink(d, arch) for d in devices}
    emit(sinks[0] if layout is None
         else BlockLowering(layout, bl, position, sinks))
    sink = sinks[master]
    return DeviceTrace(device=master, instructions=sink.instructions,
                       annotations=sink.annotations, summary=sink.finish(),
                       routines=sink.routines)


def plain_emit_gemv(sink, jobs, vec_src, sb_zero) -> None:
    """`compiler.emit_gemv` written channel by channel: every channel's
    WR_BIAS/MAC_ABK run is emitted by itself, with no channel classes.
    The reference the class lowering must reproduce."""
    pl0 = jobs[0].placement
    channels, tiles = pl0.channels, pl0.tiles
    per_ch = {c: [] for c in channels}
    for job in jobs:
        for j in range(job.placement.n_groups):
            ch, _ = job.placement.group_channel(j)
            per_ch[ch].append((job, j))
    n_batches = max(-(-len(v) // REGS) for v in per_ch.values() if v)
    for b in range(n_batches):
        batch = {c: per_ch[c][b * REGS:(b + 1) * REGS] for c in channels}
        live = [c for c in channels if batch[c]]
        mask = sum(1 << c for c in live)
        for t, s in enumerate(tiles):
            if vec_src[0] == "SB":
                reps = max(job.placement.loc(j, t)[1] // s
                           for c in live for job, j in batch[c]) + 1
                for r in range(reps):
                    sink.i("WR_GB", mask, s, r * s,
                           vec_src[1] + t * ROW_SLOTS)
            else:
                sink.i("COPY_BKGB", mask, s, vec_src[1] + t, 0)
            for c in live:
                for idx, (job, j) in enumerate(batch[c]):
                    row, co, _ = job.placement.loc(j, t)
                    if t == 0:
                        sink.i("WR_BIAS", 1 << c, sb_zero)
                    sink.i("MAC_ABK", 1 << c, s, row, co, idx)
        for c in live:
            for idx, (job, j) in enumerate(batch[c]):
                sink.i("RD_MAC", 1 << c, job.out_base + j, idx)


def plain_lower_gate_up(self, sink, gate, up, ew_row, gbase) -> None:
    """`BlockLowering._lower_gate_up` written channel by channel, as
    `plain_emit_gemv` is; it takes the method's arguments."""
    sb = self.sb
    half = REGS // 2
    tg, tu = sb.tmp + 16, sb.tmp + 16 + half
    per_ch = {c: list(zip(gate.channel_groups(c), up.channel_groups(c)))
              for c in gate.channels}
    phys_off, acc = {}, 0
    for c in gate.channels:
        phys_off[c] = acc
        acc += len(per_ch[c])
    n_rounds = max(-(-len(v) // half) for v in per_ch.values() if v)
    for rnd in range(n_rounds):
        batch = {c: per_ch[c][rnd * half:(rnd + 1) * half]
                 for c in gate.channels}
        live = [c for c in gate.channels if batch[c]]
        mask = sum(1 << c for c in live)
        for t, s in enumerate(gate.tiles):
            reps = 1 + max(max(gate.loc(gj, t)[1], up.loc(uj, t)[1]) // s
                           for c in live for gj, uj in batch[c])
            for r in range(reps):
                sink.i("WR_GB", mask, s, r * s, sb.rms + t * ROW_SLOTS)
            for c in live:
                for i, (gj, uj) in enumerate(batch[c]):
                    grow, gco, _ = gate.loc(gj, t)
                    urow, uco, _ = up.loc(uj, t)
                    if t == 0:
                        sink.i("WR_BIAS", 1 << c, sb.zero)
                    sink.i("MAC_ABK", 1 << c, s, grow, gco, i)
                    if t == 0:
                        sink.i("WR_BIAS", 1 << c, sb.zero)
                    sink.i("MAC_ABK", 1 << c, s, urow, uco, half + i)
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

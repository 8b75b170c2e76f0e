"""Timing model for the PIM fleet.

One rule prices every DRAM channel (`channel_busy_ns`), one table
prices every RISC-V routine (`isa.RV_ROUTINES`), one model prices
every CXL transfer (`cxl_transfer_time`), and `simulate_system`
composes them: it takes compiled activity summaries, one per structure
class of blocks, and yields per-token and per-query latencies,
steady-state throughput and the activity counts the energy model reads.
The CXL traffic it prices is what the compiled trace sends: each
class's recorded collectives (`TraceSummary.collectives`) and the
hidden-state hand-offs between masters (`compiler.handoffs`).

The DRAM rule reads a channel's bracket histogram, which the compiler's
sinks count from the instructions they emit: each run of bank-row
instructions in one DRAM row is one activate -> columns -> precharge
bracket (`bracket_ns`). Global Buffer loads (tCCDS each) and
accumulator drains (tCL each) are serialized with the brackets, not
overlapped with them.
"""

import json
from collections import Counter
from dataclasses import dataclass, field

from . import compiler
from .compiler import ChannelStats, TraceSummary
from .config import (BANKS, LANE, WORD_B, ArchConfig, CxlParams, ModelSpec,
                     TimingParams, write_output)
from .isa import RV_ROUTINES
from .mapper import MappingPlan


class TimingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# DRAM channel timing

def bracket_ns(n_cols: int, t: TimingParams) -> float:
    """Activate -> n column commands -> precharge, including recovery:
    the precharge waits for tRAS after the activate."""
    return (t.tRCDRD_ns + max(n_cols * t.tCCDS_ns,
                              t.tRAS_ns - t.tRCDRD_ns) + t.tRP_ns)


def channel_busy_ns(st: ChannelStats, t: TimingParams) -> float:
    """Bank-array busy time of one channel: one `bracket_ns` per DRAM-row
    run in its bracket histogram, plus one tCCDS per Global Buffer load
    and one tCL per accumulator drain, all serialized; refresh, when
    enabled, stretches the total by tRFC / tREFI."""
    ns = st.wr_gb * t.tCCDS_ns + st.rd_mac * t.tCL_ns
    # in key order: the histogram's insertion order depends on how its
    # trace segments were composed, and float sums on their order
    for n_cols, count in sorted(st.bracket_hist.items()):
        ns += count * bracket_ns(n_cols, t)
    if t.refresh_enabled:
        ns *= 1.0 + t.tRFC_ns / t.tREFI_ns
    return ns


# ---------------------------------------------------------------------------
# CXL transfer model

def cxl_transfer_time(payload_B: float, kind: str, fanout: int,
                      c: CxlParams) -> float:
    """Analytic switch-fabric transfer time in ns.

    P2P streams one copy at full effective bandwidth.  Broadcast and
    multicast pay doubled base latency and half bandwidth for the
    switch-replicated flit stream.  Gather serializes fanout payloads
    on the receiver link.
    """
    bw = c.effective_bandwidth_Bps
    if bw <= 0:
        raise TimingError("effective CXL bandwidth must be positive")
    per_ns = bw / 1e9
    if kind == "P2P":
        return c.base_latency_ns + payload_B / per_ns
    if kind == "MULTICAST":
        return (c.multicast_latency_factor * c.base_latency_ns
                + payload_B / (c.multicast_bandwidth_factor * per_ns))
    if kind == "GATHER":
        return c.base_latency_ns + fanout * payload_B / per_ns
    raise TimingError(f"unknown CXL transfer kind {kind!r}")


# ---------------------------------------------------------------------------
# compiled-summary timing

_PNM_OPS = ("EXP", "RED", "ACC")


def device_times(summary: TraceSummary, t: TimingParams,
                 pnm_clock_Hz: float = 2e9) -> dict:
    """Per-device serial time components of one compiled trace."""
    pim = max((channel_busy_ns(st, t) for st in summary.channels.values()),
              default=0.0)
    cycle = 1e9 / pnm_clock_Hz
    pnm = 0.0
    for op in _PNM_OPS:
        insts = summary.instructions.get(op, 0)
        if insts:
            pnm += (insts * t.pnm_fill_cycles
                    + summary.microops.get(op, 0)) * cycle
    for kind, slots in summary.riscv_slots.items():
        pnm += slots * RV_ROUTINES[kind] * cycle
    dispatch = summary.total_instructions * t.dispatch_ns
    return {"pim": pim, "pnm": pnm, "dispatch": dispatch}


def _merge_counts(dst: Counter, summary: TraceSummary) -> None:
    """Fold one device trace into DRAM-command-level activity counts."""
    mo = summary.microops
    brackets = 0
    for st in summary.channels.values():
        brackets += sum(st.bracket_hist.values())
        dst["WR"] += st.wr_gb
        dst["RD"] += st.rd_mac
    dst["ACTab"] += brackets
    dst["PREab"] += brackets
    dst["MACab"] += mo.get("MAC_ABK", 0)
    dst["EWMULab"] += mo.get("EW_MUL", 0)
    dst["AFab"] += mo.get("AF", 0)
    dst["RD"] += mo.get("RD_SBK", 0) + mo.get("COPY_BKGB", 0)
    dst["WR"] += (mo.get("WR_SBK", 0) + mo.get("WR_ABK", 0)
                  + mo.get("COPY_GBBK", 0) + mo.get("WR_GB", 0))
    dst["PNM"] += summary.pnm_microops
    dst["CXL_B"] += summary.cxl_sent_B


# ---------------------------------------------------------------------------
# system simulation

@dataclass
class SimReport:
    strategy: str
    n_active_devices: int
    dp_replicas: int
    batch_size: int
    prefill_tokens: int
    decode_tokens: int
    seq_gap: int
    token_latency_ns: float       # one full forward pass, last decode position
    token_step_ns: float          # steady-state pipeline step, decode average
    prefill_ns: float             # per query
    decode_ns: float              # per query
    tokens_per_s: float
    breakdown_ns: dict[str, float]    # {"pim","pnm","dispatch","cxl"}/token
    command_counts: dict[str, float]  # fleet totals per step (decode avg)
    flops_per_token: float
    mac_microops_per_token: float
    channel_utilization: dict[str, dict[str, float]]  # {dev: {ch: busy}}

    def to_dict(self) -> dict:
        # shallow: asdict's deep copy of the per-channel table would double
        # the cost of saving a 70B report
        return dict(vars(self))

    def save(self, path) -> None:
        """Write `json.dumps(self.to_dict(), indent=1, sort_keys=True)`
        and a newline. The same bytes are built field by field, so that
        the per-channel table, most of a 70B report, goes through the C
        encoder (which `indent` turns off) once per distinct device
        table, with separators that lay its entries out as `indent`
        would."""
        fields = []
        for name, value in sorted(self.to_dict().items()):
            text = (_device_tables_json(value)
                    if name == "channel_utilization" else
                    json.dumps(value, indent=1, sort_keys=True
                               ).replace("\n", "\n "))
            fields.append(f" {json.dumps(name)}: {text}")
        write_output(path, "{\n" + ",\n".join(fields) + "\n}\n")


def _device_tables_json(tables: dict) -> str:
    """{device: {channel: utilization}} as `json.dumps(indent=1,
    sort_keys=True)` lays it out as the value of a top-level field.
    Equal tables share one text: utilizations are busy times over the
    step time, floats that are never -0.0, and equal floats other than
    0.0 and -0.0 print alike."""
    if not tables:
        return "{}"
    encoded: list = []               # (table, its text), distinct tables
    entries = []
    for dev in sorted(tables):
        table = tables[dev]
        for seen, text in encoded:
            if seen == table:
                break
        else:
            body = json.dumps(table, sort_keys=True,
                              separators=(",\n   ", ": "))[1:-1]
            text = f"{{\n   {body}\n  }}" if table else "{}"
            encoded.append((table, text))
        entries.append(f"{json.dumps(dev)}: {text}")
    return "{\n  " + ",\n  ".join(entries) + "\n }"


@dataclass
class _TokenProfile:
    token_ns: float = 0.0
    step_ns: float = 0.0          # max stage latency (pipeline bottleneck)
    pim: float = 0.0
    pnm: float = 0.0
    dispatch: float = 0.0
    cxl: float = 0.0
    counts: Counter = field(default_factory=Counter)
    classes: dict = field(default_factory=dict)   # structure key -> class


def _token_profile(layout, plan: MappingPlan, arch: ArchConfig,
                   pos: int) -> _TokenProfile:
    """Latency and activity of one forward pass at token position `pos`.

    Composed per structure class: each role's device times, activity
    counts and CXL collectives are taken once per class. Latency walks
    replica 0's blocks in order, adding each block's class times, so the
    float sums are those of a per-block walk; replicas are identical by
    construction. A hidden-state hand-off is added before the block that
    receives it and charged to the sending master's stage. Activity
    counts cover every replica: they are integers, so each class's
    counts are multiplied by its block count."""
    t = arch.timing
    classes = compiler.block_summaries(layout.model, plan, arch, pos, layout)
    by_key = {compiler._structure_key(c.representative): c for c in classes}
    prof = _TokenProfile(classes=by_key)
    class_times = {}
    for key, cls in by_key.items():
        times = [device_times(s, t, arch.pnm_clock_Hz)
                 for s in cls.device_summaries.values()]
        worst = max(times, key=lambda d: d["pim"] + d["pnm"] + d["dispatch"])
        counts = Counter()
        collectives = Counter()
        for s in cls.device_summaries.values():
            _merge_counts(counts, s)
            collectives.update(s.collectives)
        for k, v in counts.items():
            prof.counts[k] += v * cls.count
        cxl = 0.0
        # in key order, as channel_busy_ns sums its histogram
        for (kind, fan_in, sender_B), n in sorted(collectives.items()):
            cxl += n * cxl_transfer_time(sender_B, kind, fan_in, arch.cxl)
        class_times[key] = (worst, worst["pim"] + worst["pnm"]
                            + worst["dispatch"], cxl)

    senders = compiler.handoffs(layout)
    handoff_B = compiler.slots_of(layout.model.d_model) * WORD_B
    stage_ns: dict = {}
    for bl in layout.blocks:
        if bl.replica == 0:
            src = senders.get((0, bl.block))
            if src is not None:
                hop = cxl_transfer_time(handoff_B, "P2P", 1, arch.cxl)
                stage_ns[src] = stage_ns.get(src, 0.0) + hop
                prof.cxl += hop
                prof.token_ns += hop
            worst, compute, cxl = class_times[compiler._structure_key(bl)]
            prof.token_ns += compute + cxl
            prof.pim += worst["pim"]
            prof.pnm += worst["pnm"]
            prof.dispatch += worst["dispatch"]
            prof.cxl += cxl
            stage_ns[bl.master] = stage_ns.get(bl.master, 0.0) + compute + cxl
    # hand-offs of every replica
    prof.counts["CXL_B"] += len(senders) * handoff_B

    prof.step_ns = max(stage_ns.values(), default=prof.token_ns)
    return prof


def _channel_busy(layout, classes: dict, t: TimingParams) -> dict:
    """Busy ns of every channel of replica 0's devices over one forward
    pass: device -> {channel: ns}. Each (class, role, channel) is timed
    once, and the values are added per block in block order."""
    role_busy = {
        key: [{ch: channel_busy_ns(st, t) for ch, st in s.channels.items()}
              for s in cls.device_summaries.values()]
        for key, cls in classes.items()}
    busy: dict = {}
    for bl in layout.blocks:
        if bl.replica != 0:
            continue
        key = compiler._structure_key(bl)
        rep = classes[key].representative
        for di, dev in enumerate(bl.tp_group):
            chan_map = dict(zip(rep.assignment.channels[di],
                                bl.assignment.channels[di]))
            dbusy = busy.setdefault(dev, {})
            for ch_rep, ns in role_busy[key][di].items():
                ch = chan_map.get(ch_rep, ch_rep)
                dbusy[ch] = dbusy.get(ch, 0.0) + ns
    return busy


def _sample_positions(start: int, n: int, gap: int) -> list:
    """(position, weight) pairs covering [start, start+n) at stride gap."""
    out = []
    p = start
    while p < start + n:
        w = min(gap, start + n - p)
        out.append((p, w))
        p += gap
    return out


def simulate_system(model: ModelSpec, plan: MappingPlan, arch: ArchConfig,
                    prefill_tokens: int, decode_tokens: int,
                    seq_gap: int = 1, layout=None) -> SimReport:
    """Per-token latency, steady-state throughput, and fleet activity for
    one compiled mapping over a prefill + decode schedule.

    Pipeline-parallel plans complete one token per bottleneck-stage
    period in steady state; tensor-parallel plans serialize the whole
    pass per token.  Data-parallel replicas multiply throughput.

    Each sampled position is composed per structure class (see
    `_token_profile`). Channel utilization is that of the last decode
    position, so only that position walks every channel of every block.
    A `layout` built for another model, plan or arch raises TimingError.
    """
    if prefill_tokens < 0 or decode_tokens <= 0 or seq_gap <= 0:
        raise TimingError("need prefill >= 0, decode > 0, seq_gap > 0")
    if prefill_tokens + decode_tokens > plan.context:
        raise TimingError(
            f"{prefill_tokens}+{decode_tokens} tokens exceed plan context "
            f"{plan.context}")
    if layout is None:
        layout = compiler.build_layout(model, plan, arch)
    else:
        mismatch = compiler.layout_mismatch(layout, model, plan, arch)
        if mismatch:
            raise TimingError(mismatch)

    prefill_ns = 0.0
    for pos, w in _sample_positions(0, prefill_tokens, seq_gap):
        prefill_ns += w * _token_profile(layout, plan, arch, pos).token_ns

    decode_ns = 0.0
    step_total = 0.0
    counts = Counter()
    agg = Counter()
    last = None
    for pos, w in _sample_positions(prefill_tokens, decode_tokens, seq_gap):
        last = _token_profile(layout, plan, arch, pos)
        decode_ns += w * last.token_ns
        step_total += w * last.step_ns
        for k, v in last.counts.items():
            counts[k] += w * v
        for k in ("pim", "pnm", "dispatch", "cxl"):
            agg[k] += w * getattr(last, k)

    n = decode_tokens
    step_ns = step_total / n
    busy = _channel_busy(layout, last.classes, arch.timing)
    report = SimReport(
        strategy=plan.strategy,
        n_active_devices=len(plan.active_devices),
        dp_replicas=plan.dp_replicas,
        batch_size=plan.batch_size,
        prefill_tokens=prefill_tokens,
        decode_tokens=decode_tokens,
        seq_gap=seq_gap,
        token_latency_ns=last.token_ns,
        token_step_ns=step_ns,
        prefill_ns=prefill_ns,
        decode_ns=decode_ns,
        tokens_per_s=plan.dp_replicas * 1e9 / step_ns,
        breakdown_ns={k: agg[k] / n for k in
                      ("pim", "pnm", "dispatch", "cxl")},
        command_counts={k: counts[k] / n for k in counts},
        flops_per_token=((counts["MACab"] / n / plan.dp_replicas)
                         * LANE * 2 * BANKS),
        mac_microops_per_token=counts["MACab"] / n / plan.dp_replicas,
        channel_utilization={
            str(dev): {str(ch): b / last.step_ns
                       for ch, b in sorted(chs.items())}
            for dev, chs in sorted(busy.items())},
    )
    return report

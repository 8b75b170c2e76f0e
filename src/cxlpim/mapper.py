"""Block-to-device mapping plans and CXL communication schedules.

Strategies: PP (one pipeline stage per transformer block, blocks packed
onto devices), TP (every block spread across all devices, master device
holds attention/residual/norm), HYBRID (TP groups as pipeline stages),
and PP+DP (replicated pipeline plans for scaled fleets).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

from .config import ArchConfig, ModelSpec, block_footprint


class MappingError(ValueError):
    pass


@dataclass(frozen=True)
class CommEvent:
    kind: str                 # SEND | BROADCAST | MULTICAST | GATHER
    source: int
    dests: tuple[int, ...]
    payload_B: int
    block: int                # block index the event belongs to (dest block for SEND)
    label: str                # e.g. "fc_q:bcast", "boundary"

    def __post_init__(self):
        if self.payload_B <= 0:
            raise MappingError(f"payload must be positive: {self.label}")


@dataclass(frozen=True)
class BlockAssignment:
    block: int
    replica: int
    devices: tuple[int, ...]
    # channel indices used on each device, same order as `devices`
    channels: tuple[tuple[int, ...], ...]
    master: int
    footprint_B: int


@dataclass
class MappingPlan:
    strategy: str             # PP | TP | HYBRID | PP+DP
    model: ModelSpec
    n_devices: int
    tp_degree: int
    pp_stages: int
    dp_replicas: int
    batch_size: int
    context: int
    block_assignments: list[BlockAssignment]
    idle_devices: tuple[int, ...]
    comm_schedule: list[CommEvent]
    blocks_per_device: int = 1
    devices_per_replica: int = 0

    @property
    def active_devices(self) -> tuple[int, ...]:
        used = sorted({d for a in self.block_assignments for d in a.devices})
        return tuple(used)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model"] = asdict(self.model)
        return d

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1,
                                         sort_keys=True) + "\n")


def _split_channels(n_channels: int, n_blocks: int) -> list[tuple[int, ...]]:
    """Half-device channel group per block, alternating halves.

    Every block spans the same channel width no matter how many blocks
    share the device, so per-block latency is independent of the fleet
    size; the device's single dispatcher runs its blocks serially, and
    co-resident blocks on a half stack their rows in the same banks.
    """
    w = max(1, n_channels // 2)
    halves = (tuple(range(w)), tuple(range(w, min(2 * w, n_channels))))
    return [halves[i % 2] or halves[0] for i in range(n_blocks)]


def plan_pipeline(model: ModelSpec, arch: ArchConfig, context: int,
                  n_devices: Optional[int] = None,
                  device_offset: int = 0, replica: int = 0) -> MappingPlan:
    n_devices = n_devices or arch.n_devices
    weights, kv1 = block_footprint(model, context)
    batch = model.n_layers                  # one prompt per pipeline stage
    block_B = weights + batch * kv1         # KV held for the whole batch
    b = math.ceil(model.n_layers / n_devices)
    w = max(1, arch.channels_per_device // 2)
    # the fuller half of the device carries ceil(b/2) stacked blocks
    stacked = (b + 1) // 2
    if stacked * block_B > w * arch.channel_capacity_B:
        raise MappingError(
            f"{stacked} stacked blocks of {block_B} B do not fit in "
            f"{w} channels ({n_devices} devices, {b} blocks/device)")

    devices_used = math.ceil(model.n_layers / b)
    assignments: list[BlockAssignment] = []
    comm: list[CommEvent] = []
    blk = 0
    for d in range(devices_used):
        k = min(b, model.n_layers - d * b)
        ranges = _split_channels(arch.channels_per_device, k)
        for i in range(k):
            dev = device_offset + d
            assignments.append(BlockAssignment(
                block=blk, replica=replica, devices=(dev,),
                channels=(ranges[i],), master=dev, footprint_B=block_B))
            if i == 0 and d > 0:
                comm.append(CommEvent(
                    "SEND", dev - 1, (dev,),
                    model.d_model * model.weight_precision_B, blk, "boundary"))
            blk += 1

    idle = tuple(range(device_offset + devices_used, device_offset + n_devices))
    return MappingPlan(
        strategy="PP", model=model, n_devices=n_devices, tp_degree=1,
        pp_stages=model.n_layers, dp_replicas=1, batch_size=batch,
        context=context, block_assignments=assignments, idle_devices=idle,
        comm_schedule=comm, blocks_per_device=b, devices_per_replica=devices_used)


def _tp_block_events(model: ModelSpec, block: int, master: int,
                     group: tuple[int, ...], kind: str) -> list[CommEvent]:
    """Per-block collective schedule for a TP group.

    Broadcasts feed each distributed FC whose input lives on the master
    (Q, K, V, O, and one shared broadcast for the fused gate/up pair);
    gathers return every result the master consumes (q/k/v for attention,
    o and down outputs for the residual adds). The down FC reads its
    input from the local gate(x)*up(x) slices, so it needs no broadcast.
    """
    if len(group) <= 1:
        return []
    p = model.weight_precision_B
    d_B = model.d_model * p
    kv_B = model.d_head * model.n_kv_heads * p
    others = tuple(dev for dev in group if dev != master)
    ev = []
    for label in ("fc_q", "fc_k", "fc_v", "fc_o", "fc_gateup"):
        ev.append(CommEvent(kind, master, others, d_B, block, f"{label}:bcast"))
    for label, size in (("fc_q", d_B), ("fc_k", kv_B), ("fc_v", kv_B),
                        ("fc_o", d_B), ("fc_down", d_B)):
        ev.append(CommEvent("GATHER", master, others, size, block,
                            f"{label}:gather"))
    return ev


def plan_tensor(model: ModelSpec, arch: ArchConfig, context: int) -> MappingPlan:
    weights, kv1 = block_footprint(model, context)
    group = tuple(range(arch.n_devices))
    block_B = weights + kv1                 # batch of one prompt
    total = model.n_layers * block_B
    if total > arch.n_devices * arch.device_capacity_B:
        raise MappingError("model does not fit the fleet")

    channels = tuple(tuple(range(arch.channels_per_device)) for _ in group)
    assignments = [BlockAssignment(blk, 0, group, channels, 0, block_B)
                   for blk in range(model.n_layers)]
    comm: list[CommEvent] = []
    for blk in range(model.n_layers):
        comm.extend(_tp_block_events(model, blk, 0, group, "BROADCAST"))
    return MappingPlan(
        strategy="TP", model=model, n_devices=arch.n_devices,
        tp_degree=arch.n_devices, pp_stages=1, dp_replicas=1, batch_size=1,
        context=context, block_assignments=assignments, idle_devices=(),
        comm_schedule=comm, blocks_per_device=model.n_layers,
        devices_per_replica=arch.n_devices)


def plan_hybrid(model: ModelSpec, arch: ArchConfig, tp: int, pp: int,
                context: int) -> MappingPlan:
    if tp * pp > arch.n_devices:
        raise MappingError(f"tp*pp = {tp * pp} exceeds {arch.n_devices} devices")
    if model.n_layers % pp != 0:
        raise MappingError(f"{model.n_layers} blocks not divisible by pp={pp}")
    weights, kv1 = block_footprint(model, context)
    batch = pp
    block_B = weights + batch * kv1
    per_stage = model.n_layers // pp

    assignments: list[BlockAssignment] = []
    comm: list[CommEvent] = []
    for s in range(pp):
        group = tuple(range(s * tp, (s + 1) * tp))
        master = group[0]
        if tp == 1:
            # degenerate stage: pipeline-style channel split inside the device
            ranges = _split_channels(arch.channels_per_device, per_stage)
            channels_for = lambda i: (ranges[i],)
        else:
            if per_stage * block_B > tp * arch.device_capacity_B:
                raise MappingError("stage does not fit its device group")
            full = tuple(tuple(range(arch.channels_per_device)) for _ in group)
            channels_for = lambda i: full
        for i in range(per_stage):
            blk = s * per_stage + i
            assignments.append(BlockAssignment(
                blk, 0, group, channels_for(i), master, block_B))
            comm.extend(_tp_block_events(model, blk, master, group, "MULTICAST"))
            if i == 0 and s > 0:
                prev_master = (s - 1) * tp
                comm.append(CommEvent(
                    "SEND", prev_master, (master,),
                    model.d_model * model.weight_precision_B, blk, "boundary"))

    idle = tuple(range(tp * pp, arch.n_devices))
    return MappingPlan(
        strategy="HYBRID", model=model, n_devices=arch.n_devices,
        tp_degree=tp, pp_stages=pp, dp_replicas=1, batch_size=batch,
        context=context, block_assignments=assignments, idle_devices=idle,
        comm_schedule=comm, blocks_per_device=per_stage,
        devices_per_replica=tp * pp)


def plan_scaled(model: ModelSpec, arch: ArchConfig, n_devices: int,
                context: Optional[int] = None) -> MappingPlan:
    """Pipeline plan with data-parallel replication for scaled fleets.

    Blocks per device never drops below two: past that point extra
    devices are spent on whole-plan replicas, and device counts that buy
    neither a better distribution nor another replica stay idle.
    """
    context = context if context is not None else model.max_context
    b = max(2, math.ceil(model.n_layers / n_devices))
    per_replica = math.ceil(model.n_layers / b)
    dp = max(1, n_devices // per_replica)

    assignments: list[BlockAssignment] = []
    comm: list[CommEvent] = []
    for r in range(dp):
        sub = plan_pipeline(model, arch, context, n_devices=per_replica,
                            device_offset=r * per_replica, replica=r)
        assignments.extend(sub.block_assignments)
        comm.extend(sub.comm_schedule)
    idle = tuple(range(dp * per_replica, n_devices))
    return MappingPlan(
        strategy="PP+DP" if dp > 1 else "PP", model=model,
        n_devices=n_devices, tp_degree=1, pp_stages=model.n_layers,
        dp_replicas=dp, batch_size=model.n_layers, context=context,
        block_assignments=assignments, idle_devices=idle,
        comm_schedule=comm, blocks_per_device=b, devices_per_replica=per_replica)


@dataclass(frozen=True)
class CommVolume:
    per_token_B: int
    per_block_B: float        # average over blocks of one replica


def comm_volume(plan: MappingPlan, model: ModelSpec) -> CommVolume:
    total = sum(ev.payload_B for ev in plan.comm_schedule)
    n_blocks = model.n_layers * plan.dp_replicas
    return CommVolume(per_token_B=total,
                      per_block_B=total / n_blocks if n_blocks else 0.0)

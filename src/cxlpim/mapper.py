"""Block-to-device mapping plans.

Strategies: PP (one pipeline stage per transformer block, blocks packed
onto devices), TP (every block spread across all devices, master device
holds attention/residual/norm), HYBRID (TP groups as pipeline stages),
and PP+DP (replicated pipeline plans for scaled fleets).

A plan says which devices and channels hold each block, and nothing
about CXL traffic: the compiler emits the collectives and hidden-state
hand-offs a plan implies, and the timing and energy models price what
the compiled trace sends. `comm_volume` is a plan-level summary figure.
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
    blk = 0
    for d in range(devices_used):
        k = min(b, model.n_layers - d * b)
        ranges = _split_channels(arch.channels_per_device, k)
        for i in range(k):
            dev = device_offset + d
            assignments.append(BlockAssignment(
                block=blk, replica=replica, devices=(dev,),
                channels=(ranges[i],), master=dev, footprint_B=block_B))
            blk += 1

    idle = tuple(range(device_offset + devices_used, device_offset + n_devices))
    return MappingPlan(
        strategy="PP", model=model, n_devices=n_devices, tp_degree=1,
        pp_stages=model.n_layers, dp_replicas=1, batch_size=batch,
        context=context, block_assignments=assignments, idle_devices=idle,
        blocks_per_device=b, devices_per_replica=devices_used)


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
    return MappingPlan(
        strategy="TP", model=model, n_devices=arch.n_devices,
        tp_degree=arch.n_devices, pp_stages=1, dp_replicas=1, batch_size=1,
        context=context, block_assignments=assignments, idle_devices=(),
        blocks_per_device=model.n_layers,
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

    idle = tuple(range(tp * pp, arch.n_devices))
    return MappingPlan(
        strategy="HYBRID", model=model, n_devices=arch.n_devices,
        tp_degree=tp, pp_stages=pp, dp_replicas=1, batch_size=batch,
        context=context, block_assignments=assignments, idle_devices=idle,
        blocks_per_device=per_stage,
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
    for r in range(dp):
        sub = plan_pipeline(model, arch, context, n_devices=per_replica,
                            device_offset=r * per_replica, replica=r)
        assignments.extend(sub.block_assignments)
    idle = tuple(range(dp * per_replica, n_devices))
    return MappingPlan(
        strategy="PP+DP" if dp > 1 else "PP", model=model,
        n_devices=n_devices, tp_degree=1, pp_stages=model.n_layers,
        dp_replicas=dp, batch_size=model.n_layers, context=context,
        block_assignments=assignments, idle_devices=idle,
        blocks_per_device=b, devices_per_replica=per_replica)


@dataclass(frozen=True)
class CommVolume:
    per_token_B: int
    per_block_B: float        # average over blocks of one replica


def comm_volume(plan: MappingPlan, model: ModelSpec) -> CommVolume:
    """Activation bytes a token moves over CXL, counted per vector: in a
    tensor-parallel block, the broadcast inputs of Q, K, V, O and the
    fused gate/up pair and the gathered Q, K, V, O and down outputs, each
    once; between consecutive blocks of a replica on different masters,
    one hidden vector. Timing and energy read the compiled trace, which
    moves only each sender's share of a gathered vector."""
    d_B = model.d_model * model.weight_precision_B
    kv_B = model.d_head * model.n_kv_heads * model.weight_precision_B
    tp_block_B = 5 * d_B + 3 * d_B + 2 * kv_B     # broadcasts + gathers
    total = 0
    master: dict = {}                       # replica -> last block's master
    for a in plan.block_assignments:
        if len(a.devices) > 1:
            total += tp_block_B
        if master.get(a.replica, a.master) != a.master:
            total += d_B
        master[a.replica] = a.master
    n_blocks = model.n_layers * plan.dp_replicas
    return CommVolume(per_token_B=total,
                      per_block_B=total / n_blocks if n_blocks else 0.0)

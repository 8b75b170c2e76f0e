"""Block-to-device mapping plans.

Every plan is `dp` replicas of a chain of stages, laid out by one rule
(`_stages`): a stage is `tp` consecutive devices holding consecutive
blocks, its first device the master, and one capacity check covers
every plan. The four strategies are entry points that only choose the
grid: PP (one-device stages, blocks packed onto as few devices as the
fleet allows, one pipeline stage per block), TP (one stage over the
whole fleet; the master holds attention, residual and norm), HYBRID
(`pp` stages of `tp` devices) and PP+DP (replicated pipelines for
scaled fleets).

A plan says which devices and channels hold each block, and nothing
about CXL traffic: the compiler emits the collectives and hidden-state
hand-offs a plan implies, and the timing and energy models price what
the compiled trace sends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Optional

from .config import ArchConfig, ModelSpec, block_footprint, write_output


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
    idle_devices: tuple[int, ...]     # the last devices, past the replicas
    blocks_per_device: int = 1
    devices_per_replica: int = 0

    @property
    def active_devices(self) -> tuple[int, ...]:
        used = sorted({d for a in self.block_assignments for d in a.devices})
        return tuple(used)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_output(path, json.dumps(self.to_dict(), indent=1,
                                      sort_keys=True) + "\n")


def _stages(strategy: str, model: ModelSpec, arch: ArchConfig, context: int,
            n_devices: int, tp: int, per_stage: int, batch: int,
            pp_stages: int, dp: int = 1) -> MappingPlan:
    """The one plan layout: `dp` replicas of a chain of stages.

    A stage is `tp` consecutive devices, the first one its master, and
    holds `per_stage` consecutive blocks (the last stage may hold
    fewer). A one-device stage gives its blocks alternating half-device
    channel groups; a wider stage gives every block every channel of
    every device. Each block holds its weights and the KV cache of the
    whole batch. Devices past the replicas are idle.
    """
    weights, kv1 = block_footprint(model, context)
    block_B = weights + batch * kv1
    # Every block of a one-device stage spans a half-device channel group,
    # whatever the number of blocks, so per-block latency is independent
    # of the fleet size. The device's dispatcher runs its blocks serially,
    # and consecutive blocks alternate halves: co-resident blocks on a
    # half stack their rows in the same banks.
    w = max(1, arch.channels_per_device // 2)
    halves = (tuple(range(w)),
              tuple(range(w, min(2 * w, arch.channels_per_device)))
              or tuple(range(w)))
    if tp == 1:
        # the fuller half of the device carries ceil(per_stage/2) blocks
        stacked = (per_stage + 1) // 2
        if stacked * block_B > w * arch.channel_capacity_B:
            raise MappingError(
                f"{stacked} stacked blocks of {block_B} B do not fit in "
                f"{w} channels ({n_devices} devices, {per_stage} "
                f"blocks/device)")
    elif per_stage * block_B > tp * arch.device_capacity_B:
        raise MappingError(
            f"a stage of {per_stage} blocks of {block_B} B does not fit "
            f"its {tp}-device group")

    n_stages = math.ceil(model.n_layers / per_stage)
    per_replica = n_stages * tp
    full = (tuple(range(arch.channels_per_device)),) * tp
    assignments: list[BlockAssignment] = []
    for r in range(dp):
        for s in range(n_stages):
            first = r * per_replica + s * tp
            group = tuple(range(first, first + tp))
            for i in range(min(per_stage, model.n_layers - s * per_stage)):
                assignments.append(BlockAssignment(
                    block=s * per_stage + i, replica=r, devices=group,
                    channels=(halves[i % 2],) if tp == 1 else full,
                    master=first, footprint_B=block_B))
    return MappingPlan(
        strategy=strategy, model=model, n_devices=n_devices, tp_degree=tp,
        pp_stages=pp_stages, dp_replicas=dp, batch_size=batch,
        context=context, block_assignments=assignments,
        idle_devices=tuple(range(dp * per_replica, n_devices)),
        blocks_per_device=per_stage, devices_per_replica=per_replica)


def plan_pipeline(model: ModelSpec, arch: ArchConfig, context: int,
                  n_devices: Optional[int] = None) -> MappingPlan:
    """One block per pipeline stage, blocks packed onto the fewest
    devices that `n_devices` allows; a batch of one prompt per block."""
    n_devices = n_devices or arch.n_devices
    return _stages("PP", model, arch, context, n_devices, tp=1,
                   per_stage=math.ceil(model.n_layers / n_devices),
                   batch=model.n_layers, pp_stages=model.n_layers)


def plan_tensor(model: ModelSpec, arch: ArchConfig, context: int) -> MappingPlan:
    """Every block spread over the whole fleet; a batch of one prompt."""
    return _stages("TP", model, arch, context, arch.n_devices,
                   tp=arch.n_devices, per_stage=model.n_layers, batch=1,
                   pp_stages=1)


def plan_hybrid(model: ModelSpec, arch: ArchConfig, tp: int, pp: int,
                context: int) -> MappingPlan:
    """`pp` pipeline stages of `tp` devices each; one prompt per stage."""
    for name, value in (("tp", tp), ("pp", pp)):
        if value < 1:
            raise MappingError(f"{name} must be positive, got {value}")
    if tp * pp > arch.n_devices:
        raise MappingError(f"tp*pp = {tp * pp} exceeds {arch.n_devices} devices")
    if model.n_layers % pp != 0:
        raise MappingError(f"{model.n_layers} blocks not divisible by pp={pp}")
    return _stages("HYBRID", model, arch, context, arch.n_devices, tp=tp,
                   per_stage=model.n_layers // pp, batch=pp, pp_stages=pp)


def plan_scaled(model: ModelSpec, arch: ArchConfig, n_devices: int,
                context: Optional[int] = None) -> MappingPlan:
    """Pipeline plan with data-parallel replication for scaled fleets.

    Blocks per device never drops below two: past that point extra
    devices are spent on whole-plan replicas, and device counts that buy
    neither a better distribution nor another replica stay idle.
    """
    context = context if context is not None else model.max_context
    b = max(2, math.ceil(model.n_layers / n_devices))
    dp = max(1, n_devices // math.ceil(model.n_layers / b))
    return _stages("PP+DP" if dp > 1 else "PP", model, arch, context,
                   n_devices, tp=1, per_stage=b, batch=model.n_layers,
                   pp_stages=model.n_layers, dp=dp)

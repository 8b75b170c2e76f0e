import dataclasses
from collections import Counter

import pytest

from cxlpim import compiler
from cxlpim.config import ArchConfig, ModelSpec, block_footprint
from cxlpim.mapper import (
    MappingError, plan_hybrid, plan_pipeline, plan_scaled,
    plan_tensor,
)

ARCH = ArchConfig()

LLAMA_70B = ModelSpec(name="llama2-70b", n_layers=80, d_model=8192,
                      n_heads=64, n_kv_heads=8, d_head=128, d_ff=28672)
LLAMA_13B = ModelSpec(name="llama2-13b", n_layers=40, d_model=5120,
                      n_heads=40, n_kv_heads=40, d_head=128, d_ff=13824)
LLAMA_7B = ModelSpec(name="llama2-7b", n_layers=32, d_model=4096,
                     n_heads=32, n_kv_heads=32, d_head=128, d_ff=11008)


def blocks_per_device(plan):
    return Counter(a.devices[0] for a in plan.block_assignments)


def handoffs(model, plan):
    """(sender, receiver) devices of the hidden-state hand-offs that the
    compiled trace sends and timing prices, in block order."""
    layout = compiler.build_layout(model, plan, ARCH)
    masters = {(bl.replica, bl.block): bl.master for bl in layout.blocks}
    return [(src, masters[blk])
            for blk, src in sorted(compiler.handoffs(layout).items())]


def collective_kinds(model, plan):
    """Count of each kind of CXL collective one token's compiled blocks
    record."""
    kinds = Counter()
    for cls in compiler.block_summaries(model, plan, ARCH, 0):
        for s in cls.device_summaries.values():
            for (kind, _, _), n in s.collectives.items():
                kinds[kind] += n * cls.count
    return kinds


def test_pipeline_70b_32_devices():
    plan = plan_pipeline(LLAMA_70B, ARCH, 4096)
    counts = blocks_per_device(plan)
    assert len(counts) == 27
    assert sorted(counts.values()) == [2] + [3] * 26
    assert plan.idle_devices == tuple(range(27, 32))
    assert plan.batch_size == 80
    assert plan.blocks_per_device == 3


def test_pipeline_channel_split_70b():
    plan = plan_pipeline(LLAMA_70B, ARCH, 4096)
    # every block spans a 16-channel half-device group; consecutive
    # blocks alternate halves so stacked rows stay balanced
    first = [a for a in plan.block_assignments if a.devices == (0,)]
    assert [a.channels[0] for a in first] == [
        tuple(range(16)), tuple(range(16, 32)), tuple(range(16))]


def test_pipeline_batches():
    assert plan_pipeline(LLAMA_7B, ARCH, 4096, n_devices=8).batch_size == 32
    assert plan_pipeline(LLAMA_13B, ARCH, 4096, n_devices=20).batch_size == 40
    p7 = plan_pipeline(LLAMA_7B, ARCH, 4096, n_devices=8)
    assert p7.blocks_per_device == 4
    assert sorted(blocks_per_device(p7).values()) == [4] * 8


def test_pipeline_16_devices_70b():
    # 5 blocks/device: 3 stack on one half, so the full-batch KV cache
    # only fits at reduced context
    plan = plan_pipeline(LLAMA_70B, ARCH, 2048, n_devices=16)
    assert plan.blocks_per_device == 5
    counts = blocks_per_device(plan)
    assert sorted(counts.values()) == [5] * 16
    a = plan.block_assignments[-1]
    assert len(a.channels[0]) == 16
    assert a.footprint_B == 1711276032 + 80 * 8 * 1024 * 1024


def test_pipeline_capacity_error():
    with pytest.raises(MappingError, match="do not fit"):
        plan_pipeline(LLAMA_70B, ARCH, 4096, n_devices=8)
    with pytest.raises(MappingError, match="do not fit"):
        plan_pipeline(LLAMA_70B, ARCH, 4096, n_devices=16)


def test_pipeline_boundary_sends():
    plan = plan_pipeline(LLAMA_70B, ARCH, 4096)
    sends = handoffs(LLAMA_70B, plan)
    assert sends == [(d, d + 1) for d in range(26)]


def test_tensor_comm_volume_70b():
    plan = plan_tensor(LLAMA_70B, ARCH, 4096)
    assert collective_kinds(LLAMA_70B, plan) == {
        "MULTICAST": 5 * 80, "GATHER": 5 * 80}


def test_tensor_assignments_span_fleet():
    plan = plan_tensor(LLAMA_70B, ARCH, 4096)
    assert plan.batch_size == 1
    assert plan.idle_devices == ()
    for a in plan.block_assignments:
        assert a.devices == tuple(range(32))
        assert a.master == 0


def test_hybrid_8x4():
    plan = plan_hybrid(LLAMA_70B, ARCH, tp=8, pp=4, context=4096)
    assert plan.batch_size == 4
    assert plan.blocks_per_device == 20
    stages = {a.devices for a in plan.block_assignments}
    assert stages == {tuple(range(s * 8, s * 8 + 8)) for s in range(4)}
    assert handoffs(LLAMA_70B, plan) == [(0, 8), (8, 16), (16, 24)]
    assert collective_kinds(LLAMA_70B, plan) == {
        "MULTICAST": 5 * 80, "GATHER": 5 * 80}


def test_hybrid_tp1_degenerates_to_pipeline():
    hyb = plan_hybrid(LLAMA_7B, ARCH, tp=1, pp=8, context=4096)
    pp = plan_pipeline(LLAMA_7B, ARCH, 4096, n_devices=8)
    key = lambda p: [(a.block, a.devices, a.channels, a.master)
                     for a in p.block_assignments]
    assert key(hyb) == key(pp)
    assert handoffs(LLAMA_7B, hyb) == handoffs(LLAMA_7B, pp)


def test_hybrid_pp1_degenerates_to_tensor():
    hyb = plan_hybrid(LLAMA_70B, ARCH, tp=32, pp=1, context=4096)
    tp = plan_tensor(LLAMA_70B, ARCH, 4096)
    key = lambda p: [(a.block, a.devices, a.master)
                     for a in p.block_assignments]
    assert key(hyb) == key(tp)
    assert handoffs(LLAMA_70B, hyb) == handoffs(LLAMA_70B, tp) == []


def test_hybrid_indivisible_rejected():
    with pytest.raises(MappingError, match="divisible"):
        plan_hybrid(LLAMA_70B, ARCH, tp=2, pp=3, context=4096)


def test_scaled_44_devices_matches_40():
    p40 = plan_scaled(LLAMA_70B, ARCH, 40)
    p44 = plan_scaled(LLAMA_70B, ARCH, 44)
    assert blocks_per_device(p40) == blocks_per_device(p44)
    assert p44.idle_devices == (40, 41, 42, 43)
    assert p44.dp_replicas == 1
    assert p44.blocks_per_device == 2


def test_scaled_80_devices_replicates():
    plan = plan_scaled(LLAMA_70B, ARCH, 80)
    assert plan.dp_replicas == 2
    assert plan.devices_per_replica == 40
    assert plan.idle_devices == ()
    counts = blocks_per_device(plan)
    assert len(counts) == 80 and set(counts.values()) == {2}
    replicas = {a.replica for a in plan.block_assignments}
    assert replicas == {0, 1}


def test_scaled_16_devices_is_plain_pipeline():
    plan = plan_scaled(LLAMA_70B, ARCH, 16, context=2048)
    assert plan.strategy == "PP" and plan.dp_replicas == 1
    assert plan.blocks_per_device == 5


def test_plan_save_round_trip(tmp_path):
    import json
    plan = plan_pipeline(LLAMA_7B, ARCH, 4096, n_devices=8)
    out = tmp_path / "plan.json"
    plan.save(out)
    d = json.loads(out.read_text())
    assert d["strategy"] == "PP"
    assert d["batch_size"] == 32
    assert len(d["block_assignments"]) == 32


def test_hybrid_tp1_capacity_checked():
    """A one-device hybrid stage obeys the pipeline's stacked-half rule:
    at 32k context, 4 blocks per device stack 2 on a 16-channel half,
    with the KV of 8 prompts each, which does not fit."""
    model = dataclasses.replace(LLAMA_7B, max_context=32768)
    with pytest.raises(MappingError, match="do not fit"):
        plan_hybrid(model, ARCH, tp=1, pp=8, context=32768)


def _fits(plan, arch):
    """The capacity rule, re-derived from the assignments: one-device
    blocks stack on the fuller half of their device, and a wider
    stage's blocks share its devices' whole capacity."""
    half = arch.channels_per_device // 2
    per_unit = Counter()
    for a in plan.block_assignments:
        if len(a.devices) == 1:
            assert len(a.channels[0]) == half
            per_unit[(a.devices, a.channels[0])] += a.footprint_B
        else:
            assert a.channels == (tuple(range(arch.channels_per_device)),
                                  ) * len(a.devices)
            per_unit[(a.devices, None)] += a.footprint_B
    for (devices, channels), used in per_unit.items():
        limit = (len(channels) * arch.channel_capacity_B if channels
                 else len(devices) * arch.device_capacity_B)
        assert used <= limit


def _check_layout(plan, arch):
    model = plan.model
    weights, kv1 = block_footprint(model, plan.context)
    replicas = {}
    for a in plan.block_assignments:
        replicas.setdefault(a.replica, []).append(a)
        assert a.footprint_B == weights + plan.batch_size * kv1
        assert a.master == a.devices[0]
        assert a.devices == tuple(range(a.devices[0],
                                        a.devices[0] + plan.tp_degree))
        assert len(a.channels) == len(a.devices)
    assert sorted(replicas) == list(range(plan.dp_replicas))
    groups = []
    for assigned in replicas.values():
        # each block exactly once per replica, in order
        assert [a.block for a in assigned] == list(range(model.n_layers))
        for a in assigned:
            if not groups or groups[-1] != a.devices:
                groups.append(a.devices)
    # stage groups are disjoint and follow each other without gaps
    flat = [d for g in groups for d in g]
    assert flat == list(range(len(flat)))
    active = set(plan.active_devices)
    assert active == set(flat)
    assert sorted(active | set(plan.idle_devices)) == list(
        range(plan.n_devices))
    assert not active & set(plan.idle_devices)
    _fits(plan, arch)


def _accepted(build):
    try:
        return build()
    except MappingError:
        return None


@pytest.mark.parametrize("ctx", [2048, 4096])
@pytest.mark.parametrize("model", [LLAMA_7B, LLAMA_13B, LLAMA_70B],
                         ids=lambda m: m.name)
def test_every_plan_obeys_the_layout_rules(model, ctx):
    """Every accepted pipeline (1-32 devices), hybrid (tp*pp <= 32),
    tensor and scaled (1-80 devices) plan is a set of replicas of
    contiguous, disjoint stage groups that fits its devices."""
    arch = ARCH
    builds = [lambda n=n: plan_pipeline(model, arch, ctx, n_devices=n)
              for n in range(1, 33)]
    builds += [lambda tp=tp, pp=pp: plan_hybrid(model, arch, tp=tp, pp=pp,
                                               context=ctx)
               for tp in range(1, 33) for pp in range(1, 33 // tp + 1)
               if model.n_layers % pp == 0]
    builds.append(lambda: plan_tensor(model, arch, ctx))
    builds += [lambda n=n: plan_scaled(model, arch, n, context=ctx)
               for n in range(1, 81)]
    plans = [p for p in map(_accepted, builds) if p is not None]
    assert plans
    for plan in plans:
        _check_layout(plan, arch)

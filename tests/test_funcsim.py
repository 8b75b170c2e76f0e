import dataclasses
import math

import numpy as np
import pytest

from cxlpim.config import CONFIGS_DIR, ArchConfig, ModelSpec, load_config
from cxlpim.isa import make_instruction, validate_trace
from cxlpim.mapper import plan_hybrid, plan_pipeline
from cxlpim import compiler as C
from cxlpim import funcsim as F
from cxlpim.funcsim import (
    DeadlockError, MemoryImage, PoisonError, SimError, bf16, bf16_round,
    bf16_to_f32, compare, gemv_reference, load_gemv_weights,
    load_kv_history, prepare_image, reference_block, reference_rope,
    run_trace, taylor_exp, tp_groups,
)

ARCH = ArchConfig()

TOY = ModelSpec(name="toy", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=1, d_head=64, d_ff=688, max_context=64)
# d_ff chosen so each device's down-projection slice spans a full
# Global Buffer tile (the bank-streamed input cannot share DRAM rows)
TINY = ModelSpec(name="tiny", n_layers=2, d_model=128, n_heads=2,
                 n_kv_heads=1, d_head=64, d_ff=2048, max_context=64)
# splits over tp=4 with each device's down slice a full tile
TP4 = ModelSpec(name="tp4", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=1, d_head=64, d_ff=4096, max_context=64)
# the toy with two KV heads, each shared by two query heads
MKV = ModelSpec(name="mkv", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=2, d_head=64, d_ff=688, max_context=64)


def random_weights(model, rng, scale=0.05):
    w = {}
    for name, rows, cols in C._fc_shapes(model):
        w[name] = bf16(rng.normal(scale=scale, size=(rows, cols)))
    w["w_rms1"] = bf16(1.0 + rng.normal(scale=0.1, size=model.d_model))
    w["w_rms2"] = bf16(1.0 + rng.normal(scale=0.1, size=model.d_model))
    return w


def gemv_placement(rows, cols, channels=(0,)):
    return C.TensorPlacement(name="w", device=0, channels=channels,
                             rows=rows, cols=cols, base_row=0)


def run_gemv(rows, cols, w, x, channels=(0,)):
    pl = gemv_placement(rows, cols, channels)
    img = MemoryImage(ARCH)
    load_gemv_weights(img, pl, w)
    img.write_slots(0, 0, np.zeros(16))
    img.write_slots(0, 100, x)
    run_trace({0: C.lower_gemv(rows, cols, pl, vec_slot=100)}, img)
    return img.read_slots(0, 1024, rows)


# ---------------------------------------------------------------------------
# numeric primitives

def test_bf16_round_to_nearest_even():
    # halfway below an odd mantissa rounds down, below an even one up
    assert bf16(1.0 + 2.0 ** -9) == 1.0
    assert bf16(1.00390625) == 1.0            # tie -> even (1.0)
    assert bf16(1.01171875) == 1.015625       # tie -> even (1.015625)
    vals = np.array([0.0, -1.5, 3.25e8, 1e-40], dtype=np.float32)
    assert np.array_equal(bf16(bf16(vals)), bf16(vals))


def test_bf16_nan_canonical():
    assert bf16_round(np.array([np.nan], np.float32))[0] == 0x7FC0


def test_taylor_exp():
    assert taylor_exp(np.zeros(4)).tolist() == [1.0] * 4
    x = -np.linspace(0, 16, 50)
    assert np.abs(taylor_exp(x) - np.exp(x)).max() < 1e-6


def test_exp_instruction_of_zeros_is_ones():
    img = MemoryImage(ARCH)
    img.write_slots(0, 10, np.zeros(16))
    run_trace({0: [make_instruction("EXP", 1, 11, 10)]}, img)
    assert img.read_slots(0, 11, 16).tolist() == [1.0] * 16


def test_silu_lut_accuracy():
    x = np.linspace(-8, 8, 1001).astype(np.float32)
    exact = x / (1 + np.exp(-x))
    assert np.abs(F.apply_af(0, x) - exact).max() < 1e-4
    # beyond the table domain the gate saturates, keeping silu(x) ~ x
    assert F.apply_af(0, np.float32(100.0)) == pytest.approx(100.0,
                                                             rel=5e-4)
    assert abs(F.apply_af(0, np.float32(-100.0))) < 0.05


# ---------------------------------------------------------------------------
# GEMV oracle equivalence

def test_identity_gemv():
    rng = np.random.default_rng(0)
    v = bf16(rng.normal(size=16))
    assert np.array_equal(run_gemv(16, 16, np.eye(16), v), v)


def test_gemv_bit_exact_property():
    rng = np.random.default_rng(1)
    shapes = [(16, 16), (16, 128), (16, 1024), (32, 384), (48, 2048),
              (64, 4096), (640, 1024)]
    for rows, cols in shapes:
        w = rng.normal(size=(rows, cols))
        x = rng.normal(size=cols)
        got = run_gemv(rows, cols, w, x)
        assert np.array_equal(got, gemv_reference(w, x)), (rows, cols)


def test_gemv_bit_exact_multichannel():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(64, 1024))
    x = rng.normal(size=1024)
    got = run_gemv(64, 1024, w, x, channels=(0, 1, 2))
    assert np.array_equal(got, gemv_reference(w, x))


# ---------------------------------------------------------------------------
# operator lowerings

@pytest.fixture(scope="module")
def toy_setup():
    plan = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=1)
    layout = C.build_layout(TOY, plan, ARCH)
    rng = np.random.default_rng(7)
    weights = [random_weights(TOY, rng) for _ in range(TOY.n_layers)]
    return plan, layout, weights


def test_rmsnorm_of_ones_is_ones(toy_setup):
    _, layout, weights = toy_setup
    w = [dict(b) for b in weights]
    w[0]["w_rms1"] = np.ones(TOY.d_model)
    img = prepare_image(layout, w)
    img.write_slots(0, layout.sb.hidden, np.ones(TOY.d_model))
    run_trace({0: C.lower_rmsnorm(TOY.d_model, layout)}, img)
    out = img.read_slots(0, layout.sb.rms, TOY.d_model)
    assert out.tolist() == [1.0] * TOY.d_model


def test_rope_position_zero_is_identity(toy_setup):
    _, layout, weights = toy_setup
    img = prepare_image(layout, weights)
    rng = np.random.default_rng(3)
    head = bf16(rng.normal(size=TOY.d_head))
    img.write_slots(0, layout.sb.qkv, head)
    run_trace({0: C.lower_rope(TOY.d_head, 0, layout)}, img)
    assert np.array_equal(img.read_slots(0, layout.sb.qkv, TOY.d_head),
                          head)


def test_rope_matches_scalar_formula(toy_setup):
    _, layout, weights = toy_setup
    img = prepare_image(layout, weights)
    rng = np.random.default_rng(4)
    head = bf16(rng.normal(size=TOY.d_head))
    img.write_slots(0, layout.sb.qkv, head)
    run_trace({0: C.lower_rope(TOY.d_head, 17, layout)}, img)
    got = img.read_slots(0, layout.sb.qkv, TOY.d_head)
    assert np.array_equal(got, F._hw_rope(head, 17))
    # plain-formula gap is two BF16 product roundings per element
    ref = reference_rope(head, 17)
    assert compare(got, ref, rel_tol=0.05, abs_floor=2e-2).passed


def test_reference_rope_d2_hand_formula():
    a, b, p = 0.3, -0.7, 5
    out = reference_rope([a, b], p)
    assert out[0] == pytest.approx(a * math.cos(p) - b * math.sin(p))
    assert out[1] == pytest.approx(a * math.sin(p) + b * math.cos(p))


# ---------------------------------------------------------------------------
# reference oracle sanity

def test_reference_zero_weights_is_identity():
    zeros = {n: np.zeros((r, c)) for n, r, c in C._fc_shapes(TINY)}
    zeros["w_rms1"] = np.zeros(TINY.d_model)
    zeros["w_rms2"] = np.zeros(TINY.d_model)
    h = np.random.default_rng(5).normal(size=TINY.d_model)
    empty = np.zeros((1, 0, TINY.d_head))
    out, _, _ = reference_block(TINY, zeros, h, empty, empty, 0)
    assert np.allclose(out, h)


def test_reference_gqa_equals_shared_head_mha():
    rng = np.random.default_rng(6)
    gqa = ModelSpec(name="g", n_layers=1, d_model=128, n_heads=4,
                    n_kv_heads=1, d_head=32, d_ff=64)
    mha = ModelSpec(name="m", n_layers=1, d_model=128, n_heads=4,
                    n_kv_heads=4, d_head=32, d_ff=64)
    w = random_weights(gqa, rng)
    wm = dict(w)
    wm["k"] = np.tile(w["k"], (4, 1))
    wm["v"] = np.tile(w["v"], (4, 1))
    h = rng.normal(size=128)
    kc = rng.normal(size=(1, 3, 32))
    vc = rng.normal(size=(1, 3, 32))
    a, _, _ = reference_block(gqa, w, h, kc, vc, 3)
    b, _, _ = reference_block(mha, wm, h, np.tile(kc, (4, 1, 1)),
                              np.tile(vc, (4, 1, 1)), 3)
    assert np.allclose(a, b)


def test_reference_hand_computed_single_step():
    # d=2, one head, identity weights, h=[1,0], first token: every
    # intermediate value admits a pencil-and-paper form
    m = ModelSpec(name="h", n_layers=1, d_model=2, n_heads=1,
                  n_kv_heads=1, d_head=2, d_ff=2, max_context=4)
    eye = np.eye(2)
    w = {"q": eye, "k": eye, "v": eye, "o": eye, "gate": eye, "up": eye,
         "down": eye, "w_rms1": np.ones(2), "w_rms2": np.ones(2)}
    empty = np.zeros((1, 0, 2))
    out, _, _ = reference_block(m, w, [1.0, 0.0], empty, empty, 0)

    x0 = 1.0 / math.sqrt(0.5 + 1e-5)          # rmsnorm of [1, 0]
    h1 = 1.0 + x0                             # single-token attention = v
    x1 = h1 / math.sqrt(h1 * h1 / 2 + 1e-5)
    gated = x1 / (1.0 + math.exp(-x1)) * x1   # silu(gate) * up
    assert out[0] == pytest.approx(h1 + gated, rel=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# end-to-end token: compiled trace vs reference

def toy_state(rng, pos, model=TOY):
    weights = [random_weights(model, rng) for _ in range(model.n_layers)]
    ks = [bf16(rng.normal(scale=0.5,
                          size=(model.n_kv_heads, pos, model.d_head)))
          for _ in range(model.n_layers)]
    vs = [bf16(rng.normal(scale=0.5,
                          size=(model.n_kv_heads, pos, model.d_head)))
          for _ in range(model.n_layers)]
    hidden = bf16(rng.normal(size=model.d_model))
    return weights, ks, vs, hidden


def run_toy_token(plan, layout, weights, ks, vs, hidden, pos):
    """(traces, output hidden state) of one token on `layout`'s model."""
    model = layout.model
    img = prepare_image(layout, weights)
    for b in range(model.n_layers):
        load_kv_history(img, layout, b, ks[b], vs[b])
    first = layout.blocks[0].master
    img.write_slots(first, layout.sb.hidden, hidden)
    traces = C.compile_token(model, plan, pos, layout=layout)
    run_trace(traces, img, groups=tp_groups(plan))
    last = layout.blocks[-1].master
    return traces, img.read_slots(last, layout.sb.hidden, model.d_model)


def test_toy_token_matches_order_matched_reference():
    pos = 20
    rng = np.random.default_rng(7)
    weights, ks, vs, hidden = toy_state(rng, pos)
    plan = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=1)
    layout = C.build_layout(TOY, plan, ARCH)
    _, got = run_toy_token(plan, layout, weights, ks, vs, hidden, pos)

    h = hidden.copy()
    for b in range(TOY.n_layers):
        perm = layout.blocks[b].placements["down"][0].col_perm
        h, _, _ = reference_block(TOY, weights[b], h, ks[b], vs[b], pos,
                                  match_hardware=True, down_perm=perm)
    assert np.array_equal(got, h)       # 0% < the 2% budget
    # and the plain float64 reference stays within BF16 working error
    h64 = hidden.astype(np.float64)
    for b in range(TOY.n_layers):
        h64, _, _ = reference_block(TOY, weights[b], h64, ks[b], vs[b],
                                    pos)
    # small residual-stream elements carry the BF16 ulp of the large
    # values they were summed with, so they are floored at full scale
    rep = compare(got, h64, rel_tol=0.02,
                  abs_floor=float(np.abs(h64).max()))
    assert rep.passed, str(rep)


def test_toy_first_token_empty_cache():
    rng = np.random.default_rng(8)
    weights, ks, vs, hidden = toy_state(rng, 0)
    plan = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=1)
    layout = C.build_layout(TOY, plan, ARCH)
    _, got = run_toy_token(plan, layout, weights, ks, vs, hidden, 0)
    h = hidden.copy()
    for b in range(TOY.n_layers):
        perm = layout.blocks[b].placements["down"][0].col_perm
        h, _, _ = reference_block(TOY, weights[b], h, ks[b], vs[b], 0,
                                  match_hardware=True, down_perm=perm)
    assert np.array_equal(got, h)


@pytest.mark.parametrize("n_devices", (1, 2))
def test_multi_kv_head_token_matches_order_matched_reference(n_devices):
    # query heads share their KV head's attention body; an operand of
    # one query head left inside it would corrupt its neighbour's output
    plan = plan_pipeline(MKV, ARCH, MKV.max_context, n_devices=n_devices)
    layout = C.build_layout(MKV, plan, ARCH)
    assert len({kv.channel for kv in layout.blocks[0].kv}) == 2
    for pos in (0, 15, 16, 40, 63):
        rng = np.random.default_rng(pos)
        weights, ks, vs, hidden = toy_state(rng, pos, MKV)
        traces, got = run_toy_token(plan, layout, weights, ks, vs, hidden,
                                    pos)
        report = validate_trace({t.device: t.instructions for t in traces},
                                ARCH)
        assert report.well_formed, [f.message for f in report.findings]
        h = hidden.copy()
        for b, bl in enumerate(layout.blocks):
            perm = bl.placements["down"][bl.master].col_perm
            h, _, _ = reference_block(MKV, weights[b], h, ks[b], vs[b], pos,
                                      match_hardware=True, down_perm=perm)
        assert np.array_equal(got, h), pos


# the shipped model with real attention shapes: d_head 128, two KV
# heads, a 2048-position cache
MID, _ = load_config(CONFIGS_DIR / "mid.json")


@pytest.mark.parametrize("n_devices, pos", [
    (1, 511), (1, 512), (1, 1023), (1, 1024), (2, 2047)])
def test_mid_model_token_matches_order_matched_reference(n_devices, pos):
    """Position 512 is the first whose score pass needs more than REGS
    KV groups (a second chunk); past 1023 the score x V pass spans two
    Global Buffer tiles. On 2 devices a second layer puts one block on
    each, so the hidden state crosses by SEND/RECV."""
    model = dataclasses.replace(MID, n_layers=n_devices)
    plan = plan_pipeline(model, ARCH, model.max_context, n_devices=n_devices)
    layout = C.build_layout(model, plan, ARCH)
    rng = np.random.default_rng(pos)
    weights, ks, vs, hidden = toy_state(rng, pos, model)
    traces, got = run_toy_token(plan, layout, weights, ks, vs, hidden, pos)
    report = validate_trace({t.device: t.instructions for t in traces}, ARCH)
    assert report.well_formed, [f.message for f in report.findings]
    sends = sum(i.opcode == "SEND_CXL" for t in traces for i in t.instructions)
    assert (sends > 0) == (n_devices > 1)
    h = hidden.copy()
    for b, bl in enumerate(layout.blocks):
        perm = bl.placements["down"][bl.master].col_perm
        h, _, _ = reference_block(model, weights[b], h, ks[b], vs[b], pos,
                                  match_hardware=True, down_perm=perm)
    assert np.array_equal(got, h)


def test_two_device_pipeline_matches_single_device():
    pos = 12
    rng = np.random.default_rng(9)
    weights, ks, vs, hidden = toy_state(rng, pos)
    p1 = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=1)
    l1 = C.build_layout(TOY, p1, ARCH)
    _, a = run_toy_token(p1, l1, weights, ks, vs, hidden, pos)
    p2 = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=2)
    l2 = C.build_layout(TOY, p2, ARCH)
    _, b = run_toy_token(p2, l2, weights, ks, vs, hidden, pos)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("model, tp", [(TINY, 2), (TP4, 4)],
                         ids=["tp2", "tp4"])
def test_tensor_parallel_group_matches_single_device(model, tp):
    # at tp=4 three non-master devices share their per-device pieces
    pos = 9
    rng = np.random.default_rng(10)
    weights = [random_weights(model, rng) for _ in range(model.n_layers)]
    ks = [bf16(rng.normal(scale=0.5, size=(1, pos, model.d_head)))
          for _ in range(model.n_layers)]
    vs = [bf16(rng.normal(scale=0.5, size=(1, pos, model.d_head)))
          for _ in range(model.n_layers)]
    hidden = bf16(rng.normal(size=model.d_model))

    outs = []
    for plan in (plan_pipeline(model, ARCH, model.max_context, n_devices=1),
                 plan_hybrid(model, ARCH, tp=tp, pp=1,
                             context=model.max_context)):
        layout = C.build_layout(model, plan, ARCH)
        img = prepare_image(layout, weights)
        for b in range(model.n_layers):
            load_kv_history(img, layout, b, ks[b], vs[b])
        img.write_slots(layout.blocks[0].master, layout.sb.hidden, hidden)
        traces = C.compile_token(model, plan, pos, layout=layout)
        report = validate_trace({t.device: t.instructions for t in traces},
                                ARCH)
        assert report.well_formed, [f.message for f in report.findings]
        run_trace(traces, img, groups=tp_groups(plan))
        outs.append(img.read_slots(layout.blocks[-1].master,
                                   layout.sb.hidden, model.d_model))
    # the TP run splits the down-projection dot products, so partials
    # round independently; errors stay at the BF16 ulp of the stream
    rep = compare(outs[1], outs[0], rel_tol=0.02,
                  abs_floor=float(np.abs(outs[0]).max()))
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# error handling and state rules

def test_recv_without_send_deadlocks():
    with pytest.raises(DeadlockError):
        run_trace({0: [make_instruction("RECV_CXL")]}, MemoryImage(ARCH))


def test_strict_mode_poisons_unwritten_reads():
    img = MemoryImage(ARCH, strict=True)
    with pytest.raises(PoisonError):
        run_trace({0: [make_instruction("WR_GB", 0x1, 1, 0, 500)]}, img)
    lenient = MemoryImage(ARCH, strict=False)
    run_trace({0: [make_instruction("WR_GB", 0x1, 1, 0, 500)]}, lenient)


def test_send_to_unknown_device_rejected():
    img = MemoryImage(ARCH)
    img.write_slots(0, 5, np.ones(16))
    with pytest.raises(SimError, match="no trace"):
        run_trace({0: [make_instruction("SEND_CXL", 9, 5, 5)]}, img)


def test_compare_reports():
    r = compare([1.0, 2.0], [1.0, 2.0])
    assert r.passed and r.max_abs == 0.0
    with pytest.raises(SimError, match="shape"):
        compare([1.0], [1.0, 2.0])


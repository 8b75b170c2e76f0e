import json

import pytest

from cxlpim import cli
from cxlpim.config import (
    LANE, ROW_SLOTS, WORD_B, ArchConfig, ConfigError, ModelSpec,
    apply_overrides, block_footprint, build, load_config, write_output,
)

GB = 1024 ** 3


def llama70b():
    return ModelSpec(name="llama2-70b", n_layers=80, d_model=8192, n_heads=64,
                     n_kv_heads=8, d_head=128, d_ff=28672, max_context=4096)


def test_load_llama70b(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"model": {
        "name": "llama2-70b", "n_layers": 80, "d_model": 8192, "n_heads": 64,
        "n_kv_heads": 8, "d_head": 128, "d_ff": 28672, "max_context": 4096}}))
    model, arch = load_config(p)
    assert model == llama70b()
    assert arch == ArchConfig()  # all defaults


def test_divisibility_invariant():
    with pytest.raises(ConfigError, match="d_model"):
        ModelSpec(d_model=100, n_heads=7, d_head=14, n_kv_heads=7)


def test_empty_arch_section_takes_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"arch": {}}')
    _, arch = load_config(p)
    assert arch.timing.tRCDRD_ns == 18.0
    assert arch.timing.tRAS_ns == 27.0
    assert arch.timing.tCL_ns == 25.0
    assert arch.timing.tCCDS_ns == 1.0
    assert arch.timing.tRP_ns == 16.0
    assert arch.n_devices == 32


def test_unknown_field_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"arch": {"n_devcies": 8}}')
    with pytest.raises(ConfigError, match="n_devcies"):
        load_config(p)


def test_block_footprint_70b():
    model = llama70b()
    weights, kv = block_footprint(model, 4096)
    # oracle: evaluate the layer shapes directly
    d, dff, dh, nkv = 8192, 28672, 128, 8
    expect_w = (d * d + d * d          # Q, O
                + 2 * d * dh * nkv     # K, V
                + 3 * d * dff) * 2     # gate, up, down
    assert weights == expect_w == 1711276032
    assert kv == 2 * 4096 * 128 * 8 * 2 == 16 * 1024 * 1024


def test_block_footprint_zero_context():
    assert block_footprint(llama70b(), 0)[1] == 0


def test_block_footprint_context_overflow():
    with pytest.raises(ConfigError, match="max_context"):
        block_footprint(llama70b(), 8192)


def test_derived_capacities():
    arch = ArchConfig()
    assert arch.channel_capacity_B == 512 * 1024 * 1024
    assert arch.device_capacity_B == 16 * GB
    assert LANE * 2 == WORD_B             # 16 BF16 lanes per 256-bit word
    assert ROW_SLOTS * WORD_B == 2 * 1024  # 2 KB rows
    assert arch.rows_per_bank == 16384
    assert ROW_SLOTS == 64                # Global Buffer slots
    assert arch.sb_slots == 2048


# former arch fields, at their old defaults: the fixed device geometry
# (now config constants) and values nothing read. A config that names
# one fails at load rather than being ignored.
DELETED_FIELDS = {
    "word_bits": 256, "row_buffer_B": 2048, "acc_registers": 32,
    "banks_per_channel": 16, "bank_groups": 4,
    "instruction_buffer_B": 2 * 1024 * 1024, "n_accumulators": 32,
    "n_reduction_trees": 32, "n_exp_units": 32, "cxl.host_link_lanes": 16,
    "pu_clock_Hz": 1e9, "global_buffer_B": 2 * 1024,
    "timing.rv_cycles": {"recip": 20, "rsqrt": 24, "rope_pack": 2,
                         "rope_unpack": 2},
}


@pytest.mark.parametrize("path", sorted(DELETED_FIELDS))
def test_deleted_arch_field_rejected(path, tmp_path, capsys):
    value = DELETED_FIELDS[path]
    *sections, name = path.split(".")
    data = {name: value}
    for section in reversed(sections):
        data = {section: data}
    unknown = rf"unknown field\(s\) \['{name}'\]"
    with pytest.raises(ConfigError, match=unknown):
        build(ArchConfig, data, "arch")
    config = tmp_path / "arch.json"
    config.write_text(json.dumps({"arch": data}))
    with pytest.raises(ConfigError, match=unknown):
        load_config(config)
    rc = cli.main(["simulate", "--model", "toy", "--set",
                   f"arch.{path}={value}", "--prefill", "0",
                   "--decode", "16"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: unknown config field: {name}\n")


def test_apply_overrides_nested():
    arch = ArchConfig()
    arch2 = apply_overrides(arch, {"timing.tRP_ns": "20", "n_devices": "8"})
    assert arch2.timing.tRP_ns == 20.0
    assert arch2.n_devices == 8
    assert arch.timing.tRP_ns == 16.0  # original untouched
    with pytest.raises(ConfigError, match="unknown config field"):
        apply_overrides(arch, {"bogus": "1"})


def test_output_writer_writes_what_write_text_writes(tmp_path):
    # a longer file, then a shorter one, over one path; and a new file
    # gets write_text's permissions
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    for text in ("{\n " + "1, " * 500 + "\n}\n", "{}\n", "", "[1]\n"):
        write_output(ours, text)
        theirs.write_text(text)
        assert ours.read_bytes() == theirs.read_bytes() == text.encode()
    assert ours.stat().st_mode == theirs.stat().st_mode
    new = tmp_path / "new.json"
    write_output(new, "{}\n")
    assert new.stat().st_mode == theirs.stat().st_mode

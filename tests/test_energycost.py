"""Energy, power, and cost model tests."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

from cxlpim import energycost, mapper, timesim
from cxlpim.config import (BANKS, WORD_B, ArchConfig, CostParams,
                           EnergyParams, ModelSpec)

ARCH = ArchConfig()
E = ARCH.energy
C = ARCH.cost

ZERO_COUNTS = {k: 0 for k in energycost.REQUIRED_COUNTS}


def make_counts(**kw):
    counts = dict(ZERO_COUNTS)
    counts.update(kw)
    return counts


# ---------------------------------------------------------------------------
# energy accounting


def test_mac_energy_per_bit_near_target():
    # one bank MAC column's energy over the bits it consumes
    per_bit = E.e_mac_col_pJ / (8 * WORD_B)
    assert abs(per_bit - 0.6) <= 0.06


def test_shipped_params_match_dataclass_defaults():
    """The EnergyParams defaults are what the derivation script derives,
    as its --check compares."""
    path = (Path(__file__).resolve().parent.parent / "scripts"
            / "derive_dram_energy.py")
    spec = importlib.util.spec_from_file_location("derive_dram_energy", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.derive() == dataclasses.asdict(EnergyParams())
    assert script.main(["--check"]) == 0


def test_idle_second_is_static_power_only():
    er = energycost.energy_from_counts(ZERO_COUNTS, 1.0, E, ARCH)
    assert er.categories["mac"] == 0.0
    assert er.categories["act_pre"] == 0.0
    assert er.categories["rd_wr"] == 0.0
    n, ch = ARCH.n_devices, ARCH.channels_per_device
    assert er.categories["background"] == pytest.approx(
        E.p_background_W_per_channel * ch * n)
    assert er.categories["ctrl_static"] == pytest.approx(
        (E.p_memctrl_W_per_2ch * ch / 2 + E.p_scalar_core_W *
         ARCH.n_scalar_cores + E.p_ctrl_logic_W) * n)
    assert er.categories["host"] == pytest.approx(E.p_host_W)
    assert er.fleet_W == pytest.approx(sum(er.categories.values()))


def test_single_mac_column_energy():
    counts = make_counts(MACab=1)
    er = energycost.energy_from_counts(counts, 1e-9, E, ARCH)
    assert er.categories["mac"] == pytest.approx(
        BANKS * E.e_mac_col_pJ * 1e-12)


def test_categories_sum_to_total_and_fractions_to_one():
    counts = make_counts(MACab=1000, EWMULab=10, AFab=5, ACTab=20, PREab=20,
                         RD=300, WR=400)
    er = energycost.energy_from_counts(counts, 1e-6, E, ARCH, tokens=2.0)
    assert sum(er.categories.values()) == pytest.approx(er.total_J)
    assert sum(er.fractions.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(er.device_fractions.values()) == pytest.approx(1.0, abs=1e-9)
    assert er.tokens_per_J == pytest.approx(2.0 / er.total_J)


def test_missing_count_category_raises():
    bad = dict(ZERO_COUNTS)
    del bad["ACTab"]
    with pytest.raises(energycost.EnergyError, match="ACTab"):
        energycost.energy_from_counts(bad, 1.0, E, ARCH)


def test_bad_active_device_count_raises():
    with pytest.raises(energycost.EnergyError, match="active_devices"):
        energycost.energy_from_counts(ZERO_COUNTS, 1.0, E, ARCH,
                                      active_devices=ARCH.n_devices + 1)


def test_negative_wall_time_raises():
    with pytest.raises(energycost.EnergyError, match="wall_s"):
        energycost.energy_from_counts(ZERO_COUNTS, -1.0, E, ARCH)


def test_additivity_of_concatenated_runs():
    a = energycost.energy_from_counts(
        make_counts(MACab=500, ACTab=8, PREab=8, RD=40, WR=60),
        2e-6, E, ARCH, active_devices=27, tokens=1.0)
    b = energycost.energy_from_counts(
        make_counts(MACab=900, EWMULab=30, ACTab=14, PREab=14, WR=10),
        3e-6, E, ARCH, active_devices=27, tokens=4.0)
    whole = energycost.energy_from_counts(
        make_counts(MACab=1400, EWMULab=30, ACTab=22, PREab=22, RD=40, WR=70),
        5e-6, E, ARCH, active_devices=27, tokens=5.0)
    # energy adds over concatenated intervals; the per-device average
    # power is the time-weighted mean of the parts
    assert a.total_J + b.total_J == pytest.approx(whole.total_J)
    for k in energycost.CATEGORIES:
        assert (a.categories[k] + b.categories[k]
                == pytest.approx(whole.categories[k]))
    assert a.wall_s + b.wall_s == pytest.approx(whole.wall_s)
    assert a.tokens + b.tokens == whole.tokens
    assert ((a.device_avg_W * a.wall_s + b.device_avg_W * b.wall_s)
            / whole.wall_s == pytest.approx(whole.device_avg_W))


def test_report_round_trips_through_json(tmp_path):
    er = energycost.energy_from_counts(
        make_counts(MACab=100, ACTab=2, PREab=2), 1e-6, E, ARCH, tokens=1.0)
    path = tmp_path / "energy.json"
    er.save(path)
    data = json.loads(path.read_text())
    assert data["total_J"] == er.total_J
    assert data["fractions"]["mac"] == er.fractions["mac"]
    assert set(data["categories_J"]) == set(energycost.CATEGORIES)


# ---------------------------------------------------------------------------
# controller unit cost


def test_unit_cost_near_target():
    unit = energycost.controller_unit_cost(C)
    assert abs(unit.total_USD - 11.9) <= 0.15 * 11.9
    assert unit.total_USD == pytest.approx(
        unit.die_USD + unit.packaging_USD + unit.nre_USD)
    assert unit.packaging_USD == pytest.approx(
        C.packaging_fraction * unit.die_USD)


def test_zero_defect_density_means_perfect_yield():
    c0 = dataclasses.replace(C, defect_density_per_mm2=1e-15)
    unit = energycost.controller_unit_cost(c0)
    assert unit.yield_fraction == pytest.approx(1.0)
    assert unit.die_USD == pytest.approx(
        C.wafer_cost_USD / unit.dies_per_wafer)


def test_doubling_volume_halves_nre_exactly():
    u1 = energycost.controller_unit_cost(C)
    u2 = energycost.controller_unit_cost(
        dataclasses.replace(C, production_volume=2 * C.production_volume))
    assert u2.nre_USD == pytest.approx(u1.nre_USD / 2)
    assert u2.die_USD == u1.die_USD


def test_unit_cost_monotone_in_volume_area_and_defects():
    base = energycost.controller_unit_cost(C).total_USD
    more_volume = energycost.controller_unit_cost(
        dataclasses.replace(C, production_volume=C.production_volume * 3))
    assert more_volume.total_USD <= base
    bigger_die = energycost.controller_unit_cost(
        dataclasses.replace(C, controller_area_mm2=C.controller_area_mm2 * 2))
    assert bigger_die.total_USD >= base
    dirtier = energycost.controller_unit_cost(
        dataclasses.replace(C, defect_density_per_mm2=0.01))
    assert dirtier.total_USD >= base


def test_oversized_die_raises():
    huge = dataclasses.replace(C, controller_area_mm2=1e5)
    with pytest.raises(energycost.CostError):
        energycost.controller_unit_cost(huge)


def test_hardware_total_near_target():
    hw = energycost.hardware_total_USD(C, n_devices=32)
    assert abs(hw - 14873.0) <= 0.01 * 14873.0


# ---------------------------------------------------------------------------
# TCO


def test_owned_tco_is_amortization_plus_electricity():
    fleet_W = 1250.0
    owned = energycost.tco_per_hour(C, fleet_W, "OWNED")
    hours = C.amortization_years * 8760
    expect = (energycost.hardware_total_USD(C) / hours +
              fleet_W / 1000 * C.electricity_USD_per_kWh)
    assert owned == pytest.approx(expect)


def test_zero_electricity_price_leaves_pure_amortization():
    cheap = dataclasses.replace(C, electricity_USD_per_kWh=1e-30)
    owned = energycost.tco_per_hour(cheap, 5000.0, "OWNED")
    hours = C.amortization_years * 8760
    assert owned == pytest.approx(energycost.hardware_total_USD(C) / hours)


def test_rental_excludes_host_hardware_and_power():
    fleet_W, host_W = 1250.0, 100.0
    rental = energycost.tco_per_hour(C, fleet_W, "RENTAL", host_W=host_W)
    hours = C.amortization_years * 8760
    unit = energycost.controller_unit_cost(C).total_USD
    device_hw = C.pim_memory_cost_USD + C.switch_cost_USD + 32 * unit
    expect = (C.host_rental_USD_per_hr + device_hw / hours +
              (fleet_W - host_W) / 1000 * C.electricity_USD_per_kWh)
    assert rental == pytest.approx(expect)


def test_unknown_tco_mode_raises():
    with pytest.raises(energycost.CostError, match="mode"):
        energycost.tco_per_hour(C, 100.0, "LEASED")


def test_tokens_per_dollar_arithmetic():
    assert energycost.tokens_per_dollar(1000.0, 0.73) == pytest.approx(
        4.93e6, rel=0.01)
    assert energycost.tokens_per_dollar(0.0, 0.73) == 0.0
    with pytest.raises(energycost.CostError):
        energycost.tokens_per_dollar(10.0, 0.0)


def test_tokens_per_dollar_linear_in_throughput():
    one = energycost.tokens_per_dollar(100.0, 0.9)
    assert energycost.tokens_per_dollar(300.0, 0.9) == pytest.approx(3 * one)


def test_tco_report_round_trips_through_json(tmp_path):
    rep = energycost.tco_report(C, 1250.0, 700.0, host_W=100.0)
    path = tmp_path / "tco.json"
    rep.save(path)
    data = json.loads(path.read_text())
    assert data["hardware_USD"] == rep.hardware_USD
    assert data["owned_USD_per_hr"] == rep.owned_USD_per_hr
    assert data["unit_cost"]["die_USD"] == rep.unit_cost.die_USD


# ---------------------------------------------------------------------------
# reference-system ratios


def test_reference_ratios():
    ours = {"tokens_per_s": 700.0, "tokens_per_J": 0.56,
            "tco_USD_per_hr": 0.74}
    ref = {"tokens_per_s": 350.0, "tokens_per_J": 0.14,
           "tco_USD_per_hr": 1.48}
    r = energycost.reference_ratios(ours, ref)
    assert r["throughput_ratio"] == pytest.approx(2.0)
    assert r["energy_ratio"] == pytest.approx(4.0)
    assert r["tokens_per_dollar_ratio"] == pytest.approx(4.0)


def test_reference_ratios_reject_missing_or_nonpositive():
    ours = {"tokens_per_s": 700.0, "tokens_per_J": 0.56,
            "tco_USD_per_hr": 0.74}
    with pytest.raises(energycost.CostError, match="tokens_per_J"):
        energycost.reference_ratios(
            ours, {"tokens_per_s": 1.0, "tco_USD_per_hr": 1.0})
    bad = dict(ours, tokens_per_s=0.0)
    with pytest.raises(energycost.CostError):
        energycost.reference_ratios(bad, ours)


def test_shipped_reference_figures_load():
    ref = energycost.load_reference_figures()
    assert ref["tco_owned_USD_per_hr"] == pytest.approx(1.76)
    assert ref["tokens_per_s"] > 0


# ---------------------------------------------------------------------------
# full-system power at scale


@pytest.mark.slow
def test_70b_pipeline_device_power_and_breakdown():
    model = ModelSpec(name="llama2-70b")
    plan = mapper.plan_pipeline(model, ARCH, context=4096)
    rep = timesim.simulate_system(model, plan, ARCH, prefill_tokens=512,
                                  decode_tokens=3584, seq_gap=128)
    er = energycost.energy_from_activity(rep, E, ARCH)
    assert abs(er.device_avg_W - 32.4) <= 0.1 * 32.4
    assert abs(er.device_fractions["mac"] - 0.545) <= 0.03
    assert abs(er.device_fractions["act_pre"] - 0.302) <= 0.03
    # host and controller static power sit outside the device figure
    assert er.fleet_W > ARCH.n_devices * 0.9 * er.device_avg_W
    tco = energycost.tco_report(C, er.fleet_W, rep.tokens_per_s,
                                host_W=E.p_host_W)
    assert abs(tco.owned_USD_per_hr - 0.73) <= 0.05 * 0.73
    assert abs(tco.rental_USD_per_hr - 1.05) <= 0.05 * 1.05

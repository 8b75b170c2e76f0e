"""Energy, power, and cost models.

Converts the activity counts produced by the timing model into energy
and average-power figures, and prices the system: CXL-controller unit
cost from wafer economics, fleet hardware cost, owned/rental TCO per
hour, and tokens-per-dollar.

Energy accounting splits into six categories:

  * mac         - all-bank compute columns (MAC, elementwise multiply,
                  activation-function columns), charged per bank-column
  * act_pre     - all-bank activate/precharge pairs, charged per bank
  * rd_wr       - single-bank column reads/writes and buffer transfers
  * background  - DRAM standby power, all channels of every device
  * ctrl_static - CXL controller die: memory controllers, scalar cores,
                  control logic and PNM datapath (always-on)
  * host        - host CPU serving the fleet

The first four are device-side and define the per-device average power
and its breakdown; the last two live on the controller die and host.
"""

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .config import (BANKS, PARAMS_DIR, ArchConfig, CostParams, EnergyParams,
                     GpuReference, build, load_json, write_output)


class EnergyError(ValueError):
    pass


class CostError(ValueError):
    pass


def load_reference_figures(path=None) -> dict:
    """Load externally supplied reference-system figures for ratios,
    checked as a `config.GpuReference`."""
    path = Path(path) if path else PARAMS_DIR / "gpu_reference.json"
    data = load_json(path.read_text(), path)
    build(GpuReference, data, f"{path}: gpu_reference")
    return data


#: command-count categories that energy_from_counts requires
REQUIRED_COUNTS = ("MACab", "EWMULab", "AFab", "ACTab", "PREab", "RD", "WR")

#: fleet energy categories, in reporting order
CATEGORIES = ("mac", "act_pre", "rd_wr", "background", "ctrl_static", "host")

#: per-device categories (the breakdown behind device_avg_W)
DEVICE_CATEGORIES = ("mac", "act_pre", "rd_wr", "background")

HOURS_PER_YEAR = 8760.0


# ---------------------------------------------------------------------------
# energy and power


@dataclass
class EnergyReport:
    """Energy over one wall-clock interval, fleet-wide.

    `categories` sum to `total_J`.  `device_avg_W` is the average power
    of one *active* device (its dynamic share plus its own background),
    and `device_fractions` its breakdown; this is the figure a power
    meter on a single busy device would read.
    """
    wall_s: float
    total_J: float
    categories: dict              # category -> J, fleet-wide
    fractions: dict               # category -> share of total_J
    device_avg_W: float
    device_fractions: dict        # per-active-device breakdown
    fleet_W: float
    tokens: float
    tokens_per_J: float
    n_devices: int
    active_devices: int

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "total_J": self.total_J,
            "categories_J": {k: self.categories[k] for k in CATEGORIES},
            "fractions": {k: self.fractions[k] for k in CATEGORIES},
            "device_avg_W": self.device_avg_W,
            "device_fractions": {k: self.device_fractions[k]
                                 for k in DEVICE_CATEGORIES},
            "fleet_W": self.fleet_W,
            "tokens": self.tokens,
            "tokens_per_J": self.tokens_per_J,
            "n_devices": self.n_devices,
            "active_devices": self.active_devices,
        }

    def save(self, path) -> None:
        write_output(path, json.dumps(self.to_dict(), indent=2) + "\n")


def ctrl_static_W_per_device(e: EnergyParams, arch: ArchConfig) -> float:
    """Always-on power of one CXL controller die."""
    return (e.p_memctrl_W_per_2ch * arch.channels_per_device / 2 +
            e.p_scalar_core_W * arch.n_scalar_cores +
            e.p_ctrl_logic_W)


def _finish_report(cats, wall_s, tokens, n_devices, active, bg_dev_W):
    total = sum(cats.values())
    fractions = ({k: cats[k] / total for k in CATEGORIES} if total > 0
                 else {k: 0.0 for k in CATEGORIES})
    dyn = cats["mac"] + cats["act_pre"] + cats["rd_wr"]
    if wall_s > 0 and active > 0:
        dev_dyn_W = dyn / wall_s / active
        dev_cats_W = {
            "mac": cats["mac"] / wall_s / active,
            "act_pre": cats["act_pre"] / wall_s / active,
            "rd_wr": cats["rd_wr"] / wall_s / active,
            "background": bg_dev_W,
        }
        dev_W = dev_dyn_W + bg_dev_W
        dev_fr = ({k: v / dev_W for k, v in dev_cats_W.items()} if dev_W > 0
                  else {k: 0.0 for k in DEVICE_CATEGORIES})
    else:
        dev_W = 0.0
        dev_fr = {k: 0.0 for k in DEVICE_CATEGORIES}
    return EnergyReport(
        wall_s=wall_s, total_J=total, categories=cats, fractions=fractions,
        device_avg_W=dev_W, device_fractions=dev_fr,
        fleet_W=total / wall_s if wall_s > 0 else 0.0,
        tokens=tokens,
        tokens_per_J=tokens / total if total > 0 else 0.0,
        n_devices=n_devices, active_devices=active)


def energy_from_counts(counts: dict, wall_s: float, e: EnergyParams,
                       arch: ArchConfig, active_devices: int | None = None,
                       tokens: float = 0.0) -> EnergyReport:
    """Energy of `wall_s` seconds of fleet activity given command counts.

    `counts` holds fleet-total command counts for the interval (all-bank
    commands counted once per channel; the bank fan-out is applied
    here).  Static powers are charged for the whole fleet: background
    and controller power for every device, busy or idle, plus the host.
    """
    if wall_s < 0:
        raise EnergyError("wall_s must be >= 0")
    missing = [k for k in REQUIRED_COUNTS if k not in counts]
    if missing:
        raise EnergyError(f"missing command count(s): {missing}")
    active = arch.n_devices if active_devices is None else active_devices
    if not 0 <= active <= arch.n_devices:
        raise EnergyError(
            f"active_devices {active} outside fleet of {arch.n_devices}")
    pj = 1e-12
    cats = {
        "mac": (counts["MACab"] + counts["EWMULab"] + counts["AFab"]) *
               BANKS * e.e_mac_col_pJ * pj,
        "act_pre": counts["ACTab"] * BANKS * e.e_act_pre_pJ * pj,
        "rd_wr": (counts["RD"] * e.e_rd_col_pJ +
                  counts["WR"] * e.e_wr_col_pJ) * pj,
        "background": (e.p_background_W_per_channel *
                       arch.channels_per_device * arch.n_devices * wall_s),
        "ctrl_static": ctrl_static_W_per_device(e, arch) *
                       arch.n_devices * wall_s,
        "host": e.p_host_W * wall_s,
    }
    bg_dev = e.p_background_W_per_channel * arch.channels_per_device
    return _finish_report(cats, wall_s, tokens, arch.n_devices, active, bg_dev)


def energy_from_activity(report, e: EnergyParams,
                         arch: ArchConfig) -> EnergyReport:
    """EnergyReport for one steady-state pipeline step of a SimReport.

    The report's command counts are fleet totals per step, so the wall
    time is one token step and the tokens produced are one per
    data-parallel replica.
    """
    return energy_from_counts(
        report.command_counts, report.token_step_ns * 1e-9, e, arch,
        active_devices=report.n_active_devices,
        tokens=float(report.dp_replicas))


# ---------------------------------------------------------------------------
# controller unit cost and hardware total


@dataclass
class CostBreakdown:
    dies_per_wafer: float
    yield_fraction: float
    die_USD: float
    packaging_USD: float
    nre_USD: float
    total_USD: float


def controller_unit_cost(c: CostParams) -> CostBreakdown:
    """Per-unit cost of the CXL controller: die + packaging + NRE.

    Die count per wafer uses the usable-area estimate with an edge-loss
    correction; yield is Poisson in area times defect density; NRE is
    amortized linearly over the production volume.
    """
    d = c.wafer_diameter_mm
    area = c.controller_area_mm2
    wafer_area = math.pi * (d / 2) ** 2
    if area >= wafer_area:
        raise CostError(
            f"die area {area} mm^2 does not fit a {d} mm wafer")
    dpw = wafer_area / area - math.pi * d / math.sqrt(2 * area)
    if dpw <= 0:
        raise CostError("die area too large: no whole dies per wafer")
    y = math.exp(-area * c.defect_density_per_mm2)
    die = c.wafer_cost_USD / (dpw * y)
    packaging = c.packaging_fraction * die
    nre = c.nre_total_USD / c.production_volume
    return CostBreakdown(dies_per_wafer=dpw, yield_fraction=y, die_USD=die,
                         packaging_USD=packaging, nre_USD=nre,
                         total_USD=die + packaging + nre)


def hardware_total_USD(c: CostParams, n_devices: int = 32) -> float:
    """Fleet hardware cost: host, PIM memory, switch, controllers."""
    unit = controller_unit_cost(c)
    return (c.host_cost_USD + c.pim_memory_cost_USD + c.switch_cost_USD +
            n_devices * unit.total_USD)


# ---------------------------------------------------------------------------
# TCO


def tco_per_hour(c: CostParams, fleet_avg_W: float, mode: str = "OWNED",
                 n_devices: int = 32, host_W: float = 0.0) -> float:
    """Hourly cost of running the fleet at `fleet_avg_W`.

    OWNED: all hardware amortized over the amortization window plus the
    whole fleet's electricity.  RENTAL: the host is rented at an hourly
    price (which covers its own power), while the PIM devices, switch
    and controllers are still owned - amortized plus their electricity;
    `host_W` is the host share excluded from the electricity bill.
    """
    hours = c.amortization_years * HOURS_PER_YEAR
    kwh_price = c.electricity_USD_per_kWh
    if mode == "OWNED":
        return (hardware_total_USD(c, n_devices) / hours +
                fleet_avg_W / 1000 * kwh_price)
    if mode == "RENTAL":
        device_hw = (c.pim_memory_cost_USD + c.switch_cost_USD +
                     n_devices * controller_unit_cost(c).total_USD)
        device_W = max(0.0, fleet_avg_W - host_W)
        return (c.host_rental_USD_per_hr + device_hw / hours +
                device_W / 1000 * kwh_price)
    raise CostError(f"unknown TCO mode {mode!r}")


def tokens_per_dollar(tokens_per_s: float, tco_USD_per_hr: float) -> float:
    if tco_USD_per_hr <= 0:
        raise CostError("tco must be positive")
    return tokens_per_s * 3600.0 / tco_USD_per_hr


@dataclass
class TcoReport:
    hardware_USD: float
    unit_cost: CostBreakdown
    owned_USD_per_hr: float
    rental_USD_per_hr: float
    fleet_avg_W: float
    tokens_per_s: float
    tokens_per_dollar: float      # at the owned rate

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_output(path, json.dumps(self.to_dict(), indent=2) + "\n")


def tco_report(c: CostParams, fleet_avg_W: float, tokens_per_s: float,
               n_devices: int = 32, host_W: float = 0.0) -> TcoReport:
    owned = tco_per_hour(c, fleet_avg_W, "OWNED", n_devices)
    rental = tco_per_hour(c, fleet_avg_W, "RENTAL", n_devices, host_W)
    return TcoReport(
        hardware_USD=hardware_total_USD(c, n_devices),
        unit_cost=controller_unit_cost(c),
        owned_USD_per_hr=owned,
        rental_USD_per_hr=rental,
        fleet_avg_W=fleet_avg_W,
        tokens_per_s=tokens_per_s,
        tokens_per_dollar=(tokens_per_dollar(tokens_per_s, owned)
                           if tokens_per_s > 0 else 0.0))


# ---------------------------------------------------------------------------
# comparison against externally supplied reference figures


def reference_ratios(ours: dict, reference: dict) -> dict:
    """Headline ratios of this system over a reference system.

    Both dicts use the keys `tokens_per_s`, `tokens_per_J`, and
    `tco_USD_per_hr`; the reference figures are external inputs (e.g. a
    published GPU baseline), never measured here.  Tokens-per-dollar for
    each side is throughput*3600/tco.
    """
    for side, d in (("ours", ours), ("reference", reference)):
        for key in ("tokens_per_s", "tokens_per_J", "tco_USD_per_hr"):
            if key not in d:
                raise CostError(f"{side} is missing {key!r}")
            if d[key] <= 0:
                raise CostError(f"{side}[{key!r}] must be positive")
    our_tpd = tokens_per_dollar(ours["tokens_per_s"], ours["tco_USD_per_hr"])
    ref_tpd = tokens_per_dollar(reference["tokens_per_s"],
                                reference["tco_USD_per_hr"])
    return {
        "throughput_ratio": ours["tokens_per_s"] / reference["tokens_per_s"],
        "energy_ratio": ours["tokens_per_J"] / reference["tokens_per_J"],
        "tokens_per_dollar_ratio": our_tpd / ref_tpd,
    }

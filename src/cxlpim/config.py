"""Model, architecture, timing, energy and cost parameters.

All physical quantities carry a unit suffix in their field name:
_ns (nanoseconds), _B (bytes), _W (watts), _pJ (picojoules), _USD (dollars),
_mm / _mm2 (millimetres), _Bps (bytes per second).

The PIM device geometry (word width, row length, banks, accumulators,
reduction trees) is fixed silicon. The lowering, the timing model and the
interpreter are written for it, so it is named once here as module
constants, not as ArchConfig fields that could be set to values nothing
honours. ArchConfig holds what a study may vary: fleet and channel
counts, capacities, clocks, timing, CXL, energy and cost.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

# -- device geometry ---------------------------------------------------------

LANE = 16           # BF16 lanes per 256-bit word
WORD_B = 32         # bytes per word, one DRAM column
ROW_SLOTS = 64      # words (columns) per 2 KB DRAM row; Global Buffer slots
REGS = 32           # accumulation registers per near-bank unit
BANKS = 16          # banks per channel, one near-bank unit each
BANK_GROUPS = 4     # bank groups per channel; EW_MUL runs a triple in each
RED_TREES = 32      # PNM reduction trees; one RED micro-op feeds all

PARAMS_DIR = Path(__file__).parent / "params"
CONFIGS_DIR = Path(__file__).parent / "configs"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    name: str = "model"
    n_layers: int = 80
    d_model: int = 8192
    n_heads: int = 64
    n_kv_heads: int = 8
    d_head: int = 128
    d_ff: int = 28672
    max_context: int = 4096
    weight_precision_B: int = 2  # BF16

    def __post_init__(self) -> None:
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigError(
                f"d_model ({self.d_model}) must equal n_heads*d_head "
                f"({self.n_heads}*{self.d_head})")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads "
                f"({self.n_kv_heads})")
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name != "name" and v <= 0:
                raise ConfigError(f"{f.name} must be positive, got {v}")
        if self.weight_precision_B != 2:
            raise ConfigError(
                f"weight_precision_B must be 2 (BF16, the only format the "
                f"compiler and interpreter handle), got "
                f"{self.weight_precision_B}")


@dataclass(frozen=True)
class TimingParams:
    tRCDRD_ns: float = 18.0
    tRAS_ns: float = 27.0
    tCL_ns: float = 25.0
    tCCDS_ns: float = 1.0
    tRP_ns: float = 16.0
    # refresh is off by default; enable for sensitivity studies only
    refresh_enabled: bool = False
    tREFI_ns: float = 1900.0
    tRFC_ns: float = 110.0
    # controller front-end cost per decoded instruction
    dispatch_ns: float = 0.5
    pnm_fill_cycles: int = 4

    def __post_init__(self) -> None:
        if self.tRAS_ns < self.tRCDRD_ns:
            raise ConfigError("tRAS must be >= tRCDRD")
        for name in ("tRCDRD_ns", "tRAS_ns", "tCL_ns", "tCCDS_ns",
                     "tRP_ns", "dispatch_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.tREFI_ns <= 0:
            raise ConfigError("tREFI_ns must be positive")


@dataclass(frozen=True)
class CxlParams:
    # PCIe 6.0 x4 per direction, derated by protocol efficiency
    link_bandwidth_Bps: float = 32e9
    link_efficiency: float = 0.9
    base_latency_ns: float = 400.0
    multicast_latency_factor: float = 2.0
    multicast_bandwidth_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.link_bandwidth_Bps <= 0 or self.link_efficiency <= 0:
            raise ConfigError("link bandwidth/efficiency must be positive")
        if self.multicast_latency_factor <= 0 or self.multicast_bandwidth_factor <= 0:
            raise ConfigError("multicast factors must be positive")

    @property
    def effective_bandwidth_Bps(self) -> float:
        return self.link_bandwidth_Bps * self.link_efficiency


@dataclass(frozen=True)
class EnergyParams:
    # per bank, per ACTab+PREab pair
    e_act_pre_pJ: float = 5127.0
    # per bank, per 256-bit MAC column
    e_mac_col_pJ: float = 153.3
    # per bank, per 256-bit column read / write
    e_rd_col_pJ: float = 1095.0
    e_wr_col_pJ: float = 1383.0
    p_background_W_per_channel: float = 0.13
    p_memctrl_W_per_2ch: float = 0.3146
    p_scalar_core_W: float = 0.25
    p_ctrl_logic_W: float = 1.06
    p_host_W: float = 100.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be >= 0")


@dataclass(frozen=True)
class CostParams:
    wafer_cost_USD: float = 9346.0
    wafer_diameter_mm: float = 300.0
    defect_density_per_mm2: float = 0.0015
    controller_area_mm2: float = 19.0
    packaging_fraction: float = 0.29
    nre_total_USD: float = 25.3e6
    production_volume: int = 3_000_000
    pim_memory_cost_USD: float = 11873.0
    switch_cost_USD: float = 490.0
    host_cost_USD: float = 2128.0
    host_rental_USD_per_hr: float = 0.436
    electricity_USD_per_kWh: float = 0.139
    amortization_years: float = 3.0
    # externally supplied GPU figures, used only for ratio reporting
    gpu_reference: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("wafer_cost_USD", "wafer_diameter_mm", "defect_density_per_mm2",
                     "controller_area_mm2", "packaging_fraction", "nre_total_USD",
                     "production_volume", "pim_memory_cost_USD", "switch_cost_USD",
                     "host_cost_USD", "electricity_USD_per_kWh", "amortization_years"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class ArchConfig:
    n_devices: int = 32
    channels_per_device: int = 32
    bank_capacity_B: int = 32 * MB
    shared_buffer_B: int = 64 * KB
    pnm_clock_Hz: float = 2e9
    n_scalar_cores: int = 8
    timing: TimingParams = field(default_factory=TimingParams)
    cxl: CxlParams = field(default_factory=CxlParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    cost: CostParams = field(default_factory=CostParams)

    def __post_init__(self) -> None:
        for name in ("n_devices", "channels_per_device", "bank_capacity_B",
                     "shared_buffer_B", "pnm_clock_Hz", "n_scalar_cores"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def __getstate__(self) -> dict:
        # only the fields: what other modules cache on a config (isa's
        # compiled operand rules) is rebuilt from them on first use
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    # -- derived geometry ----------------------------------------------------

    @property
    def rows_per_bank(self) -> int:
        return self.bank_capacity_B // (ROW_SLOTS * WORD_B)  # 16384

    @property
    def sb_slots(self) -> int:
        return self.shared_buffer_B // WORD_B  # 2048

    @property
    def channel_capacity_B(self) -> int:
        return BANKS * self.bank_capacity_B  # 512 MB

    @property
    def device_capacity_B(self) -> int:
        return self.channels_per_device * self.channel_capacity_B  # 16 GB


def block_footprint(model: ModelSpec, context: int) -> tuple[int, int]:
    """Per-transformer-block (weights, kv_cache) footprint in bytes.

    Weights: Q and O projections (2*d^2), K and V projections
    (2*d*d_head*n_kv_heads), gate/up/down FFN matrices (3*d*d_ff).
    KV cache: keys and values for `context` tokens of one prompt.
    """
    if context > model.max_context:
        raise ConfigError(
            f"context {context} exceeds max_context {model.max_context}")
    if context < 0:
        raise ConfigError("context must be >= 0")
    p = model.weight_precision_B
    d = model.d_model
    weights = (2 * d * d + 2 * d * model.d_head * model.n_kv_heads +
               3 * d * model.d_ff) * p
    kv = 2 * context * model.d_head * model.n_kv_heads * p
    return weights, kv


# -- loading -----------------------------------------------------------------

def _build(cls, data: dict, where: str):
    known = {f.name for f in dataclasses.fields(cls)}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"{where}: unknown field(s) {sorted(bad)}")
    try:
        return cls(**data)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from e


def arch_from_dict(data: dict[str, Any]) -> ArchConfig:
    data = dict(data)
    sub = {"timing": TimingParams, "cxl": CxlParams,
           "energy": EnergyParams, "cost": CostParams}
    for key, cls in sub.items():
        if key in data and isinstance(data[key], dict):
            data[key] = _build(cls, data[key], f"arch.{key}")
    return _build(ArchConfig, data, "arch")


def model_from_dict(data: dict[str, Any]) -> ModelSpec:
    return _build(ModelSpec, data, "model")


def load_config(path: str | Path) -> tuple[ModelSpec, ArchConfig]:
    """Load a JSON file holding a "model" and/or "arch" section.

    Missing sections and missing optional fields take the defaults above.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # a bare model file (no section keys) is accepted for convenience
    if "model" not in data and "arch" not in data and "n_layers" in data:
        data = {"model": data}
    model = model_from_dict(data.get("model", {}))
    arch = arch_from_dict(data.get("arch", {}))
    return model, arch


def apply_overrides(obj, overrides: dict[str, Any]):
    """Apply dotted-path --set overrides to a frozen dataclass tree."""
    for key, value in overrides.items():
        parts = key.split(".")
        obj = _set_path(obj, parts, value)
    return obj


def _set_path(obj, parts: list[str], value):
    name = parts[0]
    if not any(f.name == name for f in dataclasses.fields(obj)):
        raise ConfigError(f"unknown config field: {name}")
    current = getattr(obj, name)
    if len(parts) > 1:
        if not dataclasses.is_dataclass(current):
            raise ConfigError(f"{name} is a value, not a section")
        child = _set_path(current, parts[1:], value)
        return dataclasses.replace(obj, **{name: child})
    if dataclasses.is_dataclass(current):
        raise ConfigError(f"{name} is a section, not a value")
    if isinstance(current, dict):
        raise ConfigError(f"{name} is a table: set it in a config file "
                          f"(or use --gpu-reference)")
    if isinstance(current, bool):
        value = str(value).lower() in ("1", "true", "yes")
    elif isinstance(current, (int, float)):
        try:
            value = type(current)(value)
        except ValueError:
            raise ConfigError(f"{name}: expected {type(current).__name__}, "
                              f"got {value!r}") from None
    return dataclasses.replace(obj, **{name: value})


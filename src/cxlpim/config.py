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
import functools
import json
import os
import sys
import types
import typing
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
# abs(v) <= FLOAT_MAX fails for NaN, the infinities and ints too large
FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    pass


class JsonSyntaxError(ConfigError):
    """Text that does not parse as JSON."""


def load_json(text: str, where) -> Any:
    """`text` read as JSON, the one reader of JSON from outside the
    program. What `json` cannot read ends in a ConfigError naming
    `where`: a syntax error (a JsonSyntaxError), an integer with more
    digits than the interpreter converts, which `json` raises as a
    plain ValueError, or arrays or objects nested past the recursion
    limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise JsonSyntaxError(f"{where}: line {e.lineno}: {e.msg}") from None
    except ValueError:
        raise ConfigError(f"{where}: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ConfigError(f"{where}: nested too deeply") from None


def write_output(path, text: str) -> None:
    """Write `text` to the file `path`, as `Path.write_text` does, the
    one writer of the program's output files. An existing file is
    overwritten in place and then cut to length, not truncated first:
    on ext4, closing a file that was truncated to zero and written
    again starts its flush to disk (auto_da_alloc), which made each
    write of a report about 0.4 ms instead of 0.04 ms."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def check_numbers(obj, positive: bool, but: tuple = ()) -> None:
    """Every number field of `obj` must be finite and >= 0, and > 0 if
    `positive` unless it is named in `but` (and the other way round)."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        strict = positive != (f.name in but)
        if type(v) in (int, float) and (not abs(v) <= FLOAT_MAX or v < 0
                                        or (strict and v == 0)):
            raise ConfigError(f"{f.name} must be finite and "
                              f"{'positive' if strict else '>= 0'}, got {v}")


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
        check_numbers(self, positive=True)
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigError(
                f"d_model ({self.d_model}) must equal n_heads*d_head "
                f"({self.n_heads}*{self.d_head})")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads "
                f"({self.n_kv_heads})")
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
        check_numbers(self, positive=False, but=("tREFI_ns",))
        if self.tRAS_ns < self.tRCDRD_ns:
            raise ConfigError("tRAS must be >= tRCDRD")


@dataclass(frozen=True)
class CxlParams:
    # PCIe 6.0 x4 per direction, derated by protocol efficiency
    link_bandwidth_Bps: float = 32e9
    link_efficiency: float = 0.9
    base_latency_ns: float = 400.0
    multicast_latency_factor: float = 2.0
    multicast_bandwidth_factor: float = 0.5

    def __post_init__(self) -> None:
        check_numbers(self, positive=True, but=("base_latency_ns",))

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
        check_numbers(self, positive=False)


@dataclass(frozen=True)
class GpuReference:
    """Externally supplied GPU figures, used only for ratio reporting."""
    tokens_per_s: float
    tokens_per_J: float
    tco_owned_USD_per_hr: float
    tco_rental_USD_per_hr: float | None = None
    name: str = ""
    model: str = ""

    def __post_init__(self) -> None:
        check_numbers(self, positive=True)


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
        check_numbers(self, positive=True, but=("host_rental_USD_per_hr",))
        if self.gpu_reference:
            build(GpuReference, self.gpu_reference, "gpu_reference")


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
        check_numbers(self, positive=True)

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

_hints = functools.cache(typing.get_type_hints)

_KINDS = {float: "a finite number", int: "an integer", bool: "true or false",
          str: "a string", list: "a list", dict: "an object"}


def typed(value, hint, where: str):
    """`value` checked against the annotation `hint`; ConfigError naming
    `where` if it does not match. A dataclass takes a JSON object (see
    `build`). An int is never a bool. A float takes any finite int or
    float and stores it as a float. `X | None`, `list[X]` and
    `dict[str, X]` check their items."""
    if hint is float:
        if type(value) in (int, float) and abs(value) <= FLOAT_MAX:
            return float(value)
    elif type(value) is hint:
        return value
    elif dataclasses.is_dataclass(hint):
        return build(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:                     # X | None
        return None if value is None else typed(value, args[0], where)
    if origin is list and type(value) is list:
        return [typed(v, args[0], f"{where}[{i}]")
                for i, v in enumerate(value)]
    if origin is dict and type(value) is dict:
        return {k: typed(v, args[1], f"{where}.{k}")
                for k, v in value.items()}
    kind = origin or hint
    raise ConfigError(f"{where}: expected {_KINDS.get(kind, kind.__name__)}, "
                      f"got {value!r}")


def build(cls, data, where: str):
    """An instance of dataclass `cls` from the JSON object `data`: every
    field is checked by `typed` against its annotation, sections
    recurse, missing optional fields take their defaults and the
    class's own `__post_init__` checks follow."""
    if type(data) is not dict:
        raise ConfigError(f"{where}: expected an object, got {data!r}")
    hints = _hints(cls)
    bad = data.keys() - hints.keys()
    if bad:
        raise ConfigError(f"{where}: unknown field(s) {sorted(bad)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in data
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {missing}")
    kwargs = {k: typed(v, hints[k], f"{where}.{k}") for k, v in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def load_config(path: str | Path) -> tuple[ModelSpec, ArchConfig]:
    """Load a JSON file holding a "model" and/or "arch" section.

    Missing sections and missing optional fields take the defaults above.
    """
    path = Path(path)
    data = load_json(path.read_text(), path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # a bare model file (no section keys) is accepted for convenience
    if "model" not in data and "arch" not in data and "n_layers" in data:
        data = {"model": data}
    model = build(ModelSpec, data.pop("model", {}), f"{path}: model")
    arch = build(ArchConfig, data.pop("arch", {}), f"{path}: arch")
    if data:
        raise ConfigError(f"{path}: unknown section(s) {sorted(data)}")
    return model, arch


def apply_overrides(obj, overrides: dict[str, Any], where: str = ""):
    """Apply dotted-path --set overrides to a frozen dataclass tree, a
    string value read as JSON if it parses (else as a string) and then
    checked by `typed`; `where` names `obj` in error messages."""
    for key, value in overrides.items():
        path = f"{where}.{key}" if where else key
        if isinstance(value, str):
            try:
                value = load_json(value, path)
            except JsonSyntaxError:
                pass
        obj = _set_path(obj, key.split("."), value, path)
    return obj


def _set_path(obj, parts: list[str], value, where: str):
    name = parts[0]
    hints = _hints(type(obj))
    if name not in hints:
        raise ConfigError(f"unknown config field: {name}")
    if len(parts) > 1:
        current = getattr(obj, name)
        if not dataclasses.is_dataclass(current):
            raise ConfigError(f"{name} is a value, not a section")
        value = _set_path(current, parts[1:], value, where)
    else:
        value = typed(value, hints[name], where)
    return dataclasses.replace(obj, **{name: value})

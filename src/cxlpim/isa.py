"""Instruction set: opcodes, operand rules and micro-op counts.

An instruction is an opcode, its operands in the order OPCODE_FIELDS
lists them, and the MAC_ABK source, COPY bank and RED mode flags. An
instruction stream is scoped to one CXL device.

`check_operands` holds every rule a legal instruction obeys: each
operand in range, a column run inside one DRAM row, a WR_GB run inside
the Global Buffer and each Shared Buffer slot run inside the Shared
Buffer. `make_instruction`, both compiler sinks and `validate_trace`
call it, so every emitted instruction is held to the same rules.
`microop_count` gives the micro-ops an instruction expands to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .config import BANKS, RED_TREES, REGS, ROW_SLOTS, ArchConfig

OPCODE_FIELDS: dict[str, tuple[str, ...]] = {
    "MAC_ABK":   ("CHmask", "OPsize", "RO", "CO", "Regid"),
    "EW_MUL":    ("CHmask", "OPsize", "RO", "CO"),
    "AF":        ("CHmask", "AFid", "Regid"),
    "EXP":       ("OPsize", "Rd", "Rs"),
    "RED":       ("OPsize", "Rd", "Rs"),
    "ACC":       ("OPsize", "Rd", "Rs"),
    "RISCV":     ("OPsize", "PC", "Rd", "Rs"),
    "SEND_CXL":  ("DVid", "Rs", "Rd"),
    "RECV_CXL":  (),
    "BCAST_CXL": ("DVcount", "Rs", "Rd"),
    "WR_SBK":    ("CHid", "OPsize", "BK", "RO", "CO", "Rs"),
    "RD_SBK":    ("CHid", "OPsize", "BK", "RO", "CO", "Rd"),
    "WR_ABK":    ("CHid", "RO", "CO", "Rs", "Regid"),
    "COPY_BKGB": ("CHmask", "OPsize", "RO", "CO"),
    "COPY_GBBK": ("CHmask", "OPsize", "RO", "CO"),
    "WR_BIAS":   ("CHmask", "Rs"),
    "RD_MAC":    ("CHmask", "Rd", "Regid"),
    "WR_GB":     ("CHmask", "OPsize", "CO", "Rs"),
}

# opcode -> operand name -> position in `operands`
FIELD_INDEX: dict[str, dict[str, int]] = {
    op: {name: i for i, name in enumerate(fields)}
    for op, fields in OPCODE_FIELDS.items()}

ARITHMETIC_OPCODES = frozenset(
    {"MAC_ABK", "EW_MUL", "AF", "EXP", "RED", "ACC", "RISCV"})

# opcodes whose OPsize micro-ops walk DRAM columns CO+i
_COLUMN_WALKERS = frozenset({"MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK",
                             "WR_SBK", "RD_SBK"})
# opcodes whose OPsize micro-ops walk Shared Buffer slot runs
_SLOT_RUNS = {"EXP": ("Rs", "Rd"), "RED": ("Rs",), "ACC": ("Rs", "Rd"),
              "RISCV": ("Rs", "Rd"), "WR_SBK": ("Rs",), "RD_SBK": ("Rd",),
              "WR_GB": ("Rs",)}

AF_NAMES = {0: "SILU", 1: "GELU", 2: "SIGMOID", 3: "TANH"}


class IsaError(ValueError):
    pass


# the config whose operand rules apply when none is given
_DEFAULT_ARCH = ArchConfig()


@dataclass(frozen=True)
class Instruction:
    opcode: str
    operands: tuple[int, ...]
    # MAC_ABK second-operand source: Global Buffer or neighbouring bank
    source_select: str = "GB"
    # COPY_BKGB/COPY_GBBK target bank
    copy_bank: int = 0
    # RED reduction mode
    red_mode: str = "SUM"

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("opcode", "operands",
                                            "source_select", "copy_bank",
                                            "red_mode"):
            raise AttributeError(name)  # keeps pickling sane
        i = FIELD_INDEX.get(self.opcode, {}).get(name)
        if i is None:
            raise AttributeError(name)
        return self.operands[i]


def _operand_rules(cfg: Optional[ArchConfig]) -> dict:
    """opcode -> (bounds, extents), built once per config and cached on
    it. `bounds` is ((name, lo, hi), ...) in operand order, each operand
    in [lo, hi). `extents` is ((base index, OPsize index, limit,
    message), ...): operands[base] + OPsize must not exceed limit, and
    `message` is formatted with both when it does."""
    cfg = cfg or _DEFAULT_ARCH
    cached = getattr(cfg, "_isa_rules", None)
    if cached is not None:
        return cached
    chans = cfg.channels_per_device
    table = {
        "CHmask": (1, 1 << chans),
        "CHid":   (0, chans),
        "OPsize": (1, 1 << 16),
        "RO":     (0, cfg.rows_per_bank),
        "CO":     (0, ROW_SLOTS),
        "BK":     (0, BANKS),
        "Regid":  (0, REGS),
        "AFid":   (0, len(AF_NAMES)),
        "Rs":     (0, cfg.sb_slots),
        "Rd":     (0, cfg.sb_slots),
        "DVid":   (0, cfg.n_devices),
        "DVcount": (1, 256),
        "PC":     (0, 1 << 32),
    }
    rules = {}
    for op, fields in OPCODE_FIELDS.items():
        idx = FIELD_INDEX[op]
        bounds = [(name, *table[name]) for name in fields]
        extents = []
        if op == "WR_GB":
            # WR_GB's CO indexes Global Buffer slots, not DRAM columns
            bounds[idx["CO"]] = ("CO", 0, cfg.gb_slots)
            extents.append((idx["CO"], idx["OPsize"], cfg.gb_slots,
                            "WR_GB: slots {}+{} exceed Global Buffer "
                            f"({cfg.gb_slots} slots)"))
        elif op in _COLUMN_WALKERS:
            extents.append((idx["CO"], idx["OPsize"], ROW_SLOTS,
                            f"{op}: columns {{}}+{{}} cross the row boundary "
                            f"({ROW_SLOTS} columns per row); split at rows"))
        for name in _SLOT_RUNS.get(op, ()):
            extents.append((idx[name], idx["OPsize"], cfg.sb_slots,
                            f"{op}: {name}={{}} run of {{}} exceeds Shared "
                            f"Buffer ({cfg.sb_slots} slots)"))
        rules[op] = (tuple(bounds), tuple(extents))
    object.__setattr__(cfg, "_isa_rules", rules)
    return rules


def check_operands(opcode: str, operands: tuple, *, source_select: str = "GB",
                   copy_bank: int = 0, red_mode: str = "SUM",
                   cfg: Optional[ArchConfig] = None) -> None:
    """Raise IsaError unless `opcode` is known, `operands` (in
    OPCODE_FIELDS order) are in range, every column and slot run they
    start stays inside its row or buffer, and the flags are valid.
    `copy_bank` takes any value; it is accepted so that callers can pass
    make_instruction's keywords through unchanged."""
    rules = _operand_rules(cfg).get(opcode)
    if rules is None:
        raise IsaError(f"unknown mnemonic: {opcode}")
    bounds, extents = rules
    if len(operands) != len(bounds):
        fields = OPCODE_FIELDS[opcode]
        raise IsaError(f"{opcode}: expected {len(fields)} operands "
                       f"({' '.join(fields)}), got {len(operands)}")
    for (name, lo, hi), value in zip(bounds, operands):
        if not lo <= value < hi:
            raise IsaError(
                f"{opcode}: operand {name}={value} out of range [{lo}, {hi})")
    for base, size, limit, message in extents:
        if operands[base] + operands[size] > limit:
            raise IsaError(message.format(operands[base], operands[size]))
    if source_select not in ("GB", "BANK"):
        raise IsaError(f"MAC_ABK source must be GB or BANK, got {source_select}")
    if red_mode not in ("SUM", "MAX"):
        raise IsaError(f"RED mode must be SUM or MAX, got {red_mode}")


def make_instruction(opcode: str, *operands: int, source_select: str = "GB",
                     copy_bank: int = 0, red_mode: str = "SUM",
                     cfg: Optional[ArchConfig] = None) -> Instruction:
    check_operands(opcode, operands, source_select=source_select,
                   copy_bank=copy_bank, red_mode=red_mode, cfg=cfg)
    return Instruction(opcode, tuple(int(v) for v in operands),
                       source_select=source_select, copy_bank=int(copy_bank),
                       red_mode=red_mode)


def mask_channels(mask: int) -> list[int]:
    if not mask & (mask - 1):  # one channel (or none): most masks
        return [mask.bit_length() - 1] if mask else []
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def microop_count(opcode: str, operands: tuple) -> int:
    """Micro-ops the instruction expands to: OPsize per channel for the
    CHmask opcodes that walk columns or Global Buffer slots, one per
    channel for the other CHmask opcodes, one per chunk of RED_TREES
    slots for RED, OPsize for the other OPsize opcodes and one for the
    rest."""
    idx = FIELD_INDEX[opcode]
    i = idx.get("OPsize")
    opsize = 1 if i is None else operands[i]
    if "CHmask" in idx:
        pop = operands[idx["CHmask"]].bit_count()
        if opcode in ("MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK", "WR_GB"):
            return opsize * pop
        return pop
    if opcode == "RED":
        return (opsize + RED_TREES - 1) // RED_TREES
    # WR_SBK, RD_SBK, EXP, ACC and RISCV walk OPsize; the rest is one
    return opsize


@dataclass(frozen=True)
class Finding:
    device: Optional[int]
    index: Optional[int]
    kind: str
    message: str


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def well_formed(self) -> bool:
        return not self.findings


def validate_trace(trace, cfg: ArchConfig) -> ValidationReport:
    """Check every instruction with `check_operands`, and SEND/RECV
    pairing.

    `trace` is either a list of Instructions (one device) or a mapping
    of device id to instruction list (pairing is checked fleet-wide).
    """
    if isinstance(trace, dict):
        per_device = trace
    else:
        per_device = {0: list(trace)}
    report = ValidationReport()
    expected_recv: dict[int, int] = {d: 0 for d in per_device}
    seen_recv: dict[int, int] = {d: 0 for d in per_device}

    for dev, insts in per_device.items():
        for idx, inst in enumerate(insts):
            try:
                check_operands(inst.opcode, inst.operands,
                               source_select=inst.source_select,
                               copy_bank=inst.copy_bank,
                               red_mode=inst.red_mode, cfg=cfg)
            except IsaError as e:
                report.findings.append(Finding(dev, idx, "range", str(e)))
                continue
            if inst.opcode == "SEND_CXL":
                expected_recv[inst.DVid] = expected_recv.get(inst.DVid, 0) + 1
            elif inst.opcode == "BCAST_CXL":
                for k in range(1, inst.DVcount + 1):
                    dest = (dev + k) % cfg.n_devices
                    expected_recv[dest] = expected_recv.get(dest, 0) + 1
            elif inst.opcode == "RECV_CXL":
                seen_recv[dev] = seen_recv.get(dev, 0) + 1

    for dev in sorted(set(expected_recv) | set(seen_recv)):
        want, got = expected_recv.get(dev, 0), seen_recv.get(dev, 0)
        if want != got and (dev in per_device or want):
            report.findings.append(Finding(
                dev, None, "pairing",
                f"device {dev}: {want} sends targeting it, {got} receives"))
    return report


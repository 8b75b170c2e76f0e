"""Instruction set: assembly format, decoding, and micro-op expansion.

One instruction per line, whitespace-separated operands, `#` comments.
CHmask is written in hex, everything else in decimal. A trace file is
scoped to one CXL device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .config import BANKS, RED_TREES, REGS, ROW_SLOTS, ArchConfig

# operand order matches the assembly format exactly
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
DATA_MOVEMENT_OPCODES = frozenset(OPCODE_FIELDS) - ARITHMETIC_OPCODES
CXL_OPCODES = frozenset({"SEND_CXL", "RECV_CXL", "BCAST_CXL"})

# opcodes whose OPsize micro-ops walk DRAM columns CO+i
_COLUMN_WALKERS = frozenset({"MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK",
                             "WR_SBK", "RD_SBK"})
# opcodes whose OPsize micro-ops walk Shared Buffer slot runs
_SLOT_RUNS = {"EXP": ("Rs", "Rd"), "RED": ("Rs",), "ACC": ("Rs", "Rd"),
              "RISCV": ("Rs", "Rd"), "WR_SBK": ("Rs",), "RD_SBK": ("Rd",),
              "WR_GB": ("Rs",)}

AF_NAMES = {0: "SILU", 1: "GELU", 2: "SIGMOID", 3: "TANH"}
AF_IDS = {v: k for k, v in AF_NAMES.items()}


class IsaError(ValueError):
    pass


# the config whose operand ranges apply when none is given
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

    def get(self, name: str, default: Optional[int] = None) -> Optional[int]:
        i = FIELD_INDEX[self.opcode].get(name)
        return default if i is None else self.operands[i]


@dataclass(frozen=True)
class MicroOp:
    opcode: str
    channel: Optional[int]   # None for PNM / CXL micro-ops
    banks: tuple[int, ...]
    row: Optional[int]
    col: Optional[int]
    slot: Optional[int]
    seq: int


def _range_table(cfg: Optional[ArchConfig]) -> dict:
    """Operand field name -> (inclusive lower, exclusive upper) bound."""
    cfg = cfg or _DEFAULT_ARCH
    chans = cfg.channels_per_device
    return {
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
        "GBslot": (0, cfg.gb_slots),
    }


def _field_range(name: str, cfg: Optional[ArchConfig]) -> tuple[int, int]:
    """Inclusive lower bound, exclusive upper bound for an operand field."""
    return _range_table(cfg)[name]


def _operand_bounds(cfg: Optional[ArchConfig]) -> dict:
    """opcode -> ((name, lo, hi), ...) in operand order, built once per
    config and cached on it."""
    cfg = cfg or _DEFAULT_ARCH
    cached = getattr(cfg, "_isa_bounds", None)
    if cached is not None:
        return cached
    table = _range_table(cfg)
    # WR_GB's CO indexes Global Buffer slots, not DRAM columns
    bounds = {op: tuple((name, *table["GBslot" if op == "WR_GB"
                                      and name == "CO" else name])
                        for name in fields)
              for op, fields in OPCODE_FIELDS.items()}
    object.__setattr__(cfg, "_isa_bounds", bounds)
    return bounds


def check_operands(opcode: str, operands: tuple, *, source_select: str = "GB",
                   copy_bank: int = 0, red_mode: str = "SUM",
                   cfg: Optional[ArchConfig] = None) -> None:
    """Raise IsaError unless `opcode` is known and `operands` (in
    assembly order) and the flags are in range. `copy_bank` takes any
    value; it is accepted so that callers can pass make_instruction's
    keywords through unchanged."""
    bounds = _operand_bounds(cfg).get(opcode)
    if bounds is None:
        raise IsaError(f"unknown mnemonic: {opcode}")
    if len(operands) != len(bounds):
        fields = OPCODE_FIELDS[opcode]
        raise IsaError(f"{opcode}: expected {len(fields)} operands "
                       f"({' '.join(fields)}), got {len(operands)}")
    for (name, lo, hi), value in zip(bounds, operands):
        if not lo <= value < hi:
            raise IsaError(
                f"{opcode}: operand {name}={value} out of range [{lo}, {hi})")
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


def parse_instruction(line: str, cfg: Optional[ArchConfig] = None) -> Instruction:
    text = line.split("#", 1)[0].strip()
    if not text:
        raise IsaError("empty instruction line")
    tokens = text.split()
    opcode = tokens[0]
    if opcode not in OPCODE_FIELDS:
        raise IsaError(f"unknown mnemonic: {opcode!r}")
    fields = OPCODE_FIELDS[opcode]
    args = tokens[1:]

    source_select = "GB"
    copy_bank = 0
    red_mode = "SUM"
    if opcode == "MAC_ABK" and len(args) == len(fields) + 1:
        suffix = args.pop()
        if suffix not in ("GB", "BANK"):
            raise IsaError(f"MAC_ABK: bad source suffix {suffix!r}")
        source_select = suffix
    elif opcode == "RED" and len(args) == len(fields) + 1:
        suffix = args.pop()
        if suffix not in ("SUM", "MAX"):
            raise IsaError(f"RED: bad mode suffix {suffix!r}")
        red_mode = suffix
    elif opcode in ("COPY_BKGB", "COPY_GBBK") and len(args) == len(fields) + 1:
        copy_bank = _parse_int(opcode, "BK", args.pop(), len(fields) + 1)

    if len(args) != len(fields):
        raise IsaError(f"{opcode}: expected {len(fields)} operands "
                       f"({' '.join(fields)}), got {len(args)}")
    values = []
    for pos, (name, tok) in enumerate(zip(fields, args), start=1):
        if name == "AFid" and tok in AF_IDS:
            values.append(AF_IDS[tok])
        else:
            values.append(_parse_int(opcode, name, tok, pos))
    return make_instruction(opcode, *values, source_select=source_select,
                            copy_bank=copy_bank, red_mode=red_mode, cfg=cfg)


def _parse_int(opcode: str, name: str, tok: str, pos: int) -> int:
    try:
        return int(tok, 16) if tok.lower().startswith("0x") else int(tok, 10)
    except ValueError:
        raise IsaError(
            f"{opcode}: operand {pos} ({name}): bad token {tok!r}") from None


def format_instruction(inst: Instruction) -> str:
    parts = [inst.opcode]
    for name, value in zip(OPCODE_FIELDS[inst.opcode], inst.operands):
        if name == "CHmask":
            parts.append(f"0x{value:X}")
        elif name == "AFid":
            parts.append(AF_NAMES[value])
        else:
            parts.append(str(value))
    if inst.opcode == "MAC_ABK" and inst.source_select == "BANK":
        parts.append("BANK")
    if inst.opcode == "RED" and inst.red_mode == "MAX":
        parts.append("MAX")
    if inst.opcode in ("COPY_BKGB", "COPY_GBBK") and inst.copy_bank != 0:
        parts.append(str(inst.copy_bank))
    return " ".join(parts)


def mask_channels(mask: int) -> list[int]:
    if not mask & (mask - 1):  # one channel (or none): most masks
        return [mask.bit_length() - 1] if mask else []
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def expand_microops(inst: Instruction, cfg: ArchConfig) -> list[MicroOp]:
    op = inst.opcode
    all_banks = tuple(range(BANKS))
    opsize = inst.get("OPsize", 1)
    out: list[MicroOp] = []

    if "CHmask" in OPCODE_FIELDS[op]:
        channels = mask_channels(inst.CHmask)
        if not channels:
            raise IsaError(f"{op}: empty channel mask")
        co = inst.get("CO")
        if op == "WR_GB":
            if co + opsize > cfg.gb_slots:
                raise IsaError(f"WR_GB: slots {co}+{opsize} exceed Global "
                               f"Buffer ({cfg.gb_slots} slots)")
        elif op in _COLUMN_WALKERS and co is not None:
            if co + opsize > ROW_SLOTS:
                raise IsaError(
                    f"{op}: columns {co}+{opsize} cross the row boundary "
                    f"({ROW_SLOTS} columns per row); split at rows")
        for ch in channels:
            if op in ("MAC_ABK", "EW_MUL", "COPY_BKGB", "COPY_GBBK", "WR_GB"):
                for i in range(opsize):
                    slot = inst.Rs + i if op == "WR_GB" else None
                    out.append(MicroOp(op, ch, all_banks, inst.get("RO"),
                                       co + i, slot, i))
            else:  # AF, WR_BIAS, RD_MAC
                slot = inst.get("Rs", inst.get("Rd"))
                out.append(MicroOp(op, ch, all_banks, None, None, slot, 0))
        return out

    if "CHid" in OPCODE_FIELDS[op]:
        ch = inst.CHid
        if op == "WR_ABK":
            return [MicroOp(op, ch, all_banks, inst.RO, inst.CO, inst.Rs, 0)]
        if inst.CO + opsize > ROW_SLOTS:
            raise IsaError(
                f"{op}: columns {inst.CO}+{opsize} cross the row boundary "
                f"({ROW_SLOTS} columns per row); split at rows")
        slot_base = inst.Rs if op == "WR_SBK" else inst.Rd
        return [MicroOp(op, ch, (inst.BK,), inst.RO, inst.CO + i,
                        slot_base + i, i) for i in range(opsize)]

    if op == "RED":
        # all reduction trees run in parallel; one micro-op ingests a
        # chunk of up to RED_TREES slots
        return [MicroOp(op, None, (), None, None, inst.Rs + i * RED_TREES, i)
                for i in range((opsize + RED_TREES - 1) // RED_TREES)]
    if op in ("EXP", "ACC", "RISCV"):
        return [MicroOp(op, None, (), None, None, inst.Rs + i, i)
                for i in range(opsize)]
    # SEND_CXL / RECV_CXL / BCAST_CXL
    slot = inst.get("Rs")
    return [MicroOp(op, None, (), None, None, slot, 0)]


def microop_count(opcode: str, operands: tuple) -> int:
    """Micro-op count by formula, without materializing the expansion."""
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
    """Check operand ranges, slot-run overflows, and SEND/RECV pairing.

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
                expand_microops(inst, cfg)
            except IsaError as e:
                report.findings.append(Finding(dev, idx, "range", str(e)))
                continue
            for run_field in _SLOT_RUNS.get(inst.opcode, ()):
                base = inst.get(run_field)
                if base + inst.get("OPsize", 1) > cfg.sb_slots:
                    report.findings.append(Finding(
                        dev, idx, "slot-overflow",
                        f"{inst.opcode}: {run_field}={base} run of "
                        f"{inst.get('OPsize', 1)} exceeds {cfg.sb_slots} slots"))
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


def parse_trace(text: str, cfg: Optional[ArchConfig] = None) -> list[Instruction]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            out.append(parse_instruction(body, cfg))
        except IsaError as e:
            raise IsaError(f"line {lineno}: {e}") from None
    return out

"""Instruction set: opcodes, operand rules and micro-op counts.

An instruction is an opcode, its operands in the order OPCODE_FIELDS
lists them, and the MAC_ABK source, COPY bank and RED mode flags. An
instruction stream is scoped to one CXL device.

`check_operands` holds every rule a legal instruction obeys: each
operand in range, a column run inside one DRAM row, a WR_GB run inside
the Global Buffer and each Shared Buffer slot run inside the Shared
Buffer. `make_instruction`, both compiler sinks and `validate_trace`
call it, so every emitted instruction is held to the same rules.

The rules are one table per config (`_operand_rules`): each operand's
bounds and each run's extent. Configs equal in the numbers the table
reads share one table. From that table each opcode gets one compiled
predicate, a straight line of comparisons against the table's numbers,
which every check runs. Only an instruction it rejects walks the
table, to name the first rule broken, so the predicate and the error
messages cannot drift apart.

`microop_count` gives the micro-ops an instruction expands to, by the
per-opcode rule in MICROOP_RULES that the compiler's counters read too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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

# opcode -> (OPsize index, CHmask index, slots per micro-op): the
# instruction expands to ceil(OPsize / slots per micro-op) micro-ops on
# each channel of its CHmask. An absent OPsize counts as 1 and an absent
# CHmask as one channel. RED's 32 reduction trees take RED_TREES slots
# per micro-op; every other opcode takes one.
MICROOP_RULES: dict[str, tuple[Optional[int], Optional[int], int]] = {
    op: (idx.get("OPsize"), idx.get("CHmask"),
         RED_TREES if op == "RED" else 1)
    for op, idx in FIELD_INDEX.items()}

_MAC_SOURCES = ("GB", "BANK")
_RED_MODES = ("SUM", "MAX")


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


class _Rule(NamedTuple):
    """One opcode's operand rules on one config."""
    # ((name, lo, hi), ...) in operand order: each operand in [lo, hi)
    bounds: tuple
    # ((base index, OPsize index, limit, message), ...): operands[base] +
    # OPsize must not exceed limit; `message` is formatted with both
    extents: tuple
    # bounds and extents compiled into one predicate on the operand tuple
    accepts: Callable[[tuple], bool]


def _compile(tables: dict) -> dict:
    """opcode -> the predicate that holds exactly when an operand tuple
    has len(bounds) operands and keeps every bound and extent, given
    opcode -> (bounds, extents). Each is one unpack and a straight line
    of comparisons against the rules' numbers; all compile at once."""
    defs = []
    for op, (bounds, extents) in tables.items():
        numbers = [x for _, lo, hi in bounds for x in (lo, hi)]
        numbers += [limit for _, _, limit, _ in extents]
        if not all(type(x) in (int, float) for x in numbers):
            raise TypeError(f"{op}: operand rules must be numbers, "
                            f"got {numbers}")
        names = [f"v{i}" for i in range(len(bounds))]
        terms = [f"{lo!r} <= {v} < {hi!r}"
                 for v, (_, lo, hi) in zip(names, bounds)]
        terms += [f"{names[base]} + {names[size]} <= {limit!r}"
                  for base, size, limit, _ in extents]
        defs.append(f"def {op}(operands):\n"
                    f"    try:\n"
                    f"        [{', '.join(names)}] = operands\n"
                    f"    except ValueError:\n"
                    f"        return False\n"
                    f"    return {' and '.join(terms) or 'True'}\n")
    scope: dict = {}
    exec("\n".join(defs), {"__builtins__": {"ValueError": ValueError}}, scope)
    return {op: scope[op] for op in tables}


def _operand_rules(cfg: Optional[ArchConfig]) -> dict[str, _Rule]:
    """opcode -> _Rule for a config, cached on it (pickling an
    ArchConfig leaves the cache behind). Configs equal in the numbers
    the rules read share one table."""
    cfg = cfg or _DEFAULT_ARCH
    cached = getattr(cfg, "_isa_rules", None)
    if cached is not None:
        return cached
    rules = _rules_for(cfg.channels_per_device, cfg.rows_per_bank,
                       cfg.gb_slots, cfg.sb_slots, cfg.n_devices)
    object.__setattr__(cfg, "_isa_rules", rules)
    return rules


@functools.lru_cache(maxsize=64)
def _rules_for(chans: int, rows_per_bank: int, gb_slots: int,
               sb_slots: int, n_devices: int) -> dict[str, _Rule]:
    """Build and compile the rule table of one set of config numbers."""
    table = {
        "CHmask": (1, 1 << chans),
        "CHid":   (0, chans),
        "OPsize": (1, 1 << 16),
        "RO":     (0, rows_per_bank),
        "CO":     (0, ROW_SLOTS),
        "BK":     (0, BANKS),
        "Regid":  (0, REGS),
        "AFid":   (0, len(AF_NAMES)),
        "Rs":     (0, sb_slots),
        "Rd":     (0, sb_slots),
        "DVid":   (0, n_devices),
        "DVcount": (1, 256),
        "PC":     (0, 1 << 32),
    }
    tables = {}
    for op, fields in OPCODE_FIELDS.items():
        idx = FIELD_INDEX[op]
        bounds = [(name, *table[name]) for name in fields]
        extents = []
        if op == "WR_GB":
            # WR_GB's CO indexes Global Buffer slots, not DRAM columns
            bounds[idx["CO"]] = ("CO", 0, gb_slots)
            extents.append((idx["CO"], idx["OPsize"], gb_slots,
                            "WR_GB: slots {}+{} exceed Global Buffer "
                            f"({gb_slots} slots)"))
        elif op in _COLUMN_WALKERS:
            extents.append((idx["CO"], idx["OPsize"], ROW_SLOTS,
                            f"{op}: columns {{}}+{{}} cross the row boundary "
                            f"({ROW_SLOTS} columns per row); split at rows"))
        for name in _SLOT_RUNS.get(op, ()):
            extents.append((idx[name], idx["OPsize"], sb_slots,
                            f"{op}: {name}={{}} run of {{}} exceeds Shared "
                            f"Buffer ({sb_slots} slots)"))
        tables[op] = (tuple(bounds), tuple(extents))
    accepts = _compile(tables)
    return {op: _Rule(*tables[op], accepts[op]) for op in tables}


def _first_broken_rule(opcode: str, operands: tuple, source_select: str,
                       red_mode: str, cfg: Optional[ArchConfig]
                       ) -> Optional[str]:
    """Walk the rule table in order and describe the first rule the
    instruction breaks, or return None if it keeps them all."""
    rule = _operand_rules(cfg).get(opcode)
    if rule is None:
        return f"unknown mnemonic: {opcode}"
    if len(operands) != len(rule.bounds):
        fields = OPCODE_FIELDS[opcode]
        return (f"{opcode}: expected {len(fields)} operands "
                f"({' '.join(fields)}), got {len(operands)}")
    for (name, lo, hi), value in zip(rule.bounds, operands):
        if not lo <= value < hi:
            return f"{opcode}: operand {name}={value} out of range [{lo}, {hi})"
    for base, size, limit, message in rule.extents:
        if operands[base] + operands[size] > limit:
            return message.format(operands[base], operands[size])
    if source_select not in _MAC_SOURCES:
        return f"MAC_ABK source must be GB or BANK, got {source_select}"
    if red_mode not in _RED_MODES:
        return f"RED mode must be SUM or MAX, got {red_mode}"
    return None


def check_operands(opcode: str, operands: tuple, *, source_select: str = "GB",
                   copy_bank: int = 0, red_mode: str = "SUM",
                   cfg: Optional[ArchConfig] = None) -> None:
    """Raise IsaError unless `opcode` is known, `operands` (in
    OPCODE_FIELDS order) are in range, every column and slot run they
    start stays inside its row or buffer, and the flags are valid.
    `copy_bank` takes any value; it is accepted so that callers can pass
    make_instruction's keywords through unchanged.

    The opcode's compiled predicate decides; the table walk that names
    the broken rule runs only when it rejects."""
    rule = _operand_rules(cfg).get(opcode)
    if (rule is not None and rule.accepts(operands)
            and source_select in _MAC_SOURCES and red_mode in _RED_MODES):
        return
    message = _first_broken_rule(opcode, operands, source_select, red_mode,
                                 cfg)
    if message is not None:
        raise IsaError(message)


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
    """Micro-ops the instruction expands to (see MICROOP_RULES): OPsize
    per channel for the CHmask opcodes that walk columns or Global
    Buffer slots, one per channel for the other CHmask opcodes, one per
    chunk of RED_TREES slots for RED, OPsize for the other OPsize
    opcodes and one for the rest."""
    size_i, mask_i, per_uop = MICROOP_RULES[opcode]
    n = 1 if size_i is None else -(-operands[size_i] // per_uop)
    return n if mask_i is None else n * operands[mask_i].bit_count()


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


#!/usr/bin/env python3
"""Derive the per-command DRAM energies that `EnergyParams` defaults to.

Per-command energies follow the standard current-based methodology for
DRAM power estimation: each command's energy is the supply voltage
times the current delta it draws over the standby floor, integrated
over the window in which that delta flows.

  E(ACT+PRE, per bank)   = VDD * dI_act      * tRC        (tRAS + tRP)
  E(column, per column)  = VDD * dI_cmd      * tCCDS      (gapless burst)
  P(standby, per channel)= VDD * I_standby

The windows are the `TimingParams` defaults. Datasheets for 8Gb GDDR6
parts do not publish currents for near-bank MAC columns, and published
IDD tables vary by speed grade, so the current deltas below are
calibrated: they are chosen within the range plausible for an 8Gb GDDR6
C-die so that the resulting energies reproduce the measured per-device
power of the reference 70B pipeline run (see tests). The controller-die
static powers are inputs, not derived, and are carried over from the
defaults.

    python3 scripts/derive_dram_energy.py           # print the derivation
    python3 scripts/derive_dram_energy.py --check   # exit 1 unless the
                                                    # defaults equal it
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cxlpim.config import EnergyParams, TimingParams  # noqa: E402

VDD_V = 1.35

# calibrated current deltas (amperes) over the all-bank standby floor
DI_ACT_PER_BANK_A = 0.0883204   # one bank's share of an all-bank activate
DI_MAC_COL_PER_BANK_A = 0.1135556  # row-buffer read + 16-lane MAC datapath
DI_RD_COL_A = 0.8111111         # column read burst incl. I/O
DI_WR_COL_A = 1.0244444         # column write burst incl. I/O
I_STANDBY_PER_CHANNEL_A = 0.0963

STATIC = ("p_memctrl_W_per_2ch", "p_scalar_core_W", "p_ctrl_logic_W",
          "p_host_W")


def derive() -> dict:
    """Every `EnergyParams` field: the DRAM energies derived here, the
    static powers as the defaults hold them."""
    t, defaults = TimingParams(), EnergyParams()
    t_rc_ns = t.tRAS_ns + t.tRP_ns
    pj = 1000.0  # V * A * ns -> nJ; *1000 -> pJ
    params = {
        "e_act_pre_pJ": round(VDD_V * DI_ACT_PER_BANK_A * t_rc_ns * pj, 1),
        "e_mac_col_pJ": round(VDD_V * DI_MAC_COL_PER_BANK_A * t.tCCDS_ns
                              * pj, 1),
        "e_rd_col_pJ": round(VDD_V * DI_RD_COL_A * t.tCCDS_ns * pj, 1),
        "e_wr_col_pJ": round(VDD_V * DI_WR_COL_A * t.tCCDS_ns * pj, 1),
        "p_background_W_per_channel": round(VDD_V * I_STANDBY_PER_CHANNEL_A,
                                            3),
    }
    params.update({k: getattr(defaults, k) for k in STATIC})
    return params


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless the EnergyParams defaults equal "
                         "the derivation")
    args = ap.parse_args(argv)
    params = derive()
    print(json.dumps(params, indent=2))
    if args.check:
        defaults = dataclasses.asdict(EnergyParams())
        differ = sorted(k for k in defaults if defaults[k] != params.get(k))
        if differ:
            print(f"error: EnergyParams defaults differ from the "
                  f"derivation in {differ}", file=sys.stderr)
            return 1
        print("EnergyParams defaults match the derivation",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

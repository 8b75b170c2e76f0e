"""Byte-identical outputs: the sha256 of every artifact of five `simulate`
runs and of a two-row toy sweep, pinned.

A refactor must leave these bytes alone. A change that moves them on
purpose (a correctness fix) updates the pins here and names the fix.

Moved on purpose so far: timing prices each tensor-parallel gather at
the share every sender sends, as the compiled trace records it, not at
a whole vector per sender (`70b-tp` and `70b-hybrid`), and `plan.json`
no longer lists communication events (every `plan.json`).
"""

import hashlib
import json

import pytest

from cxlpim import cli

SIMULATE = {
    "toy": (["--model", "toy", "--prefill", "16", "--decode", "48",
             "--seq-gap", "1"], {
        "energy.json": "0df13e2eae48bddcae98672b9ff63aa4"
                       "f6b1d0b92ec0345e64406c3f6d53da10",
        "plan.json": "a78baa74f0aab03e727ef53cab46315b"
                     "1192f41f6bc7be744f418f2c386db7bd",
        "ratios.json": "f01529c04110e5310ad562e9a6f59b99"
                       "87fd5c4a34a6e391b31f42420908f5af",
        "report.json": "ecb12e77f5f732f067e4f2eb5e58152d"
                       "5169455fd856dd09bdceaac4b0bb6fec",
        "tco.json": "117babac11c0339f81cb051fa2c877aa"
                    "9d635192e271ade831d540f89019de2f",
    }),
    "toy-2": (["--model", "toy", "--devices", "2", "--prefill", "8",
               "--decode", "56", "--seq-gap", "5"], {
        "energy.json": "199d01f1c8ce0a221820dd02e61479a4"
                       "0b48882b049de86db777a7c6d4735bc5",
        "plan.json": "fdd064f9873ab957a986caf68181959f"
                     "aa2d239eebdefb2007e2764019159a46",
        "ratios.json": "f6f65af467277b6bcdc14b2a93d134bd"
                       "7f37c2c22c83d537f26f853d8371a497",
        "report.json": "91330fcef2dfaa1492f6380468071f5b"
                       "9c4d7a02014cb07624b12f7436655f68",
        "tco.json": "c457c904623ac6b74a93bcc1602bb61e"
                    "28c892f32efd04c547b876323c8f65d1",
    }),
    "7b-pp8": (["--model", "llama2_7b", "--devices", "8", "--prefill",
                "512", "--decode", "3584", "--seq-gap", "512"], {
        "energy.json": "7257a814c74314d89b094b8f568d339a"
                       "60df644965cde77dcc0a1256ed478c46",
        "plan.json": "30e0b8669defe798abc81f52acce0196"
                     "f79888884dc695863b79afe3f33f40b0",
        "ratios.json": "5fad02d248bd135d04edaed45a59d860"
                       "a19759359690d2ba7b9977984aa4e4f2",
        "report.json": "2011ad41ebddd77fe8f135388975f74a"
                       "a4d3b97fa2f87a0ec78998d3d7203384",
        "tco.json": "c202d3859eb087424c7773b3c31de63c"
                    "ff946e87eb6d8e8a9e3de730f5469c65",
    }),
    "70b-hybrid": (["--model", "llama2_70b", "--strategy", "hybrid",
                    "--tp", "4", "--pp", "8", "--prefill", "0",
                    "--decode", "4096", "--seq-gap", "4096"], {
        "energy.json": "50337b110e0b54a55e08a80865e57d41"
                       "c9152d698801d45406e99b240ffcb9b7",
        "plan.json": "104419fbdcc92dc617135547cc125acd"
                     "4c0b86447e40e855b971035d86c58fb1",
        "ratios.json": "cbbbe8b1ba07aa2920a81560321f1003"
                       "289af016706c6e6ff5460628f82bd59c",
        "report.json": "b244207e4e5c73008564a10a0cac0786"
                       "6b4c577752ce3979f3e916c7cc231339",
        "tco.json": "ce2b4e60c7d9c79096460553f11694ed"
                    "8234422fbbd4f5ac4e9c4e121755a8f2",
    }),
    "70b-tp": (["--model", "llama2_70b", "--strategy", "tp", "--prefill",
                "0", "--decode", "4096", "--seq-gap", "4096"], {
        "energy.json": "6d12bd421eb2cfc2ca0e29f00fb1e81d"
                       "8431b51852d68443c837a06de596fe92",
        "plan.json": "764f1206a0878967ea119e4efbbc9a9e"
                     "505730da1bfbb5168e768a8e20c979e1",
        "ratios.json": "27552ccc0bc570fdd7958fdab67d03be"
                       "146ed0f5582897913731a98d96469b82",
        "report.json": "ef5093e7a977801e4effb9660833ddf7"
                       "4fd6e8e2c938ed41f24afb4d564b070d",
        "tco.json": "5d46c4a77cab5907e8e23891274fb3d6"
                    "ebd0e0c82f8583706cb468f41f15c4bd",
    }),
}

SWEEP = [{"model": "toy", "prefill": 16, "decode": 48, "seq_gap": 1},
         {"model": "toy", "devices": 2, "prefill": 8, "decode": 56,
          "seq_gap": 5}]
SWEEP_SHA256 = ("78dc4101ab3fc9728908c22048165065"
                "869b8b02ebe9309e5c9833ef7bd42320")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_outputs_are_pinned(name, tmp_path, capsys):
    argv, pins = SIMULATE[name]
    assert cli.main(["simulate", *argv, "--out", str(tmp_path)]) == 0
    got = {p.name: _sha256(p) for p in sorted(tmp_path.iterdir())}
    assert got == pins


def test_sweep_csv_is_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_SHA256

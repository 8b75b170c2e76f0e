"""Byte-identical outputs: the sha256 of every artifact of five `simulate`
runs and of a two-row toy sweep, pinned.

A refactor must leave these bytes alone. A change that moves them on
purpose (a correctness fix) updates the pins here and names the fix.
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
        "plan.json": "ea328a30c67404836eb31bcac812def3"
                     "f33c31800b07844ed8db11b14288e890",
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
        "plan.json": "92ce8af72f4d31b5e91c3f830c79acac"
                     "9b782ba3d12fffb295059214db382698",
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
        "plan.json": "0c26ec24bfa38ba6f84098c3c486e549"
                     "e4b3467660adbfe33fac403a61f578a8",
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
        "energy.json": "ce853d36b691b05cbeed0f52e5eec106"
                       "01bb969850b0f5f8317c88fc4c75ae2b",
        "plan.json": "4e84ac0810dc12158b91211bd3ecf35e"
                     "9d8caed76950d8f92ddff0cc9794d7f4",
        "ratios.json": "e9ff0724c8105db634f81300bfef8afb"
                       "417319b5a76dc0471ba3dbdae1c378f2",
        "report.json": "741de10404d6e9982acaa55e281ce0c3"
                       "75d2c2cca58b260755ee1f8842d36a77",
        "tco.json": "6c4acbc4540bd5619f174f530fe2b9ec"
                    "b0a316bbbaca759bbbd7ae57fbed03b4",
    }),
    "70b-tp": (["--model", "llama2_70b", "--strategy", "tp", "--prefill",
                "0", "--decode", "4096", "--seq-gap", "4096"], {
        "energy.json": "391580056f40b83425f3ef77eed87da2"
                       "9c6f552a68090eb9fc61bf6f6918c7d9",
        "plan.json": "2dcfcf58828500fe458abb2a11df6c29"
                     "d887ccf9f2186a310a0f6137531f40f4",
        "ratios.json": "07cefa9b0eacb0fcad2da733961210552"
                       "bec25d8519c47267798b210562400d1",
        "report.json": "8df8f3b377f3cd56c1f860b17f3e69f8"
                       "54b1d043d6b12c66ac9daf0e1150cab8",
        "tco.json": "69091bf9b073b17444bc42fd20fe5d10"
                    "afb5b43b0741dea732bd61828c86032d",
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

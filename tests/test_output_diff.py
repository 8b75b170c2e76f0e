"""scripts/output_diff.py names each JSON field and CSV cell that differs
between two output directories, with its relative change."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_diff.py"


def _output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _write_outputs(root: Path, tokens_per_s: float, j_per_token: str):
    run = root / "tp70b"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps({
        "strategy": "TP", "tokens_per_s": tokens_per_s,
        "breakdown_ns": {"cxl": 2.5, "pim": 7.0}, "seq_gap": [128, 1]}))
    (run / "notes.txt").write_text("same bytes\n")
    (root / "sweep.csv").write_text(
        "model,tokens_per_s,J_per_token\n"
        f"toy,1972.1,0.5\nllama2_70b,581.3,{j_per_token}\n")


def test_one_line_per_changed_json_field_and_csv_cell(tmp_path, capsys):
    script = _output_diff()
    old, new = tmp_path / "old", tmp_path / "new"
    _write_outputs(old, 61.9, "1.9626")
    _write_outputs(new, 76.4, "1.88544")
    assert script.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "sweep.csv:1.J_per_token  1.9626 -> 1.88544  (-3.93%)",
        "tp70b/report.json:tokens_per_s  61.9 -> 76.4  (+23.42%)",
    ]
    assert script.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out == ""

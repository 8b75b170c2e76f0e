"""Command-line runner tests."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cxlpim import cli, energycost
from cxlpim.config import CONFIGS_DIR

TOY_ARGS = ["--model", "toy", "--context", "64",
            "--prefill", "4", "--decode", "8", "--seq-gap", "1"]

TOY_SPEC = {"model": "toy", "context": 64, "prefill": 4, "decode": 8,
            "seq_gap": 1}

TOY_MODEL = json.loads((CONFIGS_DIR / "toy.json").read_text())["model"]

# an integer with more digits than the interpreter converts: json
# cannot write it, so the files that hold it are JSON text
HUGE = "1" * 5001

# input files of the error cases below, written to the working directory
BAD_FILES = {
    "layers_float.json": {"model": {**TOY_MODEL, "n_layers": 2.5}},
    "context_float.json": {"model": {**TOY_MODEL, "max_context": 64.5}},
    "layers_bool.json": {"model": {**TOY_MODEL, "n_layers": True}},
    "name_number.json": {"model": {**TOY_MODEL, "name": 5}},
    "layers_huge.json": {"model": {**TOY_MODEL, "n_layers": 10 ** 400}},
    "arch_list.json": {"model": TOY_MODEL, "arch": []},
    "section_typo.json": {"modle": TOY_MODEL},
    "timing_number.json": {"arch": {"timing": 5}},
    "gpu_partial.json": {"tokens_per_s": 10},
    "gpu_list.json": [1],
    "layers_digits.json": json.dumps({"model": {**TOY_MODEL, "n_layers": 0}})
    .replace('"n_layers": 0', f'"n_layers": {HUGE}'),
    "gpu_digits.json": f'{{"tokens_per_s": {HUGE}}}',
    "specs_digits.json": f'[{{"model": "toy", "context": {HUGE}}}]',
}


def test_compile_writes_plan_and_summary(tmp_path):
    rc = cli.main(["compile", "--model", "toy", "--context", "64",
                   "--out", str(tmp_path)])
    assert rc == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["strategy"] == "PP"
    assert plan["batch_size"] == 2
    summary = json.loads((tmp_path / "trace_summary.json").read_text())
    assert summary["model"] == "toy"
    assert summary["block_classes"]
    cls = summary["block_classes"][0]
    assert cls["microops"]["MAC_ABK"] > 0
    assert 0 < cls["mac_fraction"] <= 1


def test_verify_toy_passes(capsys):
    rc = cli.main(["verify", "--model", "toy", "--devices", "1",
                   "--pos", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bit-exact" in out
    assert "PASS" in out


def test_verify_two_device_pipeline_passes(capsys):
    rc = cli.main(["verify", "--model", "toy", "--devices", "2",
                   "--pos", "20"])
    assert rc == 0
    assert "bit-exact" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # CompileError: 256 rows do not split over tp=3
    ["simulate", "--model", "toy", "--strategy", "hybrid", "--tp", "3",
     "--prefill", "0", "--decode", "16"],
    # ConfigError at load: the 32 accumulation registers are fixed
    # geometry, not a config field
    ["simulate", "--model", "toy", "--set", "arch.acc_registers=16",
     "--prefill", "0", "--decode", "16"],
    # ConfigError at load: RISC-V routine prices are a table in isa
    ["simulate", "--model", "toy", "--set", "arch.timing.rv_cycles=5",
     "--prefill", "0", "--decode", "16"],
    # ConfigError: a --set path through a value, onto a table, and a
    # value that does not parse
    ["simulate", "--model", "toy", "--set",
     "arch.cost.gpu_reference.tokens_per_s=5", "--prefill", "0",
     "--decode", "16"],
    ["simulate", "--model", "toy", "--set", "arch.cost.gpu_reference=5",
     "--prefill", "0", "--decode", "16"],
    ["simulate", "--model", "toy", "--set", "model.n_layers=abc",
     "--prefill", "0", "--decode", "16"],
    # ConfigError: values the timing model divides by
    ["simulate", "--model", "toy", "--set", "arch.timing.tREFI_ns=0",
     "--prefill", "0", "--decode", "16"],
    ["simulate", "--model", "toy", "--set", "arch.pnm_clock_Hz=0",
     "--prefill", "0", "--decode", "16"],
    # CompileError: positions outside the toy's 64-position KV cache,
    # raised before any output is written
    ["verify", "--model", "toy", "--pos", "-3"],
    ["compile", "--model", "toy", "--pos", "9999", "--out", "out"],
    ["compile", "--model", "toy", "--pos", "-1", "--out", "out"],
    # TimingError: an explicit zero decode is not the default decode
    ["simulate", "--model", "toy", "--decode", "0"],
    # an explicit zero context is not the default context either
    ["compile", "--model", "toy", "--context", "0", "--out", "out"],
    ["simulate", "--model", "toy", "--context", "0", "--out", "out"],
    # ConfigError at load: weights are BF16, the only format the
    # compiler and the interpreter handle
    ["simulate", "--model", "llama2_7b", "--devices", "8", "--set",
     "model.weight_precision_B=1", "--out", "out"],
    # ConfigError at load: fields that priced nothing are gone
    ["simulate", "--model", "toy", "--set", "arch.timing.tRCDWR_ns=14",
     "--out", "out"],
    ["simulate", "--model", "toy", "--set", "arch.energy.name=x",
     "--out", "out"],
    # CliError: tensor-parallel and hybrid plans span arch.n_devices, so
    # a --devices that differs is rejected, not ignored
    ["verify", "--model", "mid", "--strategy", "tp", "--devices", "2",
     "--pos", "5"],
    ["simulate", "--model", "llama2_70b", "--strategy", "tp", "--devices",
     "8", "--out", "out"],
    ["simulate", "--model", "llama2_70b", "--strategy", "hybrid", "--tp",
     "4", "--pp", "8", "--devices", "8", "--out", "out"],
    # ConfigError at load: every value is checked against its field's
    # type, so no float, bool or number lands in an int or string field
    ["simulate", "--model", "layers_float.json", "--out", "out"],
    ["simulate", "--model", "context_float.json", "--out", "out"],
    ["simulate", "--model", "layers_bool.json", "--out", "out"],
    ["simulate", "--model", "name_number.json", "--out", "out"],
    # an integer too large for a float
    ["simulate", "--model", "layers_huge.json", "--out", "out"],
    # ... and one with more digits than the interpreter converts, in a
    # file, a --set value, a GPU reference or a sweep spec
    ["simulate", "--model", "layers_digits.json", "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", f"model.n_layers={HUGE}",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--gpu-reference", "gpu_digits.json",
     "--out", "out"],
    ["sweep", "--spec", "specs_digits.json", "--out", "out"],
    # ... and a section is an object
    ["simulate", "--model", "arch_list.json", "--out", "out"],
    # ... and a file holds no section but model and arch
    ["simulate", "--model", "section_typo.json", "--out", "out"],
    ["simulate", "--model", "toy", "--arch", "timing_number.json",
     "--out", "out"],
    # ... and so is a GPU reference, with every figure the ratios read
    ["simulate", *TOY_ARGS, "--gpu-reference", "gpu_partial.json",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--gpu-reference", "gpu_list.json",
     "--out", "out"],
    # ConfigError: numbers are finite and >= 0, and --set reads JSON
    ["simulate", *TOY_ARGS, "--set", "arch.timing.pnm_fill_cycles=-4",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", "arch.timing.refresh_enabled=maybe",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", "arch.cxl.base_latency_ns=-400",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", "arch.cxl.link_efficiency=inf",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", "arch.cxl.link_efficiency=Infinity",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", "arch.timing.tCCDS_ns=nan",
     "--out", "out"],
    ["simulate", *TOY_ARGS, "--set", "arch.timing.tCCDS_ns=NaN",
     "--out", "out"],
])
def test_lowering_errors_exit_2_with_one_line(argv, capsys, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_text(
            data if isinstance(data, str) else json.dumps(data))
    assert cli.main(argv) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_functional_simulation_error_exits_2(monkeypatch, capsys):
    from cxlpim import funcsim

    def deadlock(*args, **kwargs):
        raise funcsim.SimError("deadlock")

    monkeypatch.setattr(funcsim, "run_trace", deadlock)
    rc = cli.main(["verify", "--model", "toy", "--devices", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: functional simulation: deadlock\n")


@pytest.mark.parametrize("argv, note", [
    (["verify", "--model", "mid", "--devices", "2", "--pos", "5"],
     "note: device 1 of 2 idle\n"),
    (["simulate", *TOY_ARGS], "note: devices 2-31 of 32 idle\n"),
    (["compile", "--model", "llama2_70b", "--strategy", "tp", "--pos", "0",
      "--out", "out"], ""),
])
def test_idle_devices_named_in_one_note(argv, note, capsys, tmp_path,
                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == note


@pytest.mark.parametrize("devices", ["0", "-1"])
def test_nonpositive_devices_rejected(devices, capsys):
    assert cli.main(["simulate", "--model", "toy", "--devices", devices,
                     "--prefill", "0", "--decode", "4"]) == 2
    assert capsys.readouterr().err == (
        f"error: --devices must be positive, got {devices}\n")


@pytest.mark.parametrize("tp, pp, bad", [
    (1, 0, "pp must be positive, got 0"),
    (0, 1, "tp must be positive, got 0"),
    (-1, 1, "tp must be positive, got -1"),
])
def test_nonpositive_tp_or_pp_rejected(tp, pp, bad, capsys, tmp_path):
    assert cli.main(["simulate", "--model", "toy", "--strategy", "hybrid",
                     "--tp", str(tp), "--pp", str(pp),
                     "--prefill", "0", "--decode", "4"]) == 2
    assert capsys.readouterr().err == f"error: {bad}\n"
    spec = write_spec(tmp_path, [{**TOY_SPEC, "strategy": "hybrid",
                                  "tp": tp, "pp": pp}])
    assert cli.main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        f"row 0 (toy): MappingError: {bad}\n1 row(s) failed\n")


def test_simulate_writes_artifacts(tmp_path, capsys):
    rc = cli.main(["simulate", *TOY_ARGS, "--out", str(tmp_path)])
    assert rc == 0
    for name in ("report.json", "energy.json", "tco.json", "ratios.json",
                 "plan.json"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tokens_per_s"] > 0
    energy = json.loads((tmp_path / "energy.json").read_text())
    assert energy["device_avg_W"] > 0
    assert "tokens/s" in capsys.readouterr().out


def test_report_matches_simulate(tmp_path):
    sim_dir = tmp_path / "sim"
    rep_dir = tmp_path / "rep"
    assert cli.main(["simulate", *TOY_ARGS, "--out", str(sim_dir)]) == 0
    assert cli.main(["report", "--model", "toy",
                     "--report", str(sim_dir / "report.json"),
                     "--out", str(rep_dir)]) == 0
    a = json.loads((sim_dir / "energy.json").read_text())
    b = json.loads((rep_dir / "energy.json").read_text())
    assert a == b
    ta = json.loads((sim_dir / "tco.json").read_text())
    tb = json.loads((rep_dir / "tco.json").read_text())
    assert ta == tb
    assert sorted(p.name for p in rep_dir.iterdir()) == [
        "energy.json", "ratios.json", "tco.json"]


# the fields of a saved toy report, every one well typed
SAVED_REPORT = {
    "strategy": "PP", "n_active_devices": 2, "dp_replicas": 1,
    "batch_size": 2, "prefill_tokens": 4, "decode_tokens": 8, "seq_gap": 1,
    "token_latency_ns": 9000.0, "token_step_ns": 4500.0,
    "prefill_ns": 36000.0, "decode_ns": 72000.0, "tokens_per_s": 2.2e5,
    "breakdown_ns": {"pim": 4000.0, "pnm": 3000.0, "dispatch": 1000.0,
                     "cxl": 1000.0},
    "command_counts": {k: 100.0 for k in energycost.REQUIRED_COUNTS},
    "flops_per_token": 1e6, "mac_microops_per_token": 1e3,
    "channel_utilization": {"0": {"0": 0.5}},
}


# each file and the one stderr line that `report` must print for it
REPORT_ERRORS = [
    ([1, 2], "report: expected an object, got [1, 2]"),
    ({"tokens_per_s": 1}, "report: missing field(s) "
     + str([k for k in SAVED_REPORT if k != "tokens_per_s"])),
    # every field is checked against its type, nested tables too
    ({**SAVED_REPORT, "tokens_per_s": "x"},
     "report.tokens_per_s: expected a finite number, got 'x'"),
    ({**SAVED_REPORT, "decode_tokens": 8.5},
     "report.decode_tokens: expected an integer, got 8.5"),
    ({**SAVED_REPORT, "breakdown_ns": {"pim": "fast"}},
     "report.breakdown_ns.pim: expected a finite number, got 'fast'"),
    ({**SAVED_REPORT, "tokens_per_s": math.nan},
     "report.tokens_per_s: expected a finite number, got nan"),
    # JSON text: what json cannot read names the file
    (f'{{"tokens_per_s": {HUGE}}}', "an integer has more than 4300 digits"),
    ('{"tokens_per_s": ', "line 1: Expecting value"),
    ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
]


@pytest.mark.parametrize("data, message", REPORT_ERRORS,
                         ids=[f"data{i}" for i in range(len(REPORT_ERRORS))])
def test_report_rejects_a_file_that_is_no_saved_report(data, message,
                                                       tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert cli.main(["report", "--model", "toy", "--report", str(path),
                     "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "rep").exists()


def test_report_uses_the_arch_gpu_reference_like_simulate(tmp_path):
    # an arch config's own GPU figures set the ratios of both commands
    reference = energycost.load_reference_figures()
    reference["tokens_per_s"] *= 2
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(
        {"arch": {"cost": {"gpu_reference": reference}}}))
    shipped, sim_dir, rep_dir = (tmp_path / "base", tmp_path / "sim",
                                 tmp_path / "rep")
    assert cli.main(["simulate", *TOY_ARGS, "--out", str(shipped)]) == 0
    assert cli.main(["simulate", *TOY_ARGS, "--arch", str(arch),
                     "--out", str(sim_dir)]) == 0
    assert cli.main(["report", "--model", "toy", "--arch", str(arch),
                     "--report", str(sim_dir / "report.json"),
                     "--out", str(rep_dir)]) == 0
    ratios = json.loads((sim_dir / "ratios.json").read_text())
    assert json.loads((rep_dir / "ratios.json").read_text()) == ratios
    base = json.loads((shipped / "ratios.json").read_text())
    assert ratios["throughput_ratio"] == pytest.approx(
        base["throughput_ratio"] / 2)


def test_set_override_changes_output(tmp_path):
    base = tmp_path / "base"
    slow = tmp_path / "slow"
    assert cli.main(["simulate", *TOY_ARGS, "--out", str(base)]) == 0
    assert cli.main(["simulate", *TOY_ARGS, "--out", str(slow),
                     "--set", "arch.timing.tCL_ns=50"]) == 0
    a = json.loads((base / "report.json").read_text())
    b = json.loads((slow / "report.json").read_text())
    assert b["tokens_per_s"] < a["tokens_per_s"]


def test_missing_config_exits_nonzero(capsys):
    rc = cli.main(["simulate", "--model", "no-such-model"])
    assert rc == 2
    assert "no config file" in capsys.readouterr().err


def test_bad_set_key_exits_nonzero(capsys):
    rc = cli.main(["simulate", *TOY_ARGS, "--set", "timing.tCL_ns=26"])
    assert rc == 2
    assert "model." in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def write_spec(tmp_path, specs):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(specs))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    return lines[1:]


def test_sweep_identical_specs_give_identical_rows(tmp_path):
    spec = write_spec(tmp_path, [TOY_SPEC, TOY_SPEC])
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert rows[0] == rows[1]
    assert rows[0].startswith("toy,32,PP,1,2,1,2,")


def test_sweep_rows_print_no_idle_note(tmp_path, capsys):
    # the toy's 2 blocks leave 30 of 32 devices idle; a sweep's stderr
    # carries failed rows only
    spec = write_spec(tmp_path, [TOY_SPEC])
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_empty_spec_list_writes_header_only(tmp_path):
    spec = write_spec(tmp_path, [])
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert read_rows(out) == []


def test_sweep_context_list_expands_to_rows(tmp_path):
    spec = write_spec(tmp_path, [{**TOY_SPEC, "context": [32, 64]}])
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(read_rows(out)) == 2


# sweep specs that fail their row, and the field each failure names
BAD_ROWS = [
    ({"model": "toy", "bogus_key": 1}, "bogus_key"),
    ({**TOY_SPEC, "devices": 2.5}, "spec.devices"),
    ({**TOY_SPEC, "seq_gap": True}, "spec.seq_gap"),
    ({**TOY_SPEC, "prefill": 4.7}, "spec.prefill"),
    ({**TOY_SPEC, "prefill": "4"}, "spec.prefill"),
    ({**TOY_SPEC, "set": "arch.n_devices=2"}, "spec.set"),
    ({"context": 64}, "spec: missing field(s) ['model']"),
    ({**TOY_SPEC, "set": [f"model.n_layers={HUGE}"]},
     "model.n_layers: an integer has more than 4300 digits"),
]


def test_sweep_isolates_failing_rows(tmp_path, capsys):
    spec = write_spec(tmp_path, [TOY_SPEC, *(s for s, _ in BAD_ROWS),
                                 TOY_SPEC])
    out = tmp_path / "out.csv"
    rc = cli.main(["sweep", "--spec", str(spec), "--out", str(out)])
    assert rc == 1
    rows = read_rows(out)
    assert len(rows) == 2           # the good rows survive
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"{len(BAD_ROWS)} row(s) failed"
    for i, ((bad, field), line) in enumerate(zip(BAD_ROWS, err), start=1):
        assert line.startswith(f"row {i} ({bad.get('model')}): "
                               "ConfigError: "), line
        assert field in line


def test_sweep_output_is_identical_across_worker_counts(tmp_path):
    spec = write_spec(tmp_path, [TOY_SPEC,
                                 {**TOY_SPEC, "decode": 12},
                                 {**TOY_SPEC, "prefill": 8}])
    outputs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out),
                         "--workers", str(workers)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records how many workers a
    sweep asks for and runs its rows in this process, as one worker."""

    def __init__(self, made, max_workers, initializer):
        made.append(max_workers)
        initializer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _record_pools(monkeypatch) -> list:
    made = []
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor",
        lambda max_workers, initializer: _InlinePool(made, max_workers,
                                                     initializer))
    return made


@pytest.mark.parametrize("workers, pools", [(16, [3]), (2, [2]), (1, [])])
def test_sweep_starts_no_more_workers_than_rows(workers, pools, tmp_path,
                                                monkeypatch):
    made = _record_pools(monkeypatch)
    spec = write_spec(tmp_path, [TOY_SPEC, {**TOY_SPEC, "decode": 12},
                                 {**TOY_SPEC, "prefill": 8}])
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out),
                     "--workers", str(workers)]) == 0
    assert made == pools
    assert len(read_rows(out)) == 3


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_workers_below_one(workers, tmp_path, monkeypatch,
                                         capsys):
    made = _record_pools(monkeypatch)
    spec = write_spec(tmp_path, [TOY_SPEC, TOY_SPEC])
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out),
                     "--workers", workers]) == 2
    assert capsys.readouterr().err == (
        f"error: --workers must be positive, got {workers}\n")
    assert made == [] and not out.exists()


def test_sweep_rejects_non_list_spec(tmp_path, capsys):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps({"model": "toy"}))
    rc = cli.main(["sweep", "--spec", str(path),
                   "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "list" in capsys.readouterr().err


@pytest.mark.parametrize("specs, index", [([1], 0), ([TOY_SPEC, "toy"], 1)])
def test_sweep_rejects_spec_that_is_not_an_object(specs, index, tmp_path,
                                                  capsys):
    spec = write_spec(tmp_path, specs)
    assert cli.main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: specs[{index}]: expected an object, "
        f"got {specs[index]!r}\n")


def test_run_config_rejects_unknown_strategy():
    with pytest.raises(cli.CliError, match="strategy"):
        cli.run_config({**TOY_SPEC, "strategy": "zz"})


# ---------------------------------------------------------------------------
# every input ends in a result or in one error line


# what a mutated field becomes: a wrong type, a non-finite or a negative
# number, or a value of the right type that may be out of range
MUTANTS = [None, True, False, -1, -0.5, 0, 2.5, math.nan, math.inf,
           -math.inf, "x", "4", [1], {}]


def _paths(data, prefix=()):
    """Key paths of every field of a tree of JSON objects."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def shipped_inputs(tmp_path_factory):
    """A shipped config with every arch field spelled out, a sweep spec
    and a saved toy report, each as a JSON tree, and a directory to
    write their mutants to."""
    from dataclasses import asdict

    from cxlpim.config import ArchConfig
    work = tmp_path_factory.mktemp("mutants")
    assert cli.main(["simulate", *TOY_ARGS, "--out", str(work / "sim")]) == 0
    report = json.loads((work / "sim" / "report.json").read_text())
    return work, {"config": {"model": TOY_MODEL, "arch": asdict(ArchConfig())},
                  "spec": dict(TOY_SPEC), "report": report}


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_input_runs_or_ends_in_one_error_line(shipped_inputs,
                                                        data, capsys):
    work, inputs = shipped_inputs
    kind = data.draw(st.sampled_from(sorted(inputs)))
    tree = json.loads(json.dumps(inputs[kind]))      # a deep copy
    *parents, key = data.draw(st.sampled_from(list(_paths(tree))))
    node = tree
    for p in parents:
        node = node[p]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(st.sampled_from(MUTANTS))
    path = work / f"{kind}.json"
    path.write_text(json.dumps([tree] if kind == "spec" else tree))
    capsys.readouterr()
    if kind == "config":
        argv = ["simulate", "--model", str(path), "--context", "16",
                "--prefill", "0", "--decode", "4", "--seq-gap", "4"]
    elif kind == "spec":
        argv = ["sweep", "--spec", str(path), "--out", str(work / "o.csv")]
    else:
        argv = ["report", "--model", "toy", "--report", str(path),
                "--out", str(work / "rep")]
    rc = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    if rc == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
    elif rc == 1 and kind == "spec":         # the row failed on its own
        assert len(err) == 2 and err[0].startswith("row 0 ("), err
    else:
        assert rc == 0 and not any("error" in line for line in err), err

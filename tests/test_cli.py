"""Command-line runner tests."""

import json

import pytest

from cxlpim import cli, energycost

TOY_ARGS = ["--model", "toy", "--context", "64",
            "--prefill", "4", "--decode", "8", "--seq-gap", "1"]

TOY_SPEC = {"model": "toy", "context": 64, "prefill": 4, "decode": 8,
            "seq_gap": 1}


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
])
def test_lowering_errors_exit_2_with_one_line(argv, capsys, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
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


@pytest.mark.parametrize("data", [[1, 2], {"tokens_per_s": 1}])
def test_report_rejects_a_file_that_is_no_saved_report(data, tmp_path,
                                                       capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert cli.main(["report", "--model", "toy", "--report", str(path),
                     "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a saved simulate report")
    assert err.count("\n") == 1
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


def test_sweep_isolates_failing_rows(tmp_path, capsys):
    spec = write_spec(tmp_path, [TOY_SPEC,
                                 {"model": "toy", "bogus_key": 1},
                                 TOY_SPEC])
    out = tmp_path / "out.csv"
    rc = cli.main(["sweep", "--spec", str(spec), "--out", str(out)])
    assert rc == 1
    rows = read_rows(out)
    assert len(rows) == 2           # the good rows survive
    assert "bogus_key" in capsys.readouterr().err


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
        f"error: {spec}: spec {index} is not an object\n")


def test_run_config_rejects_unknown_strategy():
    with pytest.raises(cli.CliError, match="strategy"):
        cli.run_config({**TOY_SPEC, "strategy": "zz"})

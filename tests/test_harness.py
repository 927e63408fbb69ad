"""Monte Carlo harness and command line interface."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import breakboot as bb
from breakboot.cli import main as cli_main
from breakboot.harness import McConfig, TABLE_HEADER, run_cell, run_table
from breakboot.harness import test_dataset as run_dataset_test
from breakboot.rng import STREAM_UV, derive_seed, generator


def tiny_cfg(**kw):
    base = dict(
        scenario="h0m0", error_case="A", T=80, g=0.0, N=4, B=19,
        test="supwald", scheme="wr", master_seed=7, threads=1,
    )
    base.update(kw)
    return McConfig(**base)


def test_single_replication_rates_are_indicator_values():
    cell = run_cell(tiny_cfg(N=1))
    assert all(r in (0.0, 1.0) for r in cell.rates.values())
    again = run_cell(tiny_cfg(N=1))
    assert cell.rates == again.rates


def test_rates_monotone_in_level():
    cell = run_cell(tiny_cfg(N=6, B=39))
    rates = [cell.rates[a] for a in (0.10, 0.05, 0.01)]
    assert rates[0] >= rates[1] >= rates[2]


def test_shared_streams_across_g():
    # innovations are keyed by (master_seed, j) only, so datasets under
    # null and alternative agree before the shift window
    T = 100
    seed = derive_seed(3, 1)
    d0, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=T, g=0.0, seed=seed))
    d1, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=T, g=-0.2, seed=seed))
    np.testing.assert_array_equal(d0.r, d1.r)
    cut = T // 2
    np.testing.assert_array_equal(d0.y[:cut], d1.y[:cut])
    np.testing.assert_array_equal(d0.x[:cut], d1.x[:cut])
    assert not np.allclose(d0.y[cut:], d1.y[cut:])
    # the raw innovation streams are literally shared
    a = generator(seed, STREAM_UV).standard_normal(8)
    b = generator(seed, STREAM_UV).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_run_table_schema(tmp_path):
    out = tmp_path / "table.csv"
    run_table([replace(tiny_cfg(N=2, B=19), g=0.0)], str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TABLE_HEADER
    assert len(rows) == 4  # header + one row per alpha
    assert rows[1][0] == "h0m0" and rows[1][4] == "supwald"
    # rates are printed with four decimals
    assert len(rows[1][7].split(".")[1]) == 4


def test_run_table_empty_grid(tmp_path):
    out = tmp_path / "empty.csv"
    run_table([], str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows == [TABLE_HEADER]


def test_worker_pool_matches_inline():
    # identical per-replication seeds make the result independent of the
    # worker count
    cfg1 = tiny_cfg(N=4, B=19, threads=1)
    cfg8 = tiny_cfg(N=4, B=19, threads=8)
    cell1 = run_cell(cfg1)
    cell8 = run_cell(cfg8)
    assert cell1.rates == cell8.rates
    assert cell1.rf_break_counts == cell8.rf_break_counts


def test_test_dataset_report(tmp_path):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=100, seed=9))
    spec = bb.scenario_model_spec()
    outcome, report = run_dataset_test(
        bb.make_design(spec, data), bb.BootstrapConfig("wr", 39, 1),
        null_breaks=0, alt_breaks=1, rf_breaks=0,
    )
    assert "statistic:" in report and "p-value" in report
    assert "skipped candidates" in report
    assert 0.0 <= outcome.p_value <= 1.0
    assert outcome.rf_partition.k == 0


def first_stage_fits(design, boot, **kwargs):
    """test_dataset's outcome and its count of first_stage calls, as the
    benchmark's tracer (perfbench/tracer.py) records them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        outcome, _ = run_dataset_test(design, boot, **kwargs)
    finally:
        tracer.uninstall()
    return outcome, sum(span[0] == "first_stage" for span in tracer.spans)


def test_one_first_stage_fit_per_first_stage_used():
    # the sample statistic, the null partition, the null fit and the B
    # samples all read the one first stage the test fits or the pre-test keeps
    spec, boot = bb.scenario_model_spec(), bb.BootstrapConfig("wr", 19, 1)
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=120, seed=3))
    _, fits = first_stage_fits(bb.make_design(spec, data), boot, rf_breaks=0)
    assert fits == 1
    # a pre-test that stops at one break fits its stage-0 and stage-1 first
    # stages, and the test fits none of its own
    data, _ = bb.generate(bb.ScenarioConfig("h1m1", "B", T=120, seed=3))
    outcome, fits = first_stage_fits(bb.make_design(spec, data), boot, null_breaks=1,
                                     alt_breaks=2, rf_breaks="auto")
    assert outcome.rf_partition.k == 1
    assert fits == 2


def test_test_dataset_power_smoke():
    # a large planted shift is detected at the 5% level in a seeded run
    data, _ = bb.generate(bb.ScenarioConfig("h0m1", "A", T=480, g=0.4, seed=4))
    spec = bb.scenario_model_spec()
    outcome, _ = run_dataset_test(
        bb.make_design(spec, data), bb.BootstrapConfig("wr", 99, 4),
        null_breaks=1, alt_breaks=2, rf_breaks=0,
    )
    assert outcome.levels_rejected[0.05]


def test_test_dataset_refuses_an_alpha_before_any_work(monkeypatch):
    # the level is a setting: it is checked before the RF pre-test runs
    calls = []
    monkeypatch.setattr("breakboot.harness.estimate_rf_breaks_design",
                        lambda *a, **k: calls.append(a))
    data, _ = bb.generate(bb.ScenarioConfig("h1m1", "B", T=240, seed=7))
    design = bb.make_design(bb.scenario_model_spec(), data)
    for alphas in ((1.5,), (0.05, 0.0)):
        with pytest.raises(bb.ConfigError):
            run_dataset_test(design, bb.BootstrapConfig("wr", 19, 1),
                             null_breaks=1, alt_breaks=2, alphas=alphas)
    assert calls == []


def test_test_dataset_refuses_bad_break_counts_before_any_work(monkeypatch):
    # the break counts are settings too: checked before the RF pre-test runs
    calls = []
    monkeypatch.setattr("breakboot.harness.estimate_rf_breaks_design",
                        lambda *a, **k: calls.append(a))
    data, _ = bb.generate(bb.ScenarioConfig("h1m1", "B", T=240, seed=7))
    design = bb.make_design(bb.scenario_model_spec(), data)
    for null_breaks, alt_breaks in ((1, 3), (-1, 0)):
        with pytest.raises(bb.ConfigError):
            run_dataset_test(design, bb.BootstrapConfig("wr", 19, 1),
                             null_breaks=null_breaks, alt_breaks=alt_breaks)
    assert calls == []


def test_repeated_levels_are_refused(tmp_path):
    # one level listed twice would give one rate and two table rows
    with pytest.raises(bb.ConfigError):
        tiny_cfg(alphas=(0.05, 0.05))
    assert cli_main(["simulate", "--N", "1", "--B", "9", "--T", "80",
                     "--alpha", "0.05,0.05", "--out", str(tmp_path / "c.csv")]) == 2
    assert not (tmp_path / "c.csv").exists()


def test_cli_gen_and_test(tmp_path):
    data_path = tmp_path / "d.csv"
    rc = cli_main([
        "gen", "--scenario", "h0m0", "--case", "B", "--T", "90",
        "--seed", "7", "--out", str(data_path),
    ])
    assert rc == 0
    data = bb.Dataset.from_csv(str(data_path))
    assert data.T == 90

    spec_path = tmp_path / "spec.json"
    bb.scenario_model_spec().to_json(str(spec_path))
    rc = cli_main([
        "test", "--data", str(data_path), "--spec", str(spec_path),
        "--null-breaks", "0", "--alt-breaks", "1", "--B", "19",
        "--rf-breaks", "0", "--seed", "1",
    ])
    assert rc == 0


def test_cli_bad_break_counts_exit_2(tmp_path):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=7))
    data_path, spec_path = tmp_path / "d.csv", tmp_path / "spec.json"
    data.to_csv(str(data_path))
    bb.scenario_model_spec().to_json(str(spec_path))
    base = ["test", "--data", str(data_path), "--spec", str(spec_path), "--B", "9"]
    assert cli_main(base + ["--alt-breaks", "0", "--rf-breaks", "0"]) == 2
    assert cli_main(base + ["--alt-breaks", "-1", "--rf-breaks", "0"]) == 2
    assert cli_main(base + ["--rf-breaks", "-1"]) == 2
    assert cli_main(base + ["--null-breaks", "1", "--alt-breaks", "3", "--rf-breaks", "0"]) == 2


def test_cli_malformed_data_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    bb.scenario_model_spec().to_json(str(spec_path))
    header = "y,x1,r1,r2,r3,r4\n"
    for name, body in (("header_only.csv", ""), ("short_row.csv", "1,2,3,4,5,6\n7,8\n")):
        data_path = tmp_path / name
        data_path.write_text(header + body)
        assert cli_main(["test", "--data", str(data_path), "--spec", str(spec_path),
                         "--B", "9", "--rf-breaks", "0"]) == 2
        assert name in capsys.readouterr().err


def test_cli_alt_breaks_defaults_to_one_more_than_the_null(tmp_path, capsys):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=7))
    data_path, spec_path = tmp_path / "d.csv", tmp_path / "spec.json"
    data.to_csv(str(data_path))
    bb.scenario_model_spec().to_json(str(spec_path))
    assert cli_main(["test", "--data", str(data_path), "--spec", str(spec_path), "--B", "9",
                     "--rf-breaks", "0", "--null-breaks", "1"]) == 0
    assert "H0: m=1 vs H1: m=2" in capsys.readouterr().out


def test_cli_table_unknown_grid_key_exit_2(tmp_path):
    out = tmp_path / "table.csv"
    # McConfig field names are not flags: a grid entry takes flag names only
    for bad in ([{"tset": "supf"}], [{"g": 0.0}, {"burn_in": 100}], [{"rf_max_breaks": 1}],
                [{"error_case": "B"}], [{"master_seed": 1}], [{"alphas": "0.05"}],
                [{"keep_reps": 1}]):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(bad))
        rc = cli_main([
            "table", "--grid", str(grid), "--N", "1", "--B", "9", "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()


def test_cli_simulate_writes_rows(tmp_path):
    out = tmp_path / "cell.csv"
    rc = cli_main([
        "simulate", "--scenario", "h0m0", "--case", "A", "--T", "80",
        "--N", "2", "--B", "19", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TABLE_HEADER and len(rows) == 4


def test_cli_table_with_grid_and_config(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"g": 0.0}, {"T": 90}]))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": 2, "B": 19, "T": 80}))
    out = tmp_path / "table.csv"
    rc = cli_main([
        "table", "--grid", str(grid), "--config", str(cfgfile),
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7  # header + 2 cells x 3 alphas
    assert rows[1][2] == "80" and rows[4][2] == "90"


def test_cli_grid_entries_take_flag_names_and_text_values(tmp_path):
    # a grid entry is a per-cell --config: flag names, values as typed
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"case": "B"}, {"T": "90", "alpha": "0.05"}]))
    out = tmp_path / "table.csv"
    rc = cli_main([
        "table", "--grid", str(grid), "--T", "80", "--N", "1", "--B", "9",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert [r[1:3] for r in rows[1:]] == [["B", "80"]] * 3 + [["A", "90"]]
    assert rows[4][6] == "0.05"


def test_cli_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"T": 90, "N": 2, "B": 19}))
    out = tmp_path / "cell.csv"
    for T in ("80", "240"):  # 240 is the flag's default, given explicitly
        rc = cli_main([
            "simulate", "--T", T, "--config", str(cfgfile),
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == T


def test_cli_test_alpha_outside_unit_interval_exits_2(tmp_path, capsys):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=7))
    data_path, spec_path = tmp_path / "d.csv", tmp_path / "spec.json"
    data.to_csv(str(data_path))
    bb.scenario_model_spec().to_json(str(spec_path))
    for alpha in ("1.5", "0.05,0"):
        assert cli_main(["test", "--data", str(data_path), "--spec", str(spec_path),
                         "--B", "9", "--rf-breaks", "0", "--alpha", alpha]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_cli_config_errors_exit_2(tmp_path):
    assert cli_main(["table", "--out", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["simulate", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.csv"
    assert cli_main([
        "test", "--data", str(missing), "--spec", str(missing),
    ]) == 2


def test_cli_config_values_take_their_flag_type(tmp_path):
    # a file value converts as the same text on the command line would
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"N": "2", "B": "19", "T": "80", "g": 0}))
    out = tmp_path / "cell.csv"
    assert cli_main(["simulate", "--config", str(cfgfile), "--seed", "3",
                     "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4 and rows[1][2] == "80"


def test_cli_config_value_that_does_not_convert_exits_2(tmp_path, capsys):
    cfgfile, grid, out = tmp_path / "cfg.json", tmp_path / "grid.json", tmp_path / "t.csv"
    for bad in ({"B": "abc"}, {"alpha": [0.1]}, {"T": 80.5}, {"scheme": "wx"}, {"N": None},
                {"T": "abc"}, {"alpha": "0.1,x"}):
        cfgfile.write_text(json.dumps(bad))
        assert cli_main(["simulate", "--config", str(cfgfile)]) == 2, bad
        assert "configuration error" in capsys.readouterr().err
        # the same value as a one-entry grid, checked before the CSV opens
        grid.write_text(json.dumps([bad]))
        assert cli_main(["table", "--grid", str(grid), "--N", "1", "--out", str(out)]) == 2, bad
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_malformed_spec_exits_2(tmp_path, capsys):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=7))
    data_path, spec_path = tmp_path / "d.csv", tmp_path / "spec.json"
    data.to_csv(str(data_path))
    for bad in ("{not json", "[1]", json.dumps({"p1": "x", "p2": 4, "se_regressors": [],
                                                 "rf_instruments": []})):
        spec_path.write_text(bad)
        assert cli_main(["test", "--data", str(data_path), "--spec", str(spec_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_cli_entry_point_runs():
    # the child imports breakboot from where this process found it
    src = os.path.dirname(os.path.dirname(bb.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "breakboot.cli", "gen", "--T", "60", "--out",
         os.devnull],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0

"""Experiment harness: config schema, sweeps, metrics files, CLI."""
import csv
import json

import numpy as np
import pytest
import yaml

from enki.baselines import AbcMcmcConfig, AbcSmcConfig, run_abc_mcmc, run_abc_smc
from enki.cli import main as cli_main
from enki.harness import (
    ALGORITHMS,
    METRICS_FIELDS,
    ConfigError,
    ExperimentConfig,
    format_summary,
    read_metrics_csv,
    resolve_out_dir,
    rmse,
    run_experiment,
    summarize_rows,
    write_metrics_csv,
    write_summary_csv,
)
from enki.inversion import EkiConfig, run_eki
from enki.models import available_models, build_model

HEADER = "algorithm,model,N,seed,sim_count,rmse,wall_time_s,termination,final_temp"


def small_mapping(**extra):
    base = {
        "model": "lingauss",
        "algorithm": "eki-sampling",
        "n_particles": 50,
        "seeds": [0, 1],
        "label": "unit",
    }
    base.update(extra)
    return base


# ------------------------------------------------------------------------ rmse

def test_rmse_examples():
    truth = np.array([1.0, 2.0])
    assert rmse(np.tile(truth, (5, 1)), truth) == 0.0
    params = np.array([[2.0, 2.0], [0.0, 2.0]])  # errors (1, 0), (-1, 0)
    assert rmse(params, truth) == pytest.approx(np.sqrt(0.5))
    assert rmse(np.array([3.0, 2.0]), truth) == pytest.approx(np.sqrt(2.0))


def test_rmse_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        rmse(np.zeros((3, 2)), np.zeros(3))


# ---------------------------------------------------------------------- config

def test_config_scalar_coercions():
    cfg = ExperimentConfig.from_mapping(small_mapping(n_particles=64, seeds=4))
    assert cfg.algorithms == ["eki-sampling"]
    assert cfg.n_particles == [64]
    assert cfg.seeds == [4]


def test_config_unknown_field_named():
    # out_dir is spelled `out` in a config file
    for name in ("particles_n", "N", "out_dir"):
        with pytest.raises(ConfigError, match=rf"unknown field\(s\): {name}$"):
            ExperimentConfig.from_mapping(small_mapping(**{name: 10}))


def test_config_takes_one_algorithm_spelling():
    raw = small_mapping(algorithms="abc-smc")
    del raw["algorithm"]
    assert ExperimentConfig.from_mapping(raw).algorithms == ["abc-smc"]
    with pytest.raises(ConfigError, match="algorithm, algorithms"):
        ExperimentConfig.from_mapping(small_mapping(algorithms=["abc-smc", "abc-mcmc"]))


def test_config_missing_required_fields():
    for field in ("model", "algorithm", "n_particles", "seeds"):
        raw = small_mapping()
        raw.pop(field, None)
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_mapping(raw)


def test_config_rejects_unknown_names():
    with pytest.raises(ConfigError, match="model"):
        ExperimentConfig.from_mapping(small_mapping(model="mystery"))
    with pytest.raises(ConfigError, match="algorithm"):
        ExperimentConfig.from_mapping(small_mapping(algorithm="gradient-descent"))
    with pytest.raises(ConfigError, match="algo_params"):
        ExperimentConfig.from_mapping(small_mapping(algo_params={"nope": {}}))
    for entry in (5, [["a", 1]]):
        with pytest.raises(ConfigError, match="algo_params"):
            ExperimentConfig.from_mapping(small_mapping(algo_params={"eki-sampling": entry}))
    # settings every cell's config would reject fail validation, not the run
    for algo, entry in (
        ("eki-sampling", {"rho": 0.4}),
        ("eki-sampling", {"max_iters": 0}),
        ("eki-sampling", {"max_iters": 2.5}),
        ("eki-sampling", {"tau": 1.0}),
        ("abc-smc", {"ess_kappa_target": 2.0}),
        ("abc-mcmc", {"n_steps": 400.0}),
        ("abc-mcmc", {"n_keep": True}),
        ("abc-mcmc", {"initial_kappa": float("nan")}),
    ):
        with pytest.raises(ConfigError, match="algo_params"):
            ExperimentConfig.from_mapping(
                small_mapping(algorithm=algo, algo_params={algo: entry})
            )


def test_config_checks_algo_params_of_unswept_algorithms(tmp_path, capsys):
    # an entry for an algorithm outside the sweep is checked, not ignored
    bogus = {"abc-smc": {"bogus": 1}}
    with pytest.raises(ConfigError, match="algo_params: abc-smc"):
        ExperimentConfig.from_mapping(small_mapping(algo_params=bogus))
    path = write_config(tmp_path, algo_params=bogus)
    assert cli_main(["validate", str(path)]) == 2
    assert "algo_params" in capsys.readouterr().err
    # a valid entry for an unswept algorithm still passes
    valid = {"abc-mcmc": {"n_steps": 400}}
    ExperimentConfig.from_mapping(small_mapping(algo_params=valid))


@pytest.mark.parametrize("name", ["model_overrides", "algo_params"])
def test_config_override_mappings_take_only_null_as_none(name, tmp_path, capsys):
    for value in (None, {}):
        assert getattr(ExperimentConfig.from_mapping(small_mapping(**{name: value})), name) == {}
    assert getattr(ExperimentConfig.from_mapping(small_mapping()), name) == {}
    # a falsy non-mapping is refused like any other, not read as "no overrides"
    for value in (0, [], "", False, [1], "n_stats"):
        with pytest.raises(ConfigError, match=f"^{name}: must be a mapping"):
            ExperimentConfig.from_mapping(small_mapping(**{name: value}))
        assert cli_main(["validate", str(write_config(tmp_path, **{name: value}))]) == 2
        assert f"{name}: must be a mapping" in capsys.readouterr().err


def test_config_validates_grid_entries():
    with pytest.raises(ConfigError, match="n_particles"):
        ExperimentConfig.from_mapping(small_mapping(n_particles=[1]))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_mapping(small_mapping(seeds=[-3]))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_mapping(small_mapping(seeds=[True]))
    with pytest.raises(ConfigError, match="snapshots"):
        ExperimentConfig.from_mapping(small_mapping(snapshots="false"))
    with pytest.raises(ConfigError, match="label"):
        ExperimentConfig.from_mapping(small_mapping(label=None))
    # a repeated entry would run one cell several times into one directory
    for field, value in (
        ("algorithm", ["eki-sampling", "eki-sampling"]),
        ("algorithm", ["abc-smc", "eki-sampling", "abc-smc"]),
        ("n_particles", [40, 40]),
        ("seeds", [0, 0]),
        ("seeds", [0, 1, 2, 1]),
    ):
        with pytest.raises(ConfigError, match=f"^{field}: repeated"):
            ExperimentConfig.from_mapping(small_mapping(**{field: value}))


def test_config_checks_model_overrides_early():
    with pytest.raises(ConfigError, match="model_overrides"):
        ExperimentConfig.from_mapping(
            small_mapping(model="gk", model_overrides={"bogus": 2})
        )
    for overrides in (
        {"observed_dims": []},
        {"diffusion": -1.0},
        {"diffusion": float("nan")},
        {"obs_noise_var": float("nan")},
        {"forcing": float("nan")},
        {"forcing": float("inf")},
        {"prior_var": float("nan")},
    ):
        with pytest.raises(ConfigError, match="model_overrides"):
            ExperimentConfig.from_mapping(
                small_mapping(model="l96", model_overrides=overrides)
            )
    for field, value in (
        ("dt", float("nan")),
        ("dt", float("inf")),
        ("obs_times", [float("inf")]),
        ("obs_times", [1.0, float("nan")]),
        ("observed_dims", [0.5, 2]),
        ("observed_dims", [2.7]),
        ("observed_dims", [True]),
        # a wrong type names the field instead of being coerced or failing inside
        ("obs_times", "12"),
        ("obs_times", 2.0),
        ("obs_times", ["1.0", "2.0"]),
        ("obs_times", [True]),
        ("observed_dims", 3),
        ("prior_var", "5"),
        ("prior_var", None),
        ("forcing", "8"),
        ("forcing", None),
        ("dt", "0.001"),
        ("dt", None),
        ("obs_noise_var", "0.1"),
        ("obs_noise_var", None),
        ("diffusion", True),
        ("diffusion", None),
    ):
        with pytest.raises(ConfigError, match=f"model_overrides.*{field}"):
            ExperimentConfig.from_mapping(
                small_mapping(model="l96", model_overrides={field: value})
            )
    for overrides in ({"d_x": 0}, {"d_x": 2.7}, {"d_x": True},
                      {"d_x": 3, "prior_mean": [0.0] * 5}, {"d_x": 3, "prior_cov": [[1.0]]}):
        with pytest.raises(ConfigError, match="model_overrides.*d_x"):
            ExperimentConfig.from_mapping(
                small_mapping(model="lingauss", model_overrides=overrides)
            )
    nan_matrix = [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]
    indefinite = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    for field, value in (
        ("obs_matrix", nan_matrix),
        ("noise_cov", nan_matrix),
        ("noise_cov", indefinite),
        ("prior_cov", indefinite),
        ("prior_cov", nan_matrix),
        ("prior_mean", [0.0, float("inf"), 0.0]),
        # a wrong type names the field instead of being coerced or failing inside
        ("prior_mean", [True, False, True]),
        ("obs_matrix", [[1, 0, 0], [0, True, 0]]),
        ("prior_mean", "abc"),
        ("noise_cov", "0.5"),
        ("prior_cov", [[1, 0], [0]]),
        # a malformed prior names its field, not GaussPair's mean or cov
        ("prior_cov", [[1, 0, 0], [0, 1, 0]]),
        ("prior_cov", [1.0, 1.0, 1.0]),
        ("prior_mean", [[0.0, 0.0]]),
        ("prior_mean", []),
    ):
        with pytest.raises(ConfigError, match=f"model_overrides.*{field}"):
            ExperimentConfig.from_mapping(
                small_mapping(model="lingauss", model_overrides={field: value})
            )
    for overrides in (
        {"n_stats": 0},
        {"n_raw": 0, "n_stats": 0},
        {"n_stats": True},
        {"upper": -1.0},
        {"upper": 0.0},
        {"c": 2.0},
    ):
        with pytest.raises(ConfigError, match="model_overrides"):
            ExperimentConfig.from_mapping(
                small_mapping(model="gk", model_overrides=overrides)
            )
    for field, value in (("upper", None), ("upper", "10"), ("c", "0.5"), ("c", None),
                         ("c", False)):
        with pytest.raises(ConfigError, match=f"model_overrides.*{field}"):
            ExperimentConfig.from_mapping(
                small_mapping(model="gk", model_overrides={field: value})
            )


def test_config_checks_eki_ensemble_size():
    # gk has d_x + d_y + 1 = 105; the bound binds only the EKI algorithms
    with pytest.raises(ConfigError, match="n_particles.*105"):
        ExperimentConfig.from_mapping(small_mapping(model="gk", n_particles=[105, 100]))
    ExperimentConfig.from_mapping(small_mapping(model="gk", n_particles=105))
    ExperimentConfig.from_mapping(
        small_mapping(model="gk", algorithm="abc-smc", n_particles=100)
    )


# ------------------------------------------------------------------ resolution

def test_resolve_out_dir_priorities(monkeypatch, tmp_path):
    cfg = ExperimentConfig.from_mapping(small_mapping())
    monkeypatch.setenv("ENKI_OUT_ROOT", str(tmp_path / "root"))
    assert resolve_out_dir(cfg) == tmp_path / "root" / "unit"
    cfg.out_dir = str(tmp_path / "configured")
    assert resolve_out_dir(cfg) == tmp_path / "configured"
    assert resolve_out_dir(cfg, tmp_path / "explicit") == tmp_path / "explicit"
    monkeypatch.delenv("ENKI_OUT_ROOT")
    cfg.out_dir = None
    assert resolve_out_dir(cfg).parts[0] == "enki-results"


# ----------------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    cfg = ExperimentConfig.from_mapping(
        {
            "model": "lingauss",
            "algorithm": ["eki-sampling", "abc-mcmc"],
            "n_particles": [40],
            "seeds": [0, 1],
            "label": "sweep",
            "algo_params": {"abc-mcmc": {"n_steps": 400, "n_keep": 40}},
            "snapshots": True,
        }
    )
    out = tmp_path_factory.mktemp("sweep")
    rows, out_path = run_experiment(cfg, out_dir=out)
    return cfg, rows, out_path


def test_sweep_row_grid(sweep):
    cfg, rows, _ = sweep
    assert len(rows) == 4  # 2 algorithms x 1 N x 2 seeds
    combos = {(r["algorithm"], r["N"], r["seed"]) for r in rows}
    assert combos == {(a, 40, s) for a in cfg.algorithms for s in (0, 1)}
    for row in rows:
        assert row["sim_count"] > 0
        assert np.isfinite(row["rmse"])


def test_sweep_metrics_header_exact(sweep):
    _, _, out_path = sweep
    first = (out_path / "metrics.csv").read_text().splitlines()[0]
    assert first == HEADER


def test_sweep_metrics_round_trip(sweep):
    _, rows, out_path = sweep
    parsed = read_metrics_csv(out_path / "metrics.csv")
    assert len(parsed) == len(rows)
    for got, src in zip(parsed, rows):
        for key in METRICS_FIELDS:
            if key in ("rmse", "final_temp"):
                assert got[key] == pytest.approx(float(src[key]), nan_ok=True)
            elif key == "wall_time_s":
                assert got[key] == pytest.approx(float(src[key]), abs=1e-3)
            else:
                assert str(got[key]) == str(src[key])


def test_sweep_artifacts_layout(sweep):
    _, rows, out_path = sweep
    run_dir = out_path / "runs" / "eki-sampling_lingauss_N40_seed0"
    header = (run_dir / "ensemble.csv").read_text().splitlines()[0]
    assert header == "x1,x2,x3"
    with (run_dir / "ensemble.csv").open() as fh:
        assert sum(1 for _ in fh) == 41  # header + one row per particle
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["algorithm"] == "eki-sampling"
    assert meta["seed"] == 0
    assert len(meta["truth"]) == 3
    schedule = json.loads((run_dir / "schedule.json").read_text())
    assert schedule[0]["iteration"] == 1
    assert schedule[-1]["lambda"] == 1.0
    # abc runs carry no temperature schedule file
    mcmc_dir = out_path / "runs" / "abc-mcmc_lingauss_N40_seed0"
    assert (mcmc_dir / "meta.json").exists()
    assert not (mcmc_dir / "schedule.json").exists()
    # each meta.json holds its row's final temperature, once
    for row in rows:
        run_dir = out_path / "runs" / f"{row['algorithm']}_lingauss_N40_seed{row['seed']}"
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["final_temp"] == row["final_temp"]
        assert "final_kappa" not in meta["diagnostics"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_result_reports_the_final_temperature(algorithm):
    model = build_model("lingauss")
    rng = np.random.default_rng(5)
    observed = model.simulate(model.sample_truth(rng), rng)
    if algorithm.startswith("eki-"):
        config = EkiConfig(n_particles=40, stop_mode=algorithm.removeprefix("eki-"))
        res = run_eki(model, observed, config, 1)
        expected = res.schedule.final_lambda
    elif algorithm == "abc-smc":
        res = run_abc_smc(model, observed, AbcSmcConfig(n_particles=40), 1)
        expected = res.diagnostics["kappas"][-1]
    else:
        res = run_abc_mcmc(model, observed, AbcMcmcConfig(n_steps=400, n_keep=40), 1)
        expected = res.diagnostics["kappa_trace"][-1]
    assert res.final_temp == expected > 0.0


def _without_wall_time(path):
    """A run file's content, less wall_time_s: the one value allowed to differ."""
    if path.name == "meta.json":
        meta = json.loads(path.read_text())
        del meta["wall_time_s"]
        return meta
    if path.name == "metrics.csv":
        col = METRICS_FIELDS.index("wall_time_s")
        return [row[:col] + row[col + 1:] for row in csv.reader(path.read_text().splitlines())]
    return path.read_text()


def test_sweep_deterministic_across_workers(sweep, tmp_path):
    # the fixture ran on one process: every file but wall_time_s must match
    cfg, _, out_path = sweep
    _, again_path = run_experiment(cfg, threads=2, out_dir=tmp_path / "again")
    files = sorted(p.relative_to(out_path) for p in out_path.rglob("*") if p.is_file())
    assert files == sorted(
        p.relative_to(again_path) for p in again_path.rglob("*") if p.is_file()
    )
    assert any(f.parent.name == "snapshots" for f in files)
    for rel in files:
        assert _without_wall_time(out_path / rel) == _without_wall_time(again_path / rel), rel


def test_error_rows_do_not_abort_sweep(tmp_path, monkeypatch):
    def fail(*_args):
        raise ValueError("simulated run-time failure")

    # a failure no config check can foresee
    monkeypatch.setattr("enki.harness.run_abc_mcmc", fail)
    cfg = ExperimentConfig.from_mapping(
        small_mapping(algorithm=["abc-mcmc", "eki-sampling"], seeds=0)
    )
    rows, out_path = run_experiment(cfg, out_dir=tmp_path)
    by_algo = {r["algorithm"]: r for r in rows}
    bad = by_algo["abc-mcmc"]
    assert bad["termination"].startswith("error: ValueError")
    assert bad["sim_count"] == 0 and np.isnan(bad["rmse"])
    assert by_algo["eki-sampling"]["termination"] == "sampling"
    assert not (out_path / "runs" / "abc-mcmc_lingauss_N50_seed0").exists()
    # error rows round-trip through the CSV and are skipped by summaries
    parsed = read_metrics_csv(out_path / "metrics.csv")
    groups = summarize_rows(parsed)
    assert [g["algorithm"] for g in groups] == ["eki-sampling"]


@pytest.mark.parametrize("threads", [1, 2])
def test_write_failure_aborts_sweep(tmp_path, threads):
    # a run that fails is an error row, but a run directory that cannot be
    # written ends the sweep before metrics.csv
    (tmp_path / "runs").write_text("a file where the run directories go")
    cfg = ExperimentConfig.from_mapping(small_mapping(seeds=0))
    with pytest.raises(OSError):
        run_experiment(cfg, threads=threads, out_dir=tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


def _run_lingauss_cell(out_dir, **extra):
    """Run one eki-sampling lingauss cell (N=40, seed 0) into out_dir.

    Returns its row and its run directory, which does not name the model
    overrides, so every call here writes the same directory.
    """
    cfg = ExperimentConfig.from_mapping(small_mapping(n_particles=40, seeds=0, **extra))
    rows, out_path = run_experiment(cfg, out_dir=out_dir)
    return rows[0], out_path / "runs" / "eki-sampling_lingauss_N40_seed0"


def test_rerun_keeps_only_the_new_snapshots(tmp_path):
    # sharper data need more temperings: ten snapshots where the default gives four
    sharp = {"noise_cov": (0.001 * np.eye(3)).tolist()}
    _, run_dir = _run_lingauss_cell(tmp_path, model_overrides=sharp, snapshots=True)
    assert len(list((run_dir / "snapshots").iterdir())) == 10
    _, run_dir = _run_lingauss_cell(tmp_path, snapshots=True)
    steps = len(json.loads((run_dir / "schedule.json").read_text()))
    snaps = sorted(p.name for p in (run_dir / "snapshots").iterdir())
    assert snaps == [f"iter_{i:03d}.csv" for i in range(steps + 1)]
    assert steps == 3


def test_rerun_without_snapshots_drops_the_snapshot_directory(tmp_path):
    _, run_dir = _run_lingauss_cell(tmp_path, snapshots=True)
    assert (run_dir / "snapshots").is_dir()
    _, run_dir = _run_lingauss_cell(tmp_path)
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "ensemble.csv", "meta.json", "schedule.json"
    ]


def test_failed_rerun_leaves_no_run_directory(tmp_path):
    _, run_dir = _run_lingauss_cell(tmp_path)
    assert (run_dir / "meta.json").exists()
    row, run_dir = _run_lingauss_cell(
        tmp_path, model_overrides={"noise_cov": np.zeros((3, 3)).tolist()}
    )
    assert row["termination"].startswith("error: LinAlgError: iteration 1")
    assert not run_dir.exists()


def test_summary_table_and_csv(sweep, tmp_path):
    _, rows, _ = sweep
    groups = summarize_rows(rows)
    assert len(groups) == 2
    text = format_summary(groups)
    assert "rmse_med" in text.splitlines()[0]
    assert "eki-sampling" in text
    out = tmp_path / "summary.csv"
    write_summary_csv(groups, out)
    with out.open() as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2
    assert parsed[0]["runs"] == "2"


def test_write_metrics_formats_wall_time(tmp_path):
    row = {
        "algorithm": "eki-sampling",
        "model": "lingauss",
        "N": 10,
        "seed": 0,
        "sim_count": 30,
        "rmse": 0.5,
        "wall_time_s": 1.23456,
        "termination": "sampling",
        "final_temp": 1.0,
    }
    path = tmp_path / "metrics.csv"
    write_metrics_csv([row], path)
    line = path.read_text().splitlines()[1]
    assert line == "eki-sampling,lingauss,10,0,30,0.5,1.235,sampling,1.0"


def test_read_metrics_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected metrics header"):
        read_metrics_csv(path)


# ------------------------------------------------------------------------- CLI

def write_config(tmp_path, **extra):
    raw = {
        "model": "lingauss",
        "algorithm": "eki-sampling",
        "n_particles": 40,
        "seeds": [0],
    }
    raw.update(extra)
    path = tmp_path / "experiment.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_cli_validate_and_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert cli_main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK:") and "cells=1" in out

    out_dir = tmp_path / "results"
    assert cli_main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()
    stdout = capsys.readouterr().out
    assert "eki-sampling" in stdout and "1 run(s), 0 failed" in stdout


def test_cli_run_seed_override_and_snapshots(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "seeded"
    assert cli_main(
        ["run", str(cfg_path), "--seed", "7", "--snapshots", "--out", str(out_dir)]
    ) == 0
    rows = read_metrics_csv(out_dir / "metrics.csv")
    assert [r["seed"] for r in rows] == [7]
    snaps = out_dir / "runs" / "eki-sampling_lingauss_N40_seed7" / "snapshots"
    assert (snaps / "iter_000.csv").exists()


def test_cli_run_reports_each_failed_cell(tmp_path, capsys):
    # a coarse Euler step blows every l96 path up, so both cells fail at run time
    cfg_path = write_config(
        tmp_path, model="l96", algorithm=["eki-sampling", "abc-smc"],
        model_overrides={"d_x": 8, "dt": 0.25, "obs_times": [5.0]},
    )
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "failed")]) == 1
    captured = capsys.readouterr()
    assert "2 run(s), 2 failed" in captured.out
    blowup = "error: FloatingPointError: state became non-finite by t=5"
    assert captured.err.splitlines() == [
        f"  failed: eki-sampling N=40 seed=0: {blowup}",
        f"  failed: abc-smc N=40 seed=0: {blowup}",
    ]


def test_cli_summarize(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "forsummary"
    cli_main(["run", str(cfg_path), "--out", str(out_dir)])
    capsys.readouterr()
    summary_csv = tmp_path / "summary.csv"
    code = cli_main(
        ["summarize", str(out_dir / "metrics.csv"), "--out", str(summary_csv)]
    )
    assert code == 0
    assert "rmse_med" in capsys.readouterr().out
    assert summary_csv.exists()


def test_cli_list_models(capsys):
    assert cli_main(["list-models"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == available_models() == ["gk", "l96", "lingauss"]
    for line in lines:  # name, d_x=, d_y= and a non-empty note
        assert len(line.split(maxsplit=3)) == 4, line


def test_cli_bad_inputs_exit_2(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nothere.yaml"
    assert cli_main(["validate", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"model": "lingauss"}))
    assert cli_main(["validate", str(bad)]) == 2
    assert "algorithm" in capsys.readouterr().err

    mangled = tmp_path / "mangled.yaml"
    mangled.write_text("model: [unclosed\n")
    assert cli_main(["validate", str(mangled)]) == 2
    assert "error:" in capsys.readouterr().err

    small = write_config(tmp_path, model="gk", n_particles=100)
    assert cli_main(["validate", str(small)]) == 2
    assert "n_particles" in capsys.readouterr().err
    assert cli_main(["run", str(small), "--out", str(tmp_path / "unused")]) == 2
    assert "n_particles" in capsys.readouterr().err

    for overrides in ({"observed_dims": []}, {"diffusion": -1.0},
                      {"obs_times": [float("inf")]}):
        l96 = write_config(tmp_path, model="l96", model_overrides=overrides)
        assert cli_main(["validate", str(l96)]) == 2
        assert "model_overrides" in capsys.readouterr().err

    gk = write_config(tmp_path, model="gk", model_overrides={"n_stats": 0})
    assert cli_main(["validate", str(gk)]) == 2
    assert "model_overrides" in capsys.readouterr().err

    rho = write_config(tmp_path, algo_params={"eki-sampling": {"rho": 0.4}})
    assert cli_main(["validate", str(rho)]) == 2
    assert "algo_params" in capsys.readouterr().err

    floats = write_config(
        tmp_path, algorithm=["eki-sampling", "abc-mcmc"],
        algo_params={"eki-sampling": {"max_iters": 2.5}, "abc-mcmc": {"n_steps": 400.0}},
    )
    assert cli_main(["validate", str(floats)]) == 2
    assert "algo_params" in capsys.readouterr().err
    assert cli_main(["run", str(floats), "--out", str(tmp_path / "unused")]) == 2
    assert "algo_params" in capsys.readouterr().err

    # a bad out path fails validation before any directory is made
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("ENKI_OUT_ROOT", str(work / "root"))
    for out in (5, ["a", "b"], ""):
        bad_out = write_config(tmp_path, out=out)
        for command in ("validate", "run"):
            assert cli_main([command, str(bad_out)]) == 2
            assert "out:" in capsys.readouterr().err
    good = write_config(tmp_path)
    for command in ("validate", "run"):
        assert cli_main([command, str(good), "--out", ""]) == 2
        assert "out:" in capsys.readouterr().err
    assert not any(work.iterdir())

    cfg_path = write_config(tmp_path)
    for threads in ("0", "-5"):
        assert cli_main(["run", str(cfg_path), "--threads", threads,
                         "--out", str(tmp_path / "unused")]) == 2
        assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()


def test_algorithms_tuple_is_the_public_contract():
    assert ALGORITHMS == ("eki-sampling", "eki-optimisation", "abc-smc", "abc-mcmc")

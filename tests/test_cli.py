import itertools
import math
import os
import platform
import re
import concurrent.futures
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from robustgmm import (
    CARD_STANDIN_COLUMNS,
    Dataset,
    RandomSource,
    ate_from_params,
    load_csv,
    scalar_treatment_design,
    two_stage_least_squares,
)
import robustgmm.cli
from robustgmm.cli import _COMMANDS, main
from robustgmm.experiments import save_dataset_csv

from conftest import make_linear_dataset
from run_sweeps import SWEEPS

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_CSV = REPO_ROOT / "data" / "card_standin.csv"


@pytest.fixture
def linear_csv(tmp_path):
    data, w_true = make_linear_dataset(seed=30, n=300, d=2, noise=0.3)
    path = tmp_path / "linear.csv"
    save_dataset_csv(path, data)
    return path, data, w_true


def body_lines(path):
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]


def header_lines(path):
    return [l for l in Path(path).read_text().splitlines() if l.startswith("#")]


def parse_report(path):
    out = {}
    for line in body_lines(path):
        key, _, value = line.partition("=")
        out[key] = value
    return out


COLS = ["--set", "col_instruments=z1,z2", "--set", "col_covariates=x1,x2"]


# ---------------------------------------------------------------------------
# estimate


def test_estimate_writes_report_and_matches_iv(linear_csv, tmp_path):
    path, data, _ = linear_csv
    out = tmp_path / "est.out"
    code = main(
        ["estimate", "--seed", "3", "--out", str(out),
         "--set", f"input={path}", "--set", "eps=0.05", *COLS]
    )
    assert code == 0
    header = header_lines(out)
    assert "# command=estimate" in header
    assert any(l.startswith("# seed=3") for l in header)
    report = parse_report(out)
    w = np.array([float(v) for v in report["w_hat"].split(",")])
    w_iv = two_stage_least_squares(data)
    assert np.linalg.norm(w - w_iv) <= 0.05 * (1.0 + np.linalg.norm(w_iv))
    assert int(report["final_set_size"]) + len(
        [i for i in report["removed_indices"].split(",") if i]
    ) == 300
    # the fit is one sever run: no radius trace, and amplification made
    # no retry on this clean design
    assert "radius_trace" not in report
    assert "diag.gamma" in report and report["diag.outer_rounds"] == "1"
    assert "diag.final_set_size" not in report


def test_estimate_rerun_is_byte_identical(linear_csv, tmp_path):
    path, _, _ = linear_csv
    runs = {
        "estimate": ["estimate", "--seed", "11", "--set", f"input={path}",
                     "--set", "eps=0.1", *COLS],
        "diagnose": ["diagnose", "--set", f"input={path}", *COLS],
    }
    for name, argv in runs.items():
        a, b = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name


def test_estimate_scalar_model_reports_ate(tmp_path):
    out = tmp_path / "ate.out"
    code = main(
        ["estimate", "--seed", "1", "--out", str(out),
         "--set", f"input={DATA_CSV}", "--set", "model=scalar",
         "--set", "eps=0.05",
         "--set", f"col_response={CARD_STANDIN_COLUMNS['response']}",
         "--set", f"col_treatment={CARD_STANDIN_COLUMNS['treatment']}",
         "--set", "col_instruments=nearc4", "--set", "col_covariates=exper,expersq"]
    )
    assert code == 0
    report = parse_report(out)
    assert 0.0 < float(report["ate"]) < 0.3


@pytest.mark.parametrize("model", ["hte", "hte-full"])
def test_estimate_hte_models_report_mean_effect(model, tmp_path):
    out = tmp_path / "hte.out"
    code = main(
        ["estimate", "--seed", "1", "--out", str(out),
         "--set", f"input={DATA_CSV}", "--set", f"model={model}",
         "--set", "eps=0.05",
         "--set", f"col_response={CARD_STANDIN_COLUMNS['response']}",
         "--set", f"col_treatment={CARD_STANDIN_COLUMNS['treatment']}",
         "--set", "col_instruments=nearc4", "--set", "col_covariates=exper,expersq"]
    )
    assert code == 0
    report = parse_report(out)
    w = np.array([float(v) for v in report["w_hat"].split(",")])
    base = load_csv(DATA_CSV, CARD_STANDIN_COLUMNS)
    assert w.size == (base.d if model == "hte" else 2 * base.d)
    # the effect vector leads w; the reported ATE averages X_i . effect
    assert float(report["ate"]) == ate_from_params(w[: base.d], base, "hte")


def test_estimate_error_exits(linear_csv, tmp_path, capsys):
    path, _, _ = linear_csv
    out = tmp_path / "x.out"
    base = ["estimate", "--out", str(out), "--set", f"input={path}", *COLS]
    assert main(base + ["--set", "eps=0.5"]) == 1
    assert "eps must be < 0.5" in capsys.readouterr().err
    assert main(base + ["--set", "eps=abc"]) == 1
    assert "expected a number" in capsys.readouterr().err
    assert main(base + ["--set", "eps=0.1", "--set", "mystery=1"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    # removed keys: the fit always rescales at a fixed gamma scale and runs
    # one filter policy at fixed slacks
    for removed in ("rescale=false", "gamma_scale=0.2", "slack=2", "bound_mode=practice",
                    "c1=4", "c2=2"):
        assert main(base + ["--set", "eps=0.1", "--set", removed]) == 1
        assert "unknown config key" in capsys.readouterr().err
    sweep = ["synth-sweep", "--out", str(tmp_path / "s.csv"), "--set", "slack=2"]
    assert main(sweep) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert main(["estimate", "--set", f"input={path}", "--set", "eps=0.1", *COLS]) == 1
    assert "required: --out" in capsys.readouterr().err
    assert main(["estimate", "--out", str(out), "--set", "eps=0.1"]) == 1
    assert "required" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "synth-sweep", "semi-sweep"])
def test_plugin_rejects_fixed_only_keys(command, tmp_path, capsys):
    # every fit derives these constants from the data, so no command has a
    # key for them or for choosing fixed constants instead
    out = tmp_path / "o.csv"
    if command == "estimate":
        base = ["estimate", "--set", f"input={DATA_CSV}", "--set", "model=scalar",
                "--set", "eps=0.05", "--set", "col_instruments=nearc4",
                "--set", f"col_response={CARD_STANDIN_COLUMNS['response']}",
                "--set", f"col_treatment={CARD_STANDIN_COLUMNS['treatment']}",
                "--set", "col_covariates=exper,expersq"]
    elif command == "synth-sweep":
        base = ["synth-sweep", "--set", "preset=desk"]
    else:
        base = ["semi-sweep", "--set", f"input={DATA_CSV}"]
    for item in ("hyper=fixed", "hyper=plugin", "lam=5", "L=1", "sigma=9", "R0=0.1",
                 "gamma=1", "delta=0.001"):
        assert main(base + ["--out", str(out), "--set", item]) == 1
        key = item.partition("=")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["synth-sweep", "semi-sweep"])
def test_sweeps_reject_hyper_eps_and_instrument(command, tmp_path, capsys):
    # a sweep fits every cell at its grid eps with plug-in constants, and the
    # synthetic instrument is always a fair coin
    out = tmp_path / "o.csv"
    source = "preset=desk" if command == "synth-sweep" else f"input={DATA_CSV}"
    base = [command, "--out", str(out), "--set", source]
    for item in ("hyper=fixed", "hyper=plugin", "eps=0.45", "instrument=bernoulli01"):
        assert main(base + ["--set", item]) == 1
        key = item.partition("=")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# flags each subcommand does not read; a valid invocation is given alongside
UNREAD_FLAGS = [
    ("estimate", ["--jobs", "2"]),
    ("diagnose", ["--seed", "7"]),
    ("diagnose", ["--jobs", "9"]),
]


@pytest.mark.parametrize(
    "command,flag", UNREAD_FLAGS, ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS]
)
def test_subcommands_reject_flags_they_do_not_read(
    command, flag, linear_csv, tmp_path, capsys
):
    path, _, _ = linear_csv
    out = tmp_path / "o.out"
    valid = {
        "estimate": ["--out", str(out), "--set", f"input={path}", "--set", "eps=0.1",
                     *COLS],
        "diagnose": ["--out", str(out), "--set", f"input={path}", *COLS],
    }[command]
    assert main([command, *valid, *flag]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert not out.exists()


def test_readme_usage_block_matches_subcommands():
    # the fenced block under README's "## Command line" lists each
    # subcommand with exactly the flags it parses
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    usage = {}
    for line in block.strip().splitlines():
        prog, command, rest = line.split(maxsplit=2)
        assert prog == "robustgmm", line
        usage[command] = tuple(re.findall(r"--[a-z]+", rest))
    assert usage == {name: flags for name, (_, flags) in _COMMANDS.items()}


def test_estimate_on_singular_scores_ends_cleanly(tmp_path, capsys):
    # three rows make every score covariance singular: the run must end in
    # a fit or an estimation failure, not an uncaught exception
    src = RandomSource(3)
    X = src.normal((300, 2))
    Z = X + 0.3 * src.normal((300, 2))
    Y = X @ np.array([1.0, -1.0]) + 0.1 * src.normal(300)
    path = tmp_path / "three.csv"
    save_dataset_csv(path, Dataset(X=X[:3], Y=Y[:3], Z=Z[:3]))
    out = tmp_path / "fit.txt"
    code = main(["estimate", "--set", f"input={path}", "--set", "eps=0.1", *COLS,
                 "--out", str(out)])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_estimate_unidentified_design_exits_2(tmp_path, capsys):
    data, _ = make_linear_dataset(seed=22, n=300, d=2, noise=0.3)
    Z = data.Z.copy()
    Z[:, 1] = 0.0
    path = tmp_path / "flat.csv"
    save_dataset_csv(path, Dataset(X=data.X, Y=data.Y, Z=Z))
    out = tmp_path / "flat.out"
    argv = ["estimate", "--out", str(out), "--set", f"input={path}", "--set", "eps=0.1"]
    assert main(argv + COLS) == 2
    assert "weak or collinear instruments" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_set_precedence(linear_csv, tmp_path):
    path, _, _ = linear_csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input={path}\neps=0.4\ncol_instruments=z1,z2\ncol_covariates=x1,x2\n"
        "# a comment line\n\nseed=5\n"
    )
    out = tmp_path / "cfg.out"
    code = main(
        ["estimate", "--config", str(cfg), "--out", str(out), "--set", "eps=0.1"]
    )
    assert code == 0
    header = header_lines(out)
    assert "# eps=0.1" in header  # --set wins over the file
    assert "# seed=5" in header


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just-some-text\n")
    assert main(["estimate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "expected key=value" in capsys.readouterr().err
    assert (
        main(["estimate", "--config", str(tmp_path / "nope.cfg"),
              "--out", str(tmp_path / "o")])
        == 1
    )
    assert "cannot read config file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


SMALL_SWEEP = ["--set", "preset=desk", "--set", "n=120", "--set", "d=2",
               "--set", "eps_grid=0.1", "--set", "reps=2"]


def read_rows(path):
    lines = body_lines(path)
    assert lines[0] == "epsilon,estimator,metric,value,seed,runtime_ms"
    return [l.split(",") for l in lines[1:]]


def test_synth_sweep_rows_and_aggregate(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["synth-sweep", "--seed", "2", "--out", str(out), *SMALL_SWEEP])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 6  # 1 eps x 3 estimators x 2 reps
    assert {r[1] for r in rows} == {
        "iterated-gmm-sever", "classical-iv", "two-stage-huber"
    }
    agg_path = tmp_path / "sweep.agg.csv"
    assert agg_path.exists()
    assert "# command=synth-sweep" in header_lines(agg_path)
    agg_rows = body_lines(agg_path)[1:]
    for line in agg_rows:
        eps_s, est, metric, mean_s, stderr_s, count_s = line.split(",")
        vals = [float(r[3]) for r in rows if r[1] == est]
        assert count_s == "2"
        assert float(mean_s) == pytest.approx(np.mean(vals), rel=1e-15)
        expected_se = np.std(vals, ddof=1) / math.sqrt(2)
        assert float(stderr_s) == pytest.approx(expected_se, rel=1e-12)


def test_synth_sweep_byte_identical_and_jobs_invariant(tmp_path):
    argv = ["synth-sweep", "--seed", "4", *SMALL_SWEEP,
            "--set", "estimators=classical-iv,iterated-gmm-sever"]
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert main(argv + ["--out", str(c), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()


@pytest.mark.parametrize(
    "out, agg",
    [
        ("x", "x.agg"),
        ("v1.2/sweep", "v1.2/sweep.agg"),
        ("../sweep", "../sweep.agg"),
    ],
)
def test_sweep_aggregate_suffix_comes_from_the_file_name(out, agg, tmp_path, monkeypatch):
    work = tmp_path / "work"
    (work / "v1.2").mkdir(parents=True)
    monkeypatch.chdir(work)
    argv = ["synth-sweep", "--seed", "4", *SMALL_SWEEP,
            "--set", "estimators=classical-iv", "--out", out]
    assert main(argv) == 0
    assert (work / out).exists() and (work / agg).exists()
    assert "# command=synth-sweep" in header_lines(work / agg)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_sweep_jobs_validated_and_pool_sized_by_cells(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    argv = ["synth-sweep", "--seed", "4", *SMALL_SWEEP,
            "--set", "estimators=classical-iv"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(argv + ["--out", str(serial)]) == 0
    # two cells: a pool of 8 would fork 6 idle workers
    assert main(argv + ["--out", str(pooled), "--jobs", "8"]) == 0
    assert RecordingPool.sizes == [2]
    assert pooled.read_bytes() == serial.read_bytes()
    for jobs in ("0", "-3"):
        assert main(argv + ["--out", str(tmp_path / "x.csv"), "--jobs", jobs]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert RecordingPool.sizes == [2]


def test_serial_sweep_never_loads_multiprocessing(tmp_path):
    # a serial run (every estimate, diagnose and one-job sweep) should not
    # pay for importing the process pool
    script = (
        "import sys\n"
        "from robustgmm.cli import main\n"
        f"argv = {['synth-sweep', '--seed', '4', *SMALL_SWEEP]!r}\n"
        "argv += ['--set', 'reps=1', '--set', 'estimators=classical-iv',"
        f" '--out', {str(tmp_path / 'one.csv')!r}]\n"
        "assert main(argv) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_synth_sweep_bad_preset(tmp_path, capsys):
    assert main(["synth-sweep", "--out", str(tmp_path / "o.csv"),
                 "--set", "preset=huge"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_semi_sweep_negation_smoke(tmp_path):
    out = tmp_path / "semi.csv"
    code = main(
        ["semi-sweep", "--seed", "6", "--out", str(out),
         "--set", f"input={DATA_CSV}", "--set", "eps_grid=0.05",
         "--set", "reps=1", "--set", "estimators=classical-iv"]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0][2] == "ate"
    # the negation attack flips the sign of the clean classical estimate
    design = scalar_treatment_design(load_csv(DATA_CSV, CARD_STANDIN_COLUMNS))
    clean = float(two_stage_least_squares(design)[0])
    assert float(rows[0][3]) == pytest.approx(-clean, rel=1e-6)


def test_semi_sweep_huber_on_duplicated_covariate_fails_rows(tmp_path, capsys):
    # Z and X both repeat a covariate column, so the Huber first stage is rank
    # deficient; attack=none because negation's own 2SLS would raise first
    lines = DATA_CSV.read_text().splitlines()
    header = lines[0].split(",")
    exper = header.index("exper")
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join(
        [lines[0] + ",exper_copy"]
        + [line + "," + line.split(",")[exper] for line in lines[1:]]
    ) + "\n")
    out = tmp_path / "huber.csv"
    code = main(
        ["semi-sweep", "--seed", "6", "--out", str(out),
         "--set", f"input={dup}", "--set", "eps_grid=0.05,0.1",
         "--set", "reps=1", "--set", "attack=none",
         "--set", "estimators=two-stage-huber",
         "--set", "col_covariates=exper,expersq,exper_copy"]
    )
    assert code == 2
    assert "every sweep cell failed" in capsys.readouterr().err
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(r[1] == "two-stage-huber" and r[3] == "failed" for r in rows)


def test_committed_results_reproduce(tmp_path, monkeypatch):
    # every entry of scripts/run_sweeps.py, run from the repository root as
    # that script runs it, so the stamped input path is repo-relative
    monkeypatch.chdir(REPO_ROOT)
    for stem, argv in SWEEPS.items():
        assert main(argv + ["--out", str(tmp_path / f"{stem}.csv")]) == 0
        for name in (f"{stem}.csv", f"{stem}.agg.csv"):
            committed = (REPO_ROOT / "results" / name).read_bytes()
            got = (tmp_path / name).read_bytes()
            assert got == committed, f"results/{name}: {first_difference(got, committed)}"


def test_results_hold_exactly_the_committed_sweeps():
    expected = {f"{stem}{ext}" for stem in SWEEPS for ext in (".csv", ".agg.csv")}
    assert {p.name for p in (REPO_ROOT / "results").glob("*.csv")} == expected


def first_difference(got: bytes, want: bytes) -> str:
    """The first line, 1-based with its line ending, where got and want differ."""
    pairs = itertools.zip_longest(
        got.splitlines(keepends=True), want.splitlines(keepends=True)
    )
    for lineno, (a, b) in enumerate(pairs, start=1):
        if a != b:
            return f"line {lineno} reads {a!r}, committed {b!r}"
    return "no line differs"


# sweeps whose grid or design no cell can run: each fails before writing
BAD_SWEEPS = {
    "n0": ["synth-sweep", "--set", "preset=desk", "--set", "n=0"],
    "d0": ["synth-sweep", "--set", "preset=desk", "--set", "d=0"],
    "repeated-eps": ["synth-sweep", "--set", "preset=desk", "--set", "eps_grid=0.1,0.1"],
    # equal to six significant digits: both cells would draw one stream
    "eps-sharing-a-stream": ["synth-sweep", "--set", "preset=desk",
                             "--set", "eps_grid=0.1,0.1000001"],
    "repeated-estimator": ["synth-sweep", "--set", "preset=desk",
                           "--set", "estimators=classical-iv,classical-iv"],
    "two-instruments": ["semi-sweep", "--set", f"input={DATA_CSV}",
                        "--set", "col_instruments=nearc4,exper"],
    "no-treatment": ["semi-sweep", "--set", f"input={DATA_CSV}",
                     "--set", "col_treatment="],
    # floor(0.001 * 3010) = 3 corrupted rows cannot span the 4 instruments
    "too-few-corrupted-rows": ["semi-sweep", "--set", f"input={DATA_CSV}",
                               "--set", "eps_grid=0.001"],
}


@pytest.mark.parametrize("argv", BAD_SWEEPS.values(), ids=BAD_SWEEPS.keys())
def test_sweep_on_a_bad_grid_or_design_is_a_config_error(argv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_semi_sweep_requires_input(tmp_path, capsys):
    assert main(["semi-sweep", "--out", str(tmp_path / "s.csv")]) == 1
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth-sweep", "semi-sweep"])
def test_sweep_parses_the_seed_before_building_its_config(command, tmp_path, capsys):
    # eps 0.7 fails SweepConfig's checks; the bad seed is reported first
    source = f"input={DATA_CSV}" if command == "semi-sweep" else "preset=desk"
    argv = [command, "--out", str(tmp_path / "o.csv"), "--set", source,
            "--set", "seed=abc", "--set", "eps_grid=0.7"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: key seed: expected an integer, got 'abc'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--set", "eps"], "--set expects KEY=VALUE, got 'eps'"),
    (["estimate", "--set", "eps=0.1", "--set", f"input={DATA_CSV}", "--set", "model=scalar",
      "--set", "intercept=maybe", "--set", "col_response=lwage", "--set", "col_treatment=educ",
      "--set", "col_instruments=nearc4", "--set", "col_covariates=exper"],
     "key intercept: expected a boolean, got 'maybe'"),
    # every model kind parses intercept, before the input is read
    (["diagnose", "--set", f"input={DATA_CSV}", "--set", "model=linear",
      "--set", "intercept=maybe", "--set", "col_response=lwage",
      "--set", "col_instruments=nearc4", "--set", "col_covariates=educ"],
     "key intercept: expected a boolean, got 'maybe'"),
    (["estimate", "--set", "eps=0.1", "--set", "input=absent.csv", "--set", "model=scalar",
      "--set", "intercept=maybe"],
     "key intercept: expected a boolean, got 'maybe'"),
    (["synth-sweep", "--jobs", "abc"], "--jobs expects an integer, got 'abc'"),
    # the model kind is checked before the input, which does not exist, is read
    (["estimate", "--set", "eps=0.1", "--set", "input=absent.csv", "--set", "model=bogus"],
     "unknown model kind 'bogus'"),
    (["diagnose", "--set", "input=absent.csv", "--set", "model=bogus"],
     "unknown model kind 'bogus'"),
], ids=["set-without-equals", "intercept", "linear-intercept", "scalar-intercept-before-input",
        "jobs", "estimate-model", "diagnose-model"])
def test_usage_errors_exit_1_with_their_message(argv, message, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth-sweep", "semi-sweep"])
def test_sweep_rejects_an_empty_estimator_list(command, tmp_path, capsys):
    # an empty list would write header-only CSVs and exit 0
    source = f"input={DATA_CSV}" if command == "semi-sweep" else "preset=desk"
    argv = [command, "--out", str(tmp_path / "o.csv"), "--set", source,
            "--set", "estimators="]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: estimators is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_and_missing_input_exit_1(linear_csv, tmp_path, capsys):
    path, _, _ = linear_csv
    missing_dir = tmp_path / "no-such-dir"
    runs = [
        ["estimate", "--set", f"input={path}", "--set", "eps=0.1", *COLS,
         "--out", str(missing_dir / "fit.txt")],
        ["synth-sweep", *SMALL_SWEEP, "--set", "estimators=classical-iv",
         "--out", str(missing_dir / "sweep.csv")],
        ["semi-sweep", "--set", f"input={tmp_path / 'absent.csv'}",
         "--out", str(tmp_path / "semi.csv")],
    ]
    for argv in runs:
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err, argv[0]
    assert not missing_dir.exists()


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_reports_constants(linear_csv, tmp_path):
    path, _, _ = linear_csv
    out = tmp_path / "diag.out"
    code = main(
        ["diagnose", "--out", str(out),
         "--set", f"input={path}", *COLS]
    )
    assert code == 0
    report = parse_report(out)
    assert set(report) == {"n", "d", "p", "w_ref", "jacobian_sigma_min", "moment_norm"}
    assert report["n"] == "300" and report["d"] == "2" and report["p"] == "2"
    for key in ("jacobian_sigma_min", "moment_norm"):
        assert float(report[key]) >= 0.0


def test_diagnose_reports_at_the_origin_when_classical_iv_fails(tmp_path):
    # one instrument for two covariates: classical IV cannot identify the
    # design, so the constants are read at w_ref = 0
    out = tmp_path / "diag.out"
    assert main(["diagnose", "--out", str(out), "--set", f"input={DATA_CSV}",
                 "--set", "col_response=lwage", "--set", "col_instruments=nearc4",
                 "--set", "col_covariates=educ,exper"]) == 0
    report = parse_report(out)
    assert (report["n"], report["d"], report["p"]) == ("3010", "2", "1")
    assert report["w_ref"] == "0,0"
    assert report["jacobian_sigma_min"] == "0"
    # at the origin the mean moment is E[nearc4 * lwage]
    data = load_csv(DATA_CSV, {"response": "lwage", "instruments": "nearc4",
                               "covariates": ["educ", "exper"]})
    assert float(report["moment_norm"]) == pytest.approx(
        abs(np.mean(data.Z[:, 0] * data.Y)), rel=1e-12)


def test_logistic_model_dispatch(tmp_path):
    # a binary response on the bundled design; linear and logistic IV share
    # the columns, so only the model kind separates the two runs
    cols = ["--set", f"input={DATA_CSV}", "--set", "col_response=nearc4",
            "--set", "col_instruments=educ", "--set", "col_covariates=exper"]
    diag = {}
    for model in ("linear", "logistic"):
        kind = ["--set", f"model={model}"]
        est, dia = tmp_path / f"{model}.est", tmp_path / f"{model}.diag"
        assert main(["estimate", "--seed", "2", "--out", str(est), *cols, *kind,
                     "--set", "eps=0.05"]) == 0
        assert main(["diagnose", "--out", str(dia), *cols, *kind]) == 0
        w = [float(v) for v in parse_report(est)["w_hat"].split(",")]
        assert len(w) == 1 and all(math.isfinite(v) for v in w)
        diag[model] = {k: float(v) for k, v in parse_report(dia).items()}
        assert all(math.isfinite(v) for v in diag[model].values())
    assert (diag["logistic"]["jacobian_sigma_min"]
            != diag["linear"]["jacobian_sigma_min"])


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_logistic_rejects_response_outside_unit_interval(command, tmp_path, capsys):
    # log wages are no probability; a logistic fit on them used to end in
    # an exhausted filter or a meaningless w_hat
    out = tmp_path / "fit.out"
    argv = [command, "--out", str(out), "--set", f"input={DATA_CSV}",
            "--set", "model=logistic", "--set", "col_response=lwage",
            "--set", "col_instruments=educ", "--set", "col_covariates=exper"]
    if command == "estimate":
        argv += ["--set", "eps=0.1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "model=logistic needs a response in [0, 1]" in err
    assert "column 'lwage' ranges from 3.28477 to 8.68674" in err
    assert not out.exists()


def overflowing_design(scale: float) -> Dataset:
    """A 300-row linear design with every column multiplied by scale."""
    src = RandomSource(3)
    X = src.normal((300, 2))
    Z = X + 0.3 * src.normal((300, 2))
    Y = X @ np.array([1.0, -1.0]) + 0.1 * src.normal(300)
    return Dataset(X=X * scale, Y=Y * scale, Z=Z * scale)


def test_diagnose_on_overflowing_design_exits_2(tmp_path):
    # at 1e120 the mean-moment norm overflows float64 and at 1e160 the
    # classical IV reference point is NaN; both must end in an estimation
    # failure naming the overflow, not a report of inf or nan
    src = RandomSource(3)
    X = src.normal((300, 2))
    Z = X + 0.3 * src.normal((300, 2))
    Y = X @ np.array([1.0, -1.0]) + 0.1 * src.normal(300)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for scale in (1e120, 1e160):
        path = tmp_path / "huge.csv"
        save_dataset_csv(path, Dataset(X=X * scale, Y=Y * scale, Z=Z * scale))
        proc = subprocess.run(
            [sys.executable, "-m", "robustgmm", "diagnose",
             "--out", str(tmp_path / "d.out"), "--set", f"input={path}", *COLS],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, scale
        assert "overflow" in proc.stderr, scale
        assert "Traceback" not in proc.stderr, scale


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    not _numpy_uses_openblas() or platform.machine() not in ("x86_64", "AMD64"),
    reason="needs numpy on OpenBLAS on x86-64",
)
def test_overflow_checks_hold_under_another_openblas_kernel():
    # OPENBLAS_CORETYPE makes OpenBLAS dispatch the kernels another CPU
    # would get. Under Sandybridge the SVD of an overflowed Z^T X raises
    # LinAlgError where the default kernel returns NaN, and a matmul over
    # overflowed squares warns "invalid value", so the overflow tests pass
    # only if the checks run before any BLAS or LAPACK call.
    tests = [
        "tests/test_models.py::test_2sls_overflow_raises_instead_of_nan",
        "tests/test_cli.py::test_diagnose_on_overflowing_design_exits_2",
        "tests/test_cli.py::test_estimate_on_overflowing_design_names_the_scale",
    ]
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
               PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]


def test_lapack_failure_exits_2_without_traceback(monkeypatch, linear_csv, tmp_path,
                                                  capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(robustgmm.cli, "robust_linear_estimate", failing)
    path, _, _ = linear_csv
    out = tmp_path / "fit.out"
    code = main(["estimate", "--out", str(out), "--set", f"input={path}",
                 "--set", "eps=0.1", *COLS])
    assert code == 2
    assert capsys.readouterr().err == "estimation failed: SVD did not converge\n"
    assert not out.exists()


def test_estimate_on_overflowing_design_names_the_scale(tmp_path, capsys):
    # at 1e160 the columns' root-mean-square is inf, which would rescale the
    # instruments to zeros and read as weak instruments
    path = tmp_path / "huge.csv"
    save_dataset_csv(path, overflowing_design(1e160))
    out = tmp_path / "fit.out"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["estimate", "--out", str(out), "--set", f"input={path}",
                     "--set", "eps=0.1", *COLS])
    assert code == 2
    err = capsys.readouterr().err
    assert "column scale overflows float64; rescale the columns" in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e40, 1e120])
def test_estimate_on_a_scaled_design_returns_the_unit_scale_fit(scale, tmp_path):
    # scaling X, Y and Z together leaves the IV parameter where it is; the
    # fit keeps every row and returns the unit-scale w_hat, not the origin
    fits = {}
    for s in (1.0, scale):
        path, out = tmp_path / f"{s:g}.csv", tmp_path / f"{s:g}.out"
        save_dataset_csv(path, overflowing_design(s))
        assert main(["estimate", "--out", str(out), "--set", f"input={path}",
                     "--set", "eps=0.1", *COLS]) == 0
        report = parse_report(out)
        assert int(report["final_set_size"]) == 300
        fits[s] = np.array([float(v) for v in report["w_hat"].split(",")])
    np.testing.assert_allclose(fits[1.0], [0.99601269, -0.9969176], rtol=1e-7)
    np.testing.assert_allclose(fits[scale], fits[1.0], rtol=1e-10)


def test_sweep_records_overflowing_classical_iv_as_failed(tmp_path, capsys):
    # classical IV on a 1e160 design is NaN in float64; the cell must fail
    path = tmp_path / "huge.csv"
    save_dataset_csv(path, overflowing_design(1e160))
    out = tmp_path / "semi.csv"
    code = main(
        ["semi-sweep", "--seed", "2", "--out", str(out), "--set", f"input={path}",
         "--set", "eps_grid=0.1", "--set", "reps=2", "--set", "attack=none",
         "--set", "estimators=classical-iv", "--set", "col_response=y",
         "--set", "col_treatment=x1", "--set", "col_instruments=z1",
         "--set", "col_covariates=x2"]
    )
    assert code == 2
    assert "every sweep cell failed" in capsys.readouterr().err
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(r[1] == "classical-iv" and r[3] == "failed" for r in rows)


def test_diagnose_rejects_no_directions(linear_csv, tmp_path, capsys):
    path, _, _ = linear_csv
    code = main(
        ["diagnose", "--out", str(tmp_path / "diag.out"),
         "--set", f"input={path}", "--set", "n_directions=0", *COLS]
    )
    assert code == 1
    assert "unknown config key 'n_directions'" in capsys.readouterr().err


def test_diagnose_rejects_seed_key(linear_csv, tmp_path, capsys):
    # diagnose draws no random numbers, so seed is not one of its keys
    path, _, _ = linear_csv
    code = main(
        ["diagnose", "--out", str(tmp_path / "diag.out"),
         "--set", f"input={path}", "--set", "seed=abc", *COLS]
    )
    assert code == 1
    assert "unknown config key 'seed'" in capsys.readouterr().err


def test_selfcheck_is_not_a_subcommand(capsys):
    # the acceptance battery (tests/test_acceptance.py) checks an install
    assert main(["selfcheck"]) == 1
    assert "invalid choice: 'selfcheck'" in capsys.readouterr().err

"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name. A renamed or deleted hook must fail this suite, not only the
benchmark's own smoke test."""

import importlib.util
from pathlib import Path

import robustgmm
import robustgmm.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolved(owner):
    return {
        name: getattr(owner, name) for name in dir(owner) if not name.startswith("__")
    }


def test_tracer_installs_and_restores_every_hook():
    owners = (
        robustgmm.cli,
        robustgmm.experiments,
        robustgmm.sever,
        robustgmm.filtering,
        robustgmm.models.LinearIVModel,
    )
    before = [resolved(owner) for owner in owners]
    tracer = load_tracer().Tracer()
    try:
        tracer.install(robustgmm)
        for owner, snapshot in zip(owners, before):
            now = resolved(owner)
            assert any(now[name] != value for name, value in snapshot.items()), owner
    finally:
        tracer.restore()
    for owner, snapshot in zip(owners, before):
        assert resolved(owner) == snapshot, owner


def test_tracer_reads_the_fit_report_of_every_robust_fit(tmp_path):
    # the tracer takes sever.outer_rounds and the removed-row counts from
    # the report of experiments.iterated_gmm_sever, so each robust fit
    # must pass through that name and report outer_rounds; it times the
    # constants under experiments.derive_hyperparams
    tracer = load_tracer().Tracer()
    argv = ["synth-sweep", "--seed", "3", "--out", str(tmp_path / "s.csv"),
            "--set", "n=200", "--set", "d=3", "--set", "eps_grid=0.2",
            "--set", "reps=1", "--set", "estimators=iterated-gmm-sever"]
    try:
        tracer.install(robustgmm)
        assert robustgmm.cli.main(argv) == 0
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    fits = names.count("experiments.robust_linear_estimate")
    assert fits == 1
    assert names.count("sever.iterated_gmm_sever") == fits
    # the fit derives its constants without the assumption diagnostics
    assert names.count("experiments.derive_hyperparams") == fits
    assert names.count("experiments.diagnose_assumptions") == 0
    assert tracer.layer_metrics()["sever.outer_rounds"][0] >= fits
    # each filter pass forms one covariance: the bound rule runs inside the
    # pass on it, and the pass takes one eigenvector of it
    passes = names.count("filtering.spectral_filter")
    assert passes >= 2
    assert names.count("filtering.robust_score_bound") == passes
    assert names.count("numerics.top_eigenvector") == passes
    for name, _, _, parent, _ in tracer.spans:
        if name == "filtering.robust_score_bound":
            assert tracer.spans[parent][0] == "filtering.spectral_filter"

import pytest

import results_drift

HEADER = "# command=synth-sweep\nepsilon,estimator,metric,value,seed,runtime_ms\n"
COMMITTED = HEADER + (
    "0.1,iterated-gmm-sever,l2_error,0.25,11,0\n"
    "0.1,classical-iv,l2_error,0.5,11,0\n"
    "0.1,two-stage-huber,l2_error,0.4,11,0\n"
    "0.1,two-stage-huber,l2_error,0.8,12,0\n"
)


def test_compare_reports_changed_rows_and_largest_drift():
    regenerated = COMMITTED.replace("0.4,11", "0.40000000000004,11").replace(
        "0.8,12", "0.8000000000000016,12"
    )
    per_estimator, problems = results_drift.compare(COMMITTED, regenerated)
    assert problems == []
    assert list(per_estimator) == ["iterated-gmm-sever", "classical-iv", "two-stage-huber"]
    assert per_estimator["iterated-gmm-sever"] == (1, 0, 0.0)
    assert per_estimator["classical-iv"] == (1, 0, 0.0)
    rows, changed, drift = per_estimator["two-stage-huber"]
    assert (rows, changed) == (2, 2)
    assert drift == pytest.approx(1e-13, rel=1e-3)


def test_compare_flags_a_switch_to_failed_and_back():
    for old, new in (("0.5", "failed"), ("0.5", "nan")):
        text = COMMITTED.replace(f"{old},11", f"{new},11")
        for a, b in ((COMMITTED, text), (text, COMMITTED)):
            per_estimator, problems = results_drift.compare(a, b)
            assert len(problems) == 1 and "classical-iv" in problems[0]
            assert per_estimator["classical-iv"][1] == 1
    # failed on both sides is no switch
    failed = COMMITTED.replace("0.5,11", "failed,11")
    assert results_drift.compare(failed, failed)[1] == []


def test_compare_reads_the_aggregate_mean_and_flags_misaligned_rows():
    agg = (
        "epsilon,estimator,metric,mean,stderr,count\n"
        "0.1,classical-iv,l2_error,0.5,0.1,5\n"
        "0.2,classical-iv,l2_error,0.25,0.1,5\n"
    )
    per_estimator, problems = results_drift.compare(agg, agg.replace("0.25,", "0.3,"))
    assert problems == [] and per_estimator["classical-iv"][1] == 1
    assert per_estimator["classical-iv"][2] == pytest.approx(0.2)
    swapped = agg.replace("0.1,classical", "0.3,classical")
    assert "does not line up" in results_drift.compare(agg, swapped)[1][0]
    shorter = agg.rsplit("0.2,", 1)[0]
    assert "2 committed rows, 1 regenerated" in results_drift.compare(agg, shorter)[1]


def test_an_entry_without_committed_files_is_a_problem(monkeypatch, capsys):
    # an entry added to SWEEPS before its results/ files exist
    monkeypatch.setattr(results_drift, "SWEEPS", {"absent": ["synth-sweep"]})
    assert results_drift.main() == 1
    assert "absent: results/ does not hold absent.csv and absent.agg.csv" in (
        capsys.readouterr().out
    )

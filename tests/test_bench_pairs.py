import json

import pytest

from bench_pairs import last_json, summarize

END_TO_END = [
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "robust_fit_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def record_line(cells, fit_ms, failed=0):
    # the last line perfbench/run.py prints
    return json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"cells_per_s": {"value": cells, "unit": "1/s"},
                    "robust_fit_ms.p50": {"value": fit_ms, "unit": "ms"}},
    })


def run_output(cells, fit_ms, failed=0):
    return "env {}\nrun {}\ncells_per_s 1.0 1/s\n" + record_line(cells, fit_ms, failed) + "\n\n"


def test_last_json_reads_the_final_line():
    assert last_json(run_output(100.0, 3.5))["metrics"]["cells_per_s"]["value"] == 100.0
    with pytest.raises(ValueError):
        last_json("\n \n")
    with pytest.raises(ValueError):
        last_json("env {}\nnot json\n")


PARENT_MS = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]
CHANGE_MS = [2.5, 2.6, 2.7, 2.8, 2.9, 3.0, 3.1, 3.2, 3.3, 3.9]


def faster_fit_pairs(change_failed=0, parent_failed=0):
    # ten pairs: the change fits faster in nine (one tie) and runs cells
    # 40% slower in every pair; the first pair's runs fail the given counts
    return [
        (last_json(run_output(100.0 + i, p, failed=parent_failed if i == 0 else 0)),
         last_json(run_output(60.0 + i, c, failed=change_failed if i == 0 else 0)))
        for i, (p, c) in enumerate(zip(PARENT_MS, CHANGE_MS))
    ]


def test_summary_reports_medians_quartiles_wins_and_verdicts():
    lines = summarize(faster_fit_pairs(), END_TO_END)
    assert lines[0].split()[:2] == ["metric", "unit"]
    cells, fit = lines[1], lines[2]
    assert cells.startswith("cells_per_s") and fit.startswith("robust_fit_ms.p50")
    # parent medians and quartiles: 104.5 [102.2, 106.8] and 3.45 [3.225, 3.675]
    assert "104.5 [102.2, 106.8]" in cells and "3.45 [3.225, 3.675]" in fit
    assert "64.5 [62.25, 66.75]" in cells and "2.95 [2.725, 3.175]" in fit
    assert " 0/10 " in cells and "worse beyond bound" in cells and "gain" not in cells
    # won 9 of 10 and the medians differ by 0.5, above the parent's 0.45 spread
    assert " 9/10 " in fit and fit.endswith("gain")
    assert "-14.5%" in fit
    assert lines[3] == "parent: 0 of 1000 operations failed, correct in every run"
    assert lines[4] == "change: 0 of 1000 operations failed, correct in every run"


def test_summary_denies_a_gain_to_a_change_that_fails_more():
    # the same fit times: no gain once the change fails more operations
    # than the parent, a gain again when it fails no more
    lines = summarize(faster_fit_pairs(change_failed=1), END_TO_END)
    assert " 9/10 " in lines[2] and lines[2].endswith("-")
    assert lines[3] == "parent: 0 of 1000 operations failed, correct in every run"
    assert lines[4] == "change: 1 of 1000 operations failed, correct in not every run"
    lines = summarize(faster_fit_pairs(change_failed=2, parent_failed=2), END_TO_END)
    assert lines[2].endswith("gain")


def test_summary_needs_the_spread_beaten_too():
    # the change wins every pair by a hair: nine tenths, but the medians sit
    # closer than the parent's quartiles
    pairs = [(last_json(run_output(100.0, 3.0 + 0.1 * i)),
              last_json(run_output(100.0, 3.0 + 0.1 * i - 0.01))) for i in range(10)]
    fit = summarize(pairs, END_TO_END)[2]
    assert " 10/10 " in fit and fit.endswith("-")
    assert " 0/10 " in summarize(pairs, END_TO_END)[1]

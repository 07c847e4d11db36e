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

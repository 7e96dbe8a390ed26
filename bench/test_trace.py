"""Checks of the traced run: each layer shows up on the workload meant to
stress it, fourier stays idle where it should, and self times add up.

    python3 -m pytest bench/test_trace.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import check_answers, measure  # noqa: E402
from spans import LAYERS  # noqa: E402

STRESSED_BY = {
    "kernels": {"abelian", "fourier", "cli", "report"},
    "sweeps": {"abelian", "bounds", "cli", "report"},
    "forms": {"linform", "reduction", "polynomial", "cli", "report"},
}


@pytest.fixture(scope="module", params=sorted(STRESSED_BY))
def traced(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    session = measure(request.param, seed=7, seconds=0, trace=True, workdir=workdir)
    check_answers(session)
    return session


def test_every_layer_is_stressed_by_its_workload(traced):
    metrics = traced.tracer.layer_metrics()
    for layer in STRESSED_BY[traced.workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert set(LAYERS) == set().union(*STRESSED_BY.values())


def test_fourier_idle_outside_kernels(traced):
    if traced.workload != "kernels":
        assert traced.tracer.layer_metrics()["fourier.calls"] == 0


def test_self_times_fit_in_task_wall_time(traced):
    self_time = traced.tracer.self_time_per_task()
    assert traced.traced_runs
    for exec_id, _, wall in traced.traced_runs:
        assert 0 < self_time[exec_id] <= wall + 1e-9


def test_traced_answers_are_correct(traced):
    assert all(state.failed == 0 for state in traced.states), [
        (task.name, state.errors[:1]) for task, state in zip(traced.tasks, traced.states)
        if state.failed
    ]

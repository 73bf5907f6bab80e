"""Self-test of the benchmark harness (not part of the library's suite).

    python3 -m pytest -q bench/selftest.py

Runs cheap slices of each workload, so it takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402

# the cheapest items of each workload: small tables, the first chains and
# the cheapest catalogue plans (the catalogue is sorted by cost)
SLICES = {"oracle": slice(0, 4), "chains": slice(0, 40), "limit": slice(0, 6)}


def items_of(name, seed=1):
    return workloads.WORKLOADS[name].generate(seed)[SLICES[name]]


def traced_pass(name, items):
    with spans.Tracer() as tracer:
        wall, _times, failed = run.run_pass(workloads.WORKLOADS[name], items,
                                            tracer)
    return tracer, wall, failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    items = items_of(name)
    first, _, failed1 = traced_pass(name, items)
    second, _, failed2 = traced_pass(name, items)
    assert failed1 == failed2 == 0
    assert first.counts and first.counts == second.counts
    assert {span[4] for span in first.spans} == {item.id for item in items}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_results_identical_with_and_without_tracing(name):
    workload = workloads.WORKLOADS[name]
    for item in items_of(name):
        ok, plain = workload.run(item)
        with spans.Tracer():
            traced_ok, traced = workload.run(item)
        assert ok and traced_ok, item.id
        assert workload.fingerprint(plain) == workload.fingerprint(traced)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_decides_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.generate(7) == workload.generate(7)
    assert workload.generate(7) != workload.generate(8)


def _one_more_suppression(item):
    # suppressing once more at 0 shrinks every nonempty residual staircase
    E = item.args[0]
    wrong = item.expect + (0,)
    if workloads.ls.suppress_seq(E, wrong) == workloads.ls.suppress_seq(E, item.expect):
        return None
    return wrong


WRONG = {
    "oracle": lambda item: [v + 1 for v in item.expect],
    "chains": _one_more_suppression,
    "limit": lambda item: dict(item.expect, tight=not item.expect["tight"]),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_expectation_counts_as_failure(name):
    item, wrong = next((item, WRONG[name](item)) for item in items_of(name)
                       if WRONG[name](item) is not None)
    bad = dataclasses.replace(item, expect=wrong)
    workload = workloads.WORKLOADS[name]
    assert run.run_pass(workload, [item])[2] == 0
    assert run.run_pass(workload, [bad])[2] == 1


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer._wrap("leaf", lambda: None, None)
    tracer._wrap("outer", lambda: (leaf(), leaf()), None)()
    selfs = tracer.self_seconds()
    # outer spans [0, 6]; its children cover [1, 3] and [4, 4.5]
    assert selfs["leaf"] == pytest.approx(2.5)
    assert selfs["outer"] == pytest.approx(3.5)
    assert tracer.covered_seconds() == pytest.approx(6.0)

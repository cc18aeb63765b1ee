"""Positive controls for the benchmark's output checks.

Each check must pass a correct result and flag a deliberately
corrupted one.  Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
from common import quantile, tail  # noqa: E402
from repro.experiments.parallel import run_sweep_point  # noqa: E402
from repro.experiments.runner import SimulationSettings, SweepPoint  # noqa: E402
from repro.experiments.specs import parse_topology  # noqa: E402

SETTINGS = SimulationSettings(cycles=400, warmup=80, seed=3)


def _run(topology, pattern, rate, **changes):
    settings = dataclasses.replace(SETTINGS, **changes)
    return run_sweep_point(SweepPoint(topology, pattern, rate, settings))


def _corrupt(result, **changes):
    return dataclasses.replace(result, **changes)


@pytest.fixture(scope="module")
def low():
    return _run("spidergon16", "uniform", 0.05)


@pytest.fixture(scope="module")
def low_runs():
    """Low-rate runs with enough packets for the pooled checks."""
    return [
        _run(topology, "uniform", 0.05, cycles=2000, warmup=400)
        for topology in ("ring16", "spidergon16", "mesh4x4")
    ]


@pytest.fixture(scope="module")
def saturated():
    return _run("ring8", "hotspot:0", 0.4)


def test_sink_capacity(saturated):
    assert checks.sink_capacity(_corrupt(saturated, throughput=1.0), 1) == []
    assert checks.sink_capacity(_corrupt(saturated, throughput=1.5), 1)
    assert checks.sink_capacity(_corrupt(saturated, throughput=1.9), 2) == []


def test_sink_capacity_flags_the_window_fault(saturated):
    """The program's known fault: a saturated sink reports one flit
    more than the window's cycles."""
    assert saturated.throughput > 1.0
    assert checks.sink_capacity(saturated, 1)


def test_low_rate_throughput(low_runs):
    assert checks.low_rate_throughput(low_runs, 6) == []
    doubled = [_corrupt(r, throughput=2 * r.throughput) for r in low_runs]
    assert checks.low_rate_throughput(doubled, 6)
    zeroed = [_corrupt(r, throughput=0.0) for r in low_runs]
    assert checks.low_rate_throughput(zeroed, 6)


def test_avg_hops_exact(low_runs):
    runs = [(r, parse_topology(t)) for r, t in zip(
        low_runs, ("ring16", "spidergon16", "mesh4x4")
    )]
    assert checks.avg_hops_exact(runs) == []
    shifted = [(_corrupt(r, avg_hops=r.avg_hops + 0.5), t) for r, t in runs]
    assert checks.avg_hops_exact(shifted)


def test_bfs_matches_closed_form():
    # Ring of 8: distances 1,1,2,2,3,3,4 from every node.
    mean, _ = checks.distinct_pair_moments(parse_topology("ring8"))
    assert mean == pytest.approx(16 / 7)


def test_uniform_ordering():
    ring = _run("ring8", "uniform", 0.7)
    spidergon = _run("spidergon8", "uniform", 0.7)
    mesh = _run("mesh8", "uniform", 0.7)
    assert checks.uniform_ordering(ring, spidergon, mesh) == []
    assert checks.uniform_ordering(spidergon, ring, mesh)


def test_twin_equal_ignores_extra_only(low):
    observed = _run(
        "spidergon16", "uniform", 0.05, stall_cycles=400, timeline_window=50
    )
    assert observed.extra and not low.extra
    assert checks.twin_equal(low, observed) == []
    assert checks.twin_equal(
        low, _corrupt(observed, packets_delivered=low.packets_delivered + 1)
    )


def test_byte_identical_across_engines(low):
    heap = _run("spidergon16", "uniform", 0.05, engine="heap")
    assert checks.byte_identical(low, heap, "heap") == []
    assert checks.byte_identical(
        low, _corrupt(heap, avg_latency=heap.avg_latency + 1e-9), "heap"
    )


def test_served_equals(low):
    served = low.to_dict()
    assert checks.served_equals(served, low) == []
    assert checks.served_equals({**served, "throughput": 0.5}, low)


def test_simulated_once():
    model = {"a": "a", "b": "b", "a2": "a"}
    requested = {"a", "b", "a2"}
    good = {"a": 1, "b": 1, "a2": 1}
    assert checks.simulated_once(good, requested, model, {"a"}) == []
    assert checks.simulated_once({**good, "b": 2}, requested, model, {"a"})
    assert checks.simulated_once({"a": 1, "b": 1}, requested, model, {"a"})
    assert checks.simulated_once(good, requested, model, set())


def test_digest_covers_simulated_fields_only(low):
    base = checks.digest([low])
    assert checks.digest([_corrupt(low, extra={"kernel": 1})]) == base
    assert checks.digest([_corrupt(low, packets_generated=0)]) != base


def test_tail_leaves_ten_samples_beyond():
    values = list(range(40))
    # Centred on the 11th-largest value, 29.
    assert 28.5 < tail(values) < 30
    with pytest.raises(ValueError):
        tail(list(range(11)))


def test_quantile_weights_every_sample_once():
    assert quantile([3.0] * 45, 0.5) == pytest.approx(3.0)
    # Symmetric data: the estimated median is the middle.
    assert quantile(list(range(45)), 0.5) == pytest.approx(22.0)
    # A gap beside the median moves the estimate part of the way.
    values = [1.0] * 22 + [2.0] * 23
    assert 1.0 < quantile(values, 0.5) < 2.0

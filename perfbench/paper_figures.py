"""Workload ``paper-figures``: the paper's Figures 5-11 at reduced scale.

One operation is one call of a public ``figure*`` function for one
node count and one injection rate, with the default settings (wheel
engine, ``workers=1``, no cache) and a run length cut to
``CYCLES``/``WARMUP``.  Figures 7, 9 and 11 re-simulate exactly the
points of Figures 6, 8 and 10, as the program does today.
"""

from __future__ import annotations

import gc
import time

import checks
from common import ROUNDS, PassResult, round_seed

CYCLES = 250
WARMUP = 50

#: Seed of the operations that fail on the program's sink-capacity
#: fault.  The fault fails them on every seed; a fixed seed keeps the
#: failed share of a run independent of ``--seed``.
SATURATED_SEED = 1

VALIDATION_NODES = (8, 12, 16, 24, 32)
HOTSPOT_NODES = (8, 24)
UNIFORM_NODES = (8, 16, 24, 32)
#: Single hot-spot: two rates below saturation and one far past it
#: (N=8 saturates its sink near 0.14, N=24 near 0.04).
SINGLE_RATES = (0.01, 0.02, 0.4)
SATURATED_RATE = 0.4
#: Two hot-spots stay below saturation: rates near the knee would
#: fail the sink check on some seeds only.
DOUBLE_RATES = (0.01, 0.02, 0.04)
UNIFORM_RATES = (0.05, 0.7)
VALIDATION_RATE = 0.05

#: The rate of each figure whose points must deliver what is offered.
LOWEST_RATE = {
    "figure5": VALIDATION_RATE,
    "figure6": min(SINGLE_RATES),
    "figure7": min(SINGLE_RATES),
    "figure8": min(DOUBLE_RATES),
    "figure9": min(DOUBLE_RATES),
    "figure10": min(UNIFORM_RATES),
    "figure11": min(UNIFORM_RATES),
}

_METRIC = {
    "figure6": "throughput",
    "figure7": "avg_latency",
    "figure8": "throughput",
    "figure9": "avg_latency",
    "figure10": "throughput",
    "figure11": "avg_latency",
}


#: Figures that simulate the same points share a seed group, so the
#: program's re-simulation of Figures 6, 8 and 10 by Figures 7, 9 and
#: 11 is kept.
_GROUP = {
    "figure5": "validation",
    "figure6": "hotspot1",
    "figure7": "hotspot1",
    "figure8": "hotspot2",
    "figure9": "hotspot2",
    "figure10": "uniform",
    "figure11": "uniform",
}


def operations() -> list[tuple[str, int, float]]:
    """Every (figure function, node count, rate) of one pass."""
    ops = [("figure5", n, VALIDATION_RATE) for n in VALIDATION_NODES]
    for name in ("figure6", "figure7"):
        ops += [(name, n, r) for n in HOTSPOT_NODES for r in SINGLE_RATES]
    for name in ("figure8", "figure9"):
        ops += [(name, n, r) for n in HOTSPOT_NODES for r in DOUBLE_RATES]
    for name in ("figure10", "figure11"):
        ops += [(name, n, r) for n in UNIFORM_NODES for r in UNIFORM_RATES]
    return ops


def operation_seed(seed: int, name: str, nodes: int, rate: float) -> int:
    """Each operation draws its own random streams: a seed shared by
    every operation would make their costs rise and fall together."""
    if name in ("figure6", "figure7") and rate == SATURATED_RATE:
        return SATURATED_SEED
    from repro.experiments.parallel import derive_seed

    return derive_seed(seed, _GROUP[name], f"N={nodes}", rate)


def round_operation_seed(
    seed: int, round_index: int, name: str, nodes: int, rate: float
) -> int:
    """The seed of an operation in one input round.  Past saturation
    (the top uniform rate) a run's cost does not depend on its seed, so
    those operations keep the run's round-0 seed in every round."""
    if rate == max(UNIFORM_RATES):
        round_index = 0
    return operation_seed(round_seed(seed, round_index), name, nodes, rate)


class PaperFigures:
    name = "paper-figures"

    def setup(self, seed: int, tmp) -> None:
        import repro.experiments.figures as figures
        from repro.experiments.parallel import point_key
        from repro.experiments.runner import SimulationSettings
        from repro.experiments.specs import parse_topology

        self.figures = figures
        self.point_key = point_key
        #: Set by the runner once the untraced reference pass is done.
        self.tracer = None
        #: The operations of each input round, in issue order.
        self.rounds = [
            [
                (
                    name,
                    n,
                    rate,
                    SimulationSettings(
                        cycles=CYCLES,
                        warmup=WARMUP,
                        seed=round_operation_seed(seed, r, name, n, rate),
                    ),
                )
                for name, n, rate in operations()
            ]
            for r in range(ROUNDS)
        ]
        self.packet_size = self.rounds[0][0][3].config.packet_size_flits
        self.topologies = {
            topology.name: topology
            for n in VALIDATION_NODES
            for topology in map(
                parse_topology, (f"ring{n}", f"spidergon{n}", f"mesh{n}")
            )
        }
        # Results of every execute_points call, for the checks: the
        # figure data keeps only one metric per point.
        self.captured: list = []
        original = figures.execute_points

        def capture(points, **kwargs):
            results, stats = original(points, **kwargs)
            self.captured.append((list(points), results))
            return results, stats

        figures.execute_points = capture
        self._restore = lambda: setattr(figures, "execute_points", original)

    def teardown(self) -> None:
        self._restore()

    def run_pass(self, round_index: int) -> PassResult:
        latencies, failed, problems, all_results = [], 0, [], []
        figure_calls = []
        start = time.perf_counter()
        for name, n, rate, settings in self.rounds[round_index]:
            function = getattr(self.figures, name)
            kwargs = {"node_counts": (n,)}
            if name == "figure5":
                kwargs["injection_rate"] = rate
            else:
                kwargs["rates"] = [rate]
            # Collect the previous operation's garbage outside this
            # operation's timer (the pass still pays for it).
            gc.collect()
            t0 = time.perf_counter()
            if self.tracer is not None:
                with self.tracer.span("experiments.figure"):
                    figure = function(settings, **kwargs)
            else:
                figure = function(settings, **kwargs)
            latencies.append(time.perf_counter() - t0)
            figure_calls.append((name, rate, figure, self.captured.pop()))
        wall = time.perf_counter() - start
        keys, low_rate, uniform_low = [], [], []
        for name, rate, figure, (points, results) in figure_calls:
            op_failed, op_problems = self._check(name, rate, figure, results)
            failed += op_failed
            problems += op_problems
            all_results += results
            keys += [self.point_key(p) for p in points]
            if rate == LOWEST_RATE[name]:
                low_rate += results
            if name == "figure5":
                uniform_low += [
                    (r, self.topologies[r.topology_name]) for r in results
                ]
        problems += checks.low_rate_throughput(low_rate, self.packet_size)
        problems += checks.avg_hops_exact(uniform_low)
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            failed=failed,
            problems=problems,
            digest=checks.digest(all_results),
            layers={
                "points_simulated": len(keys),
                "points_unique": len(set(keys)),
                "results": all_results,
            },
        )

    def _check(self, name, rate, figure, results) -> tuple[int, list[str]]:
        """Returns (1 if the operation failed, other problems)."""
        problems = []
        if name == "figure5":
            sims = [v for k, v in figure.series.items() if k.endswith("-sim")]
            if [s[0] for s in sims] != [r.avg_hops for r in results]:
                problems.append("figure5: series differ from results")
            return 0, problems
        metric = _METRIC[name]
        values = [series[0] for series in figure.series.values()]
        if values != [getattr(r, metric) for r in results]:
            problems.append(f"{name} @{rate}: series differ from results")
        sink_problems = []
        if name in ("figure6", "figure7", "figure8", "figure9"):
            sinks = 1 if name in ("figure6", "figure7") else 2
            for result in results:
                sink_problems += checks.sink_capacity(result, sinks)
        elif rate == max(UNIFORM_RATES):
            problems += checks.uniform_ordering(*results)
        return (1 if sink_problems else 0), problems


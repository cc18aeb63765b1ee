"""Workload ``large-fabric``: 64-node fabrics on the batched engine.

One operation is one ``run_sweep_point`` call (topology parse, then
``run_simulation``) for one point.  Each point runs once bare, on the
batched engine's fast path, and once with the run-time guards users
enable on long campaigns (a stall watchdog and a utilization
timeline), which send the engine to its slow path.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import time

import checks
from common import ROUNDS, PassResult, round_seed

CYCLES = 120
WARMUP = 24
#: The watchdog may trip only if no flit is consumed for a whole run.
STALL_CYCLES = CYCLES
TIMELINE_WINDOW = 50

FABRICS = ("mesh8x8", "mesh3d4x4x4", "spidergon64", "circulant64s8")
#: Uniform rates below and past saturation; one hot-spot rate below
#: saturation (0.3 flits/cycle offered to the sink) and one far past it.
TRAFFIC = (
    ("uniform", 0.05),
    ("uniform", 0.15),
    ("uniform", 0.4),
    ("hotspot:0", 0.005),
    ("hotspot:0", 0.1),
)
SATURATED = ("hotspot:0", 0.1)
#: Points that must deliver what is offered.
LOW_RATE = (("uniform", 0.05), ("hotspot:0", 0.005))
#: Seed of the saturated hot-spot points, which fail the sink check on
#: every seed; a fixed seed keeps the failed share independent of
#: ``--seed``.
SATURATED_SEED = 1


class LargeFabric:
    name = "large-fabric"

    def setup(self, seed: int, tmp) -> None:
        from repro.experiments.parallel import derive_seed, run_sweep_point
        from repro.experiments.runner import SimulationSettings, SweepPoint
        from repro.experiments.specs import parse_topology

        self.run_sweep_point = run_sweep_point
        #: Set by the runner once the untraced reference pass is done.
        self.tracer = None
        base = SimulationSettings(
            cycles=CYCLES, warmup=WARMUP, engine="batched"
        )
        self.packet_size = base.config.packet_size_flits
        self.topologies = {f: parse_topology(f) for f in FABRICS}
        #: Per input round, (bare point, observed point) pairs in
        #: issue order.
        self.rounds = []
        for r in range(ROUNDS):
            pairs = []
            for fabric in FABRICS:
                for pattern, rate in TRAFFIC:
                    point_seed = (
                        SATURATED_SEED
                        if (pattern, rate) == SATURATED
                        else derive_seed(
                            round_seed(seed, r), fabric, pattern, rate
                        )
                    )
                    bare = dataclasses.replace(base, seed=point_seed)
                    observed = dataclasses.replace(
                        bare,
                        stall_cycles=STALL_CYCLES,
                        timeline_window=TIMELINE_WINDOW,
                    )
                    pairs.append(
                        (
                            SweepPoint(fabric, pattern, rate, bare),
                            SweepPoint(fabric, pattern, rate, observed),
                        )
                    )
            self.rounds.append(pairs)
        # A point of round 0 re-run on the heap engine after the timed
        # passes.
        candidates = [
            p for p, _ in self.rounds[0] if (p.pattern, p.rate) != SATURATED
        ]
        self.sampled = random.Random(seed).choice(candidates)
        self.sampled_result = None

    def teardown(self) -> None:
        pass

    def _run(self, point):
        if self.tracer is None:
            return self.run_sweep_point(point)
        with self.tracer.span("experiments.point"):
            return self.run_sweep_point(point)

    def run_pass(self, round_index: int) -> PassResult:
        pairs = self.rounds[round_index]
        latencies, outcomes = [], []
        start = time.perf_counter()
        for bare, observed in pairs:
            pair = []
            for point in (bare, observed):
                # Collect the previous operation's garbage outside this
                # operation's timer (the pass still pays for it).
                gc.collect()
                t0 = time.perf_counter()
                pair.append(self._run(point))
                latencies.append(time.perf_counter() - t0)
            outcomes.append(pair)
        wall = time.perf_counter() - start
        failed, problems, results = 0, [], []
        low_rate, uniform_low = [], []
        bare_s = observed_s = bare_events = observed_events = 0.0
        for index, ((point, _), (bare, observed)) in enumerate(
            zip(pairs, outcomes)
        ):
            results += [bare, observed]
            problems += checks.twin_equal(bare, observed)
            if point.pattern.startswith("hotspot"):
                if checks.sink_capacity(bare, 1):
                    failed += 1
                if checks.sink_capacity(observed, 1):
                    failed += 1
            if (point.pattern, point.rate) in LOW_RATE:
                low_rate.append(bare)
            if (point.pattern, point.rate) == LOW_RATE[0]:
                uniform_low.append((bare, self.topologies[point.topology]))
            if point == self.sampled:
                self.sampled_result = bare
            bare_s += latencies[2 * index]
            observed_s += latencies[2 * index + 1]
            bare_events += bare.events_processed
            observed_events += observed.events_processed
        problems += checks.low_rate_throughput(low_rate, self.packet_size)
        problems += checks.avg_hops_exact(uniform_low)
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            failed=failed,
            problems=problems,
            digest=checks.digest(results),
            layers={
                "results": results,
                "obs_slowdown": (observed_s / observed_events)
                / (bare_s / bare_events),
            },
        )

    def post_checks(self) -> list[str]:
        """Re-run the sampled point on the heap event engine: every
        engine must produce the same bytes."""
        point = dataclasses.replace(
            self.sampled,
            settings=dataclasses.replace(self.sampled.settings, engine="heap"),
        )
        return checks.byte_identical(
            self.sampled_result,
            self.run_sweep_point(point),
            f"{point.topology} {point.pattern} @{point.rate} heap rerun",
        )

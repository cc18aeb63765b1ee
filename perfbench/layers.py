"""Per-layer metrics of a traced run.

Times and counts are per traced pass.  A layer that does not run in
the benchmark process on a workload reports 0 there: the campaign
workload simulates in worker processes, and the figure and serve
layers run on one workload each.
"""

from __future__ import annotations

from common import median


def _per_call_ms(tracer, name: str) -> float:
    calls = tracer.calls.get(name, 0)
    return 1000 * tracer.total[name] / calls if calls else 0.0


def _p50_ms(values) -> float:
    return 1000 * median(values) if values else 0.0


def layer_metrics(setup: dict, passes, tracer) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    reference, traced = passes[0], passes[1:]
    n = len(traced)
    total = lambda name: tracer.total.get(name, 0.0) / n  # noqa: E731
    calls = lambda name: tracer.calls.get(name, 0) / n  # noqa: E731
    results = [r for p in traced for r in p.layers.get("results", [])]
    events = sum(r.events_processed for r in results) / n
    run_s = total("noc.run")
    figure_calls = tracer.calls.get("experiments.figure", 0)
    assembly_ms = (
        1000
        * (tracer.total["experiments.figure"] - tracer.total["experiments.execute"])
        / figure_calls
        if figure_calls
        else 0.0
    )
    simulated = sum(p.layers.get("points_simulated", 0) for p in passes)
    unique = sum(p.layers.get("points_unique", 0) for p in passes)

    def serve_mean(key: str) -> float:
        return sum(
            p.layers["stats_delta"][key] for p in passes if "stats_delta" in p.layers
        ) / len(passes)

    def kind_p50(kind: str) -> float:
        return _p50_ms(
            [t for p in passes for t in p.layers.get("kinds", {}).get(kind, [])]
        )

    return {
        "repro.import_s": (setup["import_s"], "s"),
        "topology.build_ms": (_per_call_ms(tracer, "topology.build"), "ms"),
        "noc.build_ms": (_per_call_ms(tracer, "noc.build"), "ms"),
        "noc.run_s": (run_s, "s"),
        "noc.router_advance_s": (total("noc.router_advance"), "s"),
        "noc.router_send_s": (total("noc.router_send"), "s"),
        "noc.router_receive_s": (total("noc.router_receive"), "s"),
        "noc.ni_send_s": (total("noc.ni_send"), "s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / run_s if run_s else 0.0, "1/s"),
        "sim.self_s": (tracer.self_time.get("noc.run", 0.0) / n, "s"),
        "sim.fast_path_runs": (tracer.engine_modes.get("fast", 0) / n, "count"),
        "sim.slow_path_runs": (tracer.engine_modes.get("slow", 0) / n, "count"),
        "obs.slowdown": (reference.layers.get("obs_slowdown", 0.0), "ratio"),
        "routing.decide_calls": (calls("routing.decide"), "count"),
        "routing.decide_s": (total("routing.decide"), "s"),
        "traffic.packets_generated": (
            sum(r.packets_generated for r in results) / n,
            "count",
        ),
        "traffic.generate_s": (total("traffic.generate"), "s"),
        "stats.record_calls": (calls("stats.record"), "count"),
        "stats.record_s": (total("stats.record"), "s"),
        "stats.summary_ms": (_per_call_ms(tracer, "stats.summary"), "ms"),
        "experiments.points_simulated": (simulated / len(passes), "count"),
        "experiments.points_unique": (unique / len(passes), "count"),
        "experiments.unique_ratio": (
            unique / simulated if simulated else 0.0,
            "ratio",
        ),
        "experiments.figure_assembly_ms": (assembly_ms, "ms"),
        "experiments.campaign_point_p50_ms": (
            _p50_ms(
                [t for p in passes for t in p.layers.get("campaign_points_s", [])]
            ),
            "ms",
        ),
        "experiments.retried": (
            sum(p.layers.get("retried", 0) for p in passes) / len(passes),
            "count",
        ),
        "experiments.pool_rebuilds": (
            sum(p.layers.get("pool_rebuilds", 0) for p in passes) / len(passes),
            "count",
        ),
        "serve.ready_s": (setup["ready_s"], "s"),
        "serve.store_hits": (serve_mean("store_hits"), "count"),
        "serve.coalesced": (serve_mean("coalesced"), "count"),
        "serve.simulated": (serve_mean("simulated"), "count"),
        "serve.engine_resimulations": (
            sum(p.layers.get("engine_resimulations", 0) for p in passes)
            / len(passes),
            "count",
        ),
        "serve.first_byte_p50_ms": (
            _p50_ms([t for p in passes for t in p.layers.get("first_byte_s", [])]),
            "ms",
        ),
        "serve.hit_request_p50_ms": (kind_p50("hit"), "ms"),
        "serve.result_get_p50_ms": (kind_p50("get"), "ms"),
        "serve.cold_request_p50_ms": (kind_p50("cold"), "ms"),
        "trace.overhead": (
            median([p.wall_s for p in traced]) / reference.wall_s,
            "ratio",
        ),
    }

"""Property checks on the program's outputs.

Every check returns a list of problem strings; an empty list means the
output passed.  The checks use only the simulator's public results and
the benchmark's own reference computations (a breadth-first search for
exact distances), so a fault in the simulator cannot hide itself by
also corrupting the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque

#: Standard deviations of slack allowed for sampled quantities.  The
#: checks must never flag a correct run on any seed, so the bound is
#: wide; a doubled or zeroed result still lands far outside it.
SIGMAS = 5.0


def simulated_fields(result) -> dict:
    """A result's simulated statistics: every field except ``extra``,
    which carries observer exports and wall-clock figures."""
    data = result.to_dict() if hasattr(result, "to_dict") else dict(result)
    data.pop("extra", None)
    return data


def digest(results) -> str:
    """sha256 over the simulated fields of *results*, in order."""
    blob = json.dumps(
        [simulated_fields(r) for r in results], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def sink_capacity(result, sinks: int) -> list[str]:
    """A sink consumes at most one flit per cycle, so a hot-spot run's
    throughput is at most one flit/cycle per sink."""
    if result.throughput > sinks:
        return [
            f"{result.topology_name} {result.pattern_name} "
            f"@{result.injection_rate}: throughput "
            f"{result.throughput!r} exceeds {sinks} sink(s) x 1 "
            "flit/cycle"
        ]
    return []


def low_rate_throughput(results, packet_size: int) -> list[str]:
    """Below saturation the network delivers what is offered.

    Pooled over *results*.  Packets arrive as Poisson streams, so the
    flits generated in a measurement window have a standard deviation
    of ``packet_size * sqrt(packets)``.  Runs with the same seed draw
    the same per-source streams, so their deviations add up instead of
    averaging out.  Packets straddling a window's edges add up to two
    packets per run.
    """
    delivered = offered = 0.0
    sigma_by_seed: dict[int, float] = {}
    for r in results:
        window = r.cycles - r.warmup_cycles
        flits = r.injection_rate * r.num_sources * window
        delivered += r.throughput * window
        offered += flits
        sigma_by_seed[r.seed] = sigma_by_seed.get(r.seed, 0.0) + (
            packet_size * math.sqrt(flits / packet_size)
        )
    sigma = math.sqrt(sum(s * s for s in sigma_by_seed.values()))
    slack = SIGMAS * sigma + 2 * packet_size * len(results)
    if abs(delivered - offered) > slack:
        return [
            f"{len(results)} low-rate runs delivered {delivered:.0f} "
            f"flits, not within {slack:.0f} of the offered {offered:.0f}"
        ]
    return []


def bfs_distances(topology) -> list[list[int]]:
    """All-pairs hop distances by breadth-first search."""
    n = topology.num_nodes
    table = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in topology.neighbors(node):
                if dist[nxt] < 0:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        table.append(dist)
    return table


def distinct_pair_moments(topology) -> tuple[float, float]:
    """Mean and standard deviation of the hop distance over ordered
    pairs of distinct nodes (uniform traffic never targets its own
    source)."""
    values = [
        d
        for src, row in enumerate(bfs_distances(topology))
        for dst, d in enumerate(row)
        if dst != src
    ]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def avg_hops_exact(runs) -> list[str]:
    """Minimal routing under uniform traffic: the mean hop count of
    delivered packets matches the exact distinct-pair mean, within
    sampling error, pooled over ``(result, topology)`` *runs*."""
    deviation = variance = 0.0
    for result, topology in runs:
        mean, std = distinct_pair_moments(topology)
        n = result.packets_delivered
        if result.avg_hops is None or n == 0:
            return [f"{result.topology_name}: no packets delivered"]
        deviation += n * (result.avg_hops - mean)
        variance += n * std**2
    if abs(deviation) > SIGMAS * math.sqrt(variance):
        return [
            f"avg_hops of {len(runs)} uniform runs deviate from the exact "
            f"distinct-pair means by {deviation / math.sqrt(variance):.1f} "
            "standard deviations"
        ]
    return []


def uniform_ordering(ring, spidergon, mesh) -> list[str]:
    """The paper's ordering at the top uniform rate: Ring saturates
    below both Spidergon and the 2D Mesh."""
    if ring.throughput < spidergon.throughput and (
        ring.throughput < mesh.throughput
    ):
        return []
    return [
        f"N={ring.num_nodes} @{ring.injection_rate}: ring "
        f"{ring.throughput:.4f} is not below spidergon "
        f"{spidergon.throughput:.4f} and mesh {mesh.throughput:.4f}"
    ]


def twin_equal(bare, observed) -> list[str]:
    """Observation must not change what is simulated."""
    a, b = simulated_fields(bare), simulated_fields(observed)
    diff = sorted(k for k in a if a[k] != b.get(k))
    if diff:
        return [
            f"{bare.topology_name} {bare.pattern_name} "
            f"@{bare.injection_rate}: observed run differs from its "
            f"bare twin in {', '.join(diff)}"
        ]
    return []


def byte_identical(result, reference, what: str) -> list[str]:
    """Two results are byte-identical as JSON."""
    a = json.dumps(result.to_dict(), sort_keys=True)
    b = json.dumps(reference.to_dict(), sort_keys=True)
    if a != b:
        return [f"{what}: results are not byte-identical"]
    return []


def served_equals(served: dict, local) -> list[str]:
    """A result fetched over HTTP equals an in-process simulation of
    the same point."""
    if json.loads(json.dumps(local.to_dict())) != served:
        return [
            f"served result for {local.topology_name} "
            f"{local.pattern_name} @{local.injection_rate} differs "
            "from an in-process run"
        ]
    return []


def simulated_once(
    simulations: dict[str, int],
    requested: set[str],
    model_key: dict[str, str],
    duplicates: set[str],
) -> list[str]:
    """Content addressing: each requested key is simulated exactly
    once, so a model point is simulated once per engine it was
    requested under, which is twice only for *duplicates*.

    Args:
        simulations: key -> simulations seen for it.
        requested: every key a client asked for.
        model_key: key -> the key of the same point on the default
            engine.
        duplicates: model keys also requested under a second engine.
    """
    problems = [
        f"key {key[:12]} simulated {simulations.get(key, 0)} times"
        for key in sorted(requested | simulations.keys())
        if simulations.get(key, 0) != 1
    ]
    per_model: dict[str, int] = {}
    for key in requested:
        model = model_key[key]
        per_model[model] = per_model.get(model, 0) + simulations.get(key, 0)
    for model, count in sorted(per_model.items()):
        expected = 2 if model in duplicates else 1
        if count != expected:
            problems.append(
                f"model point {model[:12]} simulated {count} times, "
                f"expected {expected}"
            )
    return problems

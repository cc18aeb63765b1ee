"""Workload ``campaign-serve``: a batch campaign, then ``repro serve``.

Each pass starts from an empty result store.  A batch campaign runs
through ``Campaign.execute`` with a timeout (the hardened one-worker
pool) and the store as its cache.  Then a ``repro serve`` process on
the same store takes load from two closed-loop client threads:

* client 1 resubmits the batch spec (every point a store hit), then
  submits an overlapping spec with new points;
* client 2 waits until client 1's second submission is streaming,
  submits a spec overlapping it (its shared points coalesce onto the
  running simulations or hit the store), then resubmits part of the
  batch spec under the other engine, which simulates again because
  the point key hashes the engine;
* once both have submitted everything, client 1 and then client 2
  fetch ``GET /result/<key>`` for every key streamed to them.  The
  fetches wait for the simulations to end, and for each other, so that
  no more than two processes (the server and a client, or the server
  and its worker) are busy at once.

An operation is one campaign point (timed from the previous point's
completion) or one HTTP request (timed from send to last byte).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

import checks
from common import ROUNDS, PassResult, round_seed

CYCLES = 1000
WARMUP = 200
TOPOLOGIES = ["ring8", "spidergon8", "mesh2x4", "ring16", "spidergon16", "mesh4x4"]
#: Hot-spot rates stay below saturation (at most 0.45 flits/cycle
#: offered to the sink of a 16-node fabric).
BATCH_RATES = [0.01, 0.02, 0.025, 0.03]
#: Deadline per batch point; far above any point's run time, so it
#: only selects the hardened executor.
POINT_TIMEOUT_S = 120.0
#: Served points re-run in-process after the timed passes.
SAMPLED_KEYS = 3


def specs(seed: int) -> dict[str, dict]:
    base = {
        "cycles": CYCLES,
        "warmup": WARMUP,
        "seed": seed,
        "source_queue_packets": 64,
        "topologies": TOPOLOGIES,
    }
    return {
        "batch": {
            **base,
            "name": "bench-batch",
            "patterns": ["uniform", "hotspot:0"],
            "rates": BATCH_RATES,
        },
        "overlap": {
            **base,
            "name": "bench-overlap",
            "patterns": ["uniform"],
            "rates": [0.03, 0.05],
        },
        "coalesce": {
            **base,
            "name": "bench-coalesce",
            "patterns": ["uniform"],
            "rates": [0.05, 0.08],
        },
        "engine": {
            **base,
            "name": "bench-engine",
            "topologies": TOPOLOGIES[:3],
            "patterns": ["uniform", "hotspot:0"],
            "rates": BATCH_RATES,
            "engine": "batched",
        },
    }


def start_server(store: pathlib.Path, log: pathlib.Path):
    """Start ``python -m repro serve`` on a free port.

    Returns ``(process, port, seconds until it reported ready)``.
    Readiness is the startup line the server prints once bound, read
    from its standard output: no polling.
    """
    env = dict(os.environ)
    src = str(pathlib.Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    with log.open("wb") as err:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            start_new_session=True,
        )
    line = process.stdout.readline().decode()
    ready = time.perf_counter() - start
    if not line.startswith("serving on http://"):
        stop_server(process)
        raise RuntimeError(
            f"repro serve did not start: {line!r}; see {log}"
        )
    port = int(line.split()[2].rsplit(":", 1)[1])
    return process, port, ready


def stop_server(process) -> None:
    """Interrupt the server, wait for it, and kill anything left in
    its process group (its pool workers)."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def process_cpu_s(pid: int) -> float:
    """CPU seconds used so far by the live process *pid*."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    utime, stime = fields.split()[11:13]
    return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")


def reap_children() -> None:
    """Wait for every worker process this process started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


class _Client:
    """One closed-loop client: each request waits for the previous."""

    def __init__(self, client) -> None:
        self.client = client
        self.ops: list[tuple[str, float, bool]] = []
        self.entries: list[tuple[str, dict]] = []
        self.first_byte: list[float] = []
        self.results: dict[str, dict] = {}
        self.error: Exception | None = None

    def submit(self, kind: str, spec: dict, streaming=None) -> list[dict]:
        start = time.perf_counter()
        entries = []
        for entry in self.client.submit(spec):
            if not entries:
                self.first_byte.append(time.perf_counter() - start)
                if streaming is not None:
                    streaming.set()
            entries.append(entry)
        elapsed = time.perf_counter() - start
        points = [e for e in entries if e.get("type") != "summary"]
        ok = bool(entries) and entries[-1].get("type") == "summary" and all(
            e["status"] == "ok" for e in points
        )
        self.ops.append((kind, elapsed, ok))
        self.entries += [(spec["name"], e) for e in points]
        return points

    def fetch_all(self, entries: list[dict]) -> None:
        for entry in entries:
            start = time.perf_counter()
            data = self.client.result(entry["key"])
            self.ops.append(("get", time.perf_counter() - start, data is not None))
            self.results[entry["key"]] = data

    def run(self, script, waits: tuple[threading.Event, ...]) -> None:
        try:
            script(self)
        except Exception as exc:  # reported as a problem of the pass
            self.error = exc
            # The other client must not wait for this one.
            for event in waits:
                event.set()


class CampaignServe:
    name = "campaign-serve"

    def setup(self, seed: int, tmp) -> None:
        from repro.experiments.campaign import Campaign, campaign_points
        from repro.experiments.parallel import point_key, run_sweep_point
        from repro.serve.client import ServeClient

        self.Campaign = Campaign
        self.run_sweep_point = run_sweep_point
        #: Set by the runner once the untraced reference pass is done.
        self.tracer = None
        self.seed = seed
        self.tmp = tmp
        self.points: dict[str, object] = {}
        self.model_key: dict[str, str] = {}
        #: Per input round: (specs, spec name -> point keys, model keys
        #: requested under both engines).
        self.rounds = []
        for r in range(ROUNDS):
            round_specs = specs(round_seed(seed, r))
            spec_keys: dict[str, list[str]] = {}
            for name, spec in round_specs.items():
                keys = []
                for point in campaign_points(spec):
                    key = point_key(point)
                    wheel = dataclasses.replace(
                        point,
                        settings=dataclasses.replace(
                            point.settings, engine="wheel"
                        ),
                    )
                    self.points[key] = point
                    self.model_key[key] = point_key(wheel)
                    keys.append(key)
                spec_keys[name] = keys
            duplicates = {self.model_key[k] for k in spec_keys["engine"]}
            self.rounds.append((round_specs, spec_keys, duplicates))
        self.store = tmp / "store"
        self.store.mkdir()
        self.server, port, self.ready_s = start_server(
            self.store, tmp / "serve.log"
        )
        self.client = ServeClient(port=port, timeout=120.0)
        self.last_results: dict[str, dict] = {}
        self.passes = 0

    def live_children_cpu_s(self) -> float:
        """CPU the server has used so far (it is reaped only at
        teardown)."""
        return process_cpu_s(self.server.pid)

    def teardown(self) -> None:
        stop_server(self.server)
        reap_children()

    def run_pass(self, round_index: int) -> PassResult:
        specs, spec_keys, duplicates = self.rounds[round_index]
        self.passes += 1
        for path in self.store.iterdir():
            path.unlink()
        pass_dir = self.tmp / f"pass{self.passes}"
        pass_dir.mkdir()
        before = self.client.stats()
        campaign = self.Campaign(specs["batch"])
        done_at: list[float] = []
        streaming = threading.Event()
        submitted = threading.Event()
        fetched = threading.Event()

        def first(client: _Client) -> None:
            batch = client.submit("hit", specs["batch"])
            overlap = client.submit("cold", specs["overlap"], streaming)
            if not submitted.wait(timeout=POINT_TIMEOUT_S):
                raise TimeoutError("second client never finished submitting")
            client.fetch_all(batch + overlap)
            fetched.set()

        def second(client: _Client) -> None:
            if not streaming.wait(timeout=POINT_TIMEOUT_S):
                raise TimeoutError("first client never started streaming")
            coalesce = client.submit("cold", specs["coalesce"])
            engine = client.submit("cold", specs["engine"])
            submitted.set()
            if not fetched.wait(timeout=POINT_TIMEOUT_S):
                raise TimeoutError("first client never finished fetching")
            client.fetch_all(coalesce + engine)

        clients = [_Client(self.client), _Client(self.client)]
        start = time.perf_counter()
        batch_results = campaign.execute(
            pass_dir / "batch.csv",
            progress=lambda *_: done_at.append(time.perf_counter()),
            workers=1,
            cache_dir=self.store,
            timeout=POINT_TIMEOUT_S,
        )
        threads = [
            threading.Thread(
                target=c.run, args=(script, (streaming, submitted, fetched))
            )
            for c, script in zip(clients, (first, second))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

        reap_children()
        after = self.client.stats()
        shutil.rmtree(pass_dir)
        return self._evaluate(
            spec_keys, duplicates, wall, start, done_at, campaign,
            batch_results, clients, before, after,
        )

    def _evaluate(
        self, spec_keys, duplicates, wall, start, done_at, campaign,
        batch_results, clients, before, after,
    ) -> PassResult:
        problems = [f"client error: {c.error!r}" for c in clients if c.error]
        point_latencies = [
            t - prev for prev, t in zip([start] + done_at[:-1], done_at)
        ]
        failed = sum(not getattr(r, "ok", True) for r in batch_results)
        latencies = list(point_latencies)
        kinds: dict[str, list[float]] = {}
        for client in clients:
            for kind, elapsed, ok in client.ops:
                latencies.append(elapsed)
                kinds.setdefault(kind, []).append(elapsed)
                failed += not ok
        stats = campaign.last_stats
        if stats.cache_hits or stats.executed != len(spec_keys["batch"]):
            problems.append(
                f"batch campaign on an empty store: {stats.executed} "
                f"simulated, {stats.cache_hits} cache hits"
            )
        # Content addressing: one simulation per distinct key.
        simulations = {k: 1 for k in spec_keys["batch"]}
        served: dict[str, dict] = {}
        entries = [e for c in clients for e in c.entries]
        for spec_name, entry in entries:
            if entry["source"] == "simulated":
                simulations[entry["key"]] = simulations.get(entry["key"], 0) + 1
            if spec_name == "bench-batch" and entry["source"] != "store":
                problems.append(f"resubmitted key {entry['key'][:12]} missed the store")
        for client in clients:
            served.update(client.results)
        requested = set().union(*spec_keys.values())
        problems += checks.simulated_once(
            simulations, requested, self.model_key, duplicates
        )
        delta = {k: after[k] - before[k] for k in ("points", "store_hits", "coalesced", "simulated")}
        if delta["simulated"] != sum(e["source"] == "simulated" for _, e in entries):
            problems.append(f"/stats simulated {delta['simulated']} disagrees with the streams")
        if delta["points"] != len(entries):
            problems.append(f"/stats points {delta['points']} != {len(entries)} streamed")
        if served.keys() != requested:
            problems.append("GET /result did not return every streamed key")
        # Engines are byte-identical: both engines' entries must agree.
        wheel_of = {self.model_key[k]: k for k in spec_keys["batch"]}
        for key in spec_keys["engine"]:
            twin = wheel_of[self.model_key[key]]
            if served.get(key) != served.get(twin):
                problems.append(f"engine duplicate {key[:12]} differs from its twin")
        self.last_results = served
        ordered = [served[k] for k in sorted(served) if served[k] is not None]
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            failed=failed,
            problems=problems,
            digest=checks.digest(ordered),
            layers={
                "campaign_points_s": point_latencies,
                "retried": stats.retried,
                "pool_rebuilds": stats.pool_rebuilds,
                "stats_delta": delta,
                "engine_resimulations": sum(
                    e["source"] == "simulated"
                    for name, e in entries
                    if name == "bench-engine"
                ),
                "first_byte_s": [t for c in clients for t in c.first_byte],
                "kinds": kinds,
            },
        )

    def post_checks(self) -> list[str]:
        """Served results equal in-process simulations of the same
        points (a seeded sample of the last pass's keys)."""
        keys = sorted(self.last_results)
        problems = []
        for key in random.Random(self.seed).sample(keys, SAMPLED_KEYS):
            local = self.run_sweep_point(self.points[key])
            problems += checks.served_equals(self.last_results[key], local)
        return problems

#!/usr/bin/env python3
"""Layered benchmark of the NoC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 36 --trace 0

Workloads: ``paper-figures``, ``large-fabric``, ``campaign-serve``
(see README.md).  The run sets up several times in fresh processes
(``setup_s`` is their median), sets up once more itself, makes one
untimed warm-up pass, then repeats whole passes over the workload's
operations, cycling through ``ROUNDS`` input rounds, until
``--seconds`` have passed since the warm-up began.  It checks every
output and prints one JSON object as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes one untraced timed pass, then traced passes, and reports the
per-layer metrics, writing the spans to ``.perfbench-out/``.

``python3 perfbench/run.py --regen-digests`` recomputes the reference
digests of the simulated statistics (``reference_digests.json``).

All scratch files go to ``.perfbench-tmp/`` in the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import MIN_OPS, ROUNDS, median, quantile, tail  # noqa: E402

WORKLOADS = {
    "paper-figures": ("paper_figures", "PaperFigures"),
    "large-fabric": ("large_fabric", "LargeFabric"),
    "campaign-serve": ("campaign_serve", "CampaignServe"),
}
#: Timed set-up repetitions, after one untimed one that fills the
#: bytecode and file caches.
SETUP_PROBES = 5
#: Timed passes per run, whatever ``--seconds`` says: the metrics
#: are medians over passes.
MIN_PASSES = 3
REFERENCE_SEEDS = (1, 1009)
DIGESTS = HERE / "reference_digests.json"
TMP_ROOT = pathlib.Path(".perfbench-tmp")
OUT_ROOT = pathlib.Path(".perfbench-out")


def make_workload(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- set-up -------------------------------------------------------------


def setup_probe(args, tmp: pathlib.Path) -> int:
    """Child side of a set-up measurement: import, set up, report."""
    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    workload = make_workload(args.workload)
    workload.setup(args.seed, tmp)
    try:
        ready = getattr(workload, "ready_s", 0.0)
        print(f"ready {import_s!r} {ready!r}", flush=True)
    finally:
        workload.teardown()
    return 0


def measure_setup(args, tmp: pathlib.Path) -> dict:
    """Set up in fresh processes: spawn to ready, repeated."""
    samples = {"setup_s": [], "import_s": [], "ready_s": []}
    for index in range(SETUP_PROBES + 1):
        probe_tmp = tmp / f"probe{index}"
        probe_tmp.mkdir()
        start = time.perf_counter()
        child = subprocess.Popen(
            [
                sys.executable, str(HERE / "run.py"), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--tmp", str(probe_tmp),
            ],
            stdout=subprocess.PIPE,
        )
        try:
            line = child.stdout.readline().decode()
            elapsed = time.perf_counter() - start
            status = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.terminate()
                child.wait()
            child.stdout.close()
        if status != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed: {line!r}")
        if index == 0:
            continue
        _, import_s, ready_s = line.split()
        samples["setup_s"].append(elapsed)
        samples["import_s"].append(float(import_s))
        samples["ready_s"].append(float(ready_s))
    return {key: median(values) for key, values in samples.items()}


# -- the run ------------------------------------------------------------


def run(args, tmp: pathlib.Path) -> dict:
    setup = measure_setup(args, tmp)
    workload = make_workload(args.workload)
    (tmp / "main").mkdir()
    workload.setup(args.seed, tmp / "main")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes, rounds = [], []
    start = time.perf_counter()
    try:
        # The warm-up pass runs first-time code paths and fills the
        # caches; it is checked but not timed.
        warmup = workload.run_pass(0)
        self0 = cpu_seconds(resource.RUSAGE_SELF)
        children0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        live0 = (
            workload.live_children_cpu_s()
            if hasattr(workload, "live_children_cpu_s")
            else 0.0
        )
        while True:
            rounds.append((len(passes) + 1) % ROUNDS)
            passes.append(workload.run_pass(rounds[-1]))
            if tracer is not None and workload.tracer is None:
                # The first timed pass is the untraced reference.
                tracer.install_layers()
                workload.tracer = tracer
                continue
            # Start another pass only if it should end in time.
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and (
                elapsed + passes[-1].wall_s > args.seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()
    cpu = (
        cpu_seconds(resource.RUSAGE_SELF) - self0
        + cpu_seconds(resource.RUSAGE_CHILDREN) - children0
        - live0
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    checked = [warmup] + passes
    problems = [p for each in checked for p in each.problems]
    digests: dict[int, set[str]] = {}
    for index, each in zip([0] + rounds, checked):
        digests.setdefault(index, set()).add(each.digest)
    for index, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append(
                f"passes of round {index} disagree: {len(seen)} digests"
            )
    if hasattr(workload, "post_checks"):
        problems += workload.post_checks()
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if any(each.attempted < MIN_OPS for each in passes):
        raise RuntimeError(f"a pass issued fewer than {MIN_OPS} operations")

    digest = warmup.digest
    reference = (
        json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    ).get(args.workload, {}).get(str(args.seed))
    status = "none" if reference is None else (
        "match" if reference == digest else "differs"
    )
    print(
        f"digest {args.workload} seed={args.seed} sha256={digest} "
        f"reference={status}"
    )
    if tracer is not None:
        from layers import layer_metrics

        metrics = layer_metrics(setup, passes, tracer)
        path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, workload=args.workload, seed=args.seed)
        print(f"spans written to {path}")
    else:
        # Every pass issues the same operations in the same order: an
        # operation's latency is its median over the timed passes,
        # which filters a host hiccup that hit one pass and averages
        # over the rounds' seeds.
        op_latencies = [
            median(samples)
            for samples in zip(*(p.latencies_s for p in passes))
        ]
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "pass_s": (median([p.wall_s for p in passes]), "s"),
            "cpu_s": (cpu / len(passes), "s"),
            "op_p50_ms": (1000 * quantile(op_latencies, 0.5), "ms"),
            "op_tail_ms": (1000 * tail(op_latencies), "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in checked),
        "failed": sum(p.failed for p in checked),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def regen_digests() -> int:
    """Recompute the reference digest of every workload and
    reference seed from one pass of input round 0 each."""
    table = {}
    for name in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            tmp = TMP_ROOT / f"regen-{os.getpid()}-{name}-{seed}"
            tmp.mkdir(parents=True)
            workload = make_workload(name)
            try:
                workload.setup(seed, tmp)
                digest = workload.run_pass(0).digest
            finally:
                workload.teardown()
                shutil.rmtree(tmp, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed={seed} sha256={digest}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-digests", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tmp", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = pathlib.Path("src")
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout of the "
            "repository (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src.resolve()))
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The server is stopped with SIGINT; a launcher that ignores SIGINT
    # would pass the ignored disposition on to it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.regen_digests:
        return regen_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args, args.tmp)
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

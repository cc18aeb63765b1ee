"""Layer attribution from outside the program.

The tracer replaces public functions and methods of the layers with
timing wrappers, from the benchmark's own files; nothing under
``src/`` is edited.  For each wrapped name it accumulates the number
of calls, the inclusive time and the self time (inclusive time minus
the time of wrapped calls made inside it).  Coarse calls (one per
operation or per simulation) are also kept as spans, with the index of
the enclosing span, and written out as JSON at the end of the run.
Per-flit and per-cycle calls are only accumulated: a span each would
hold millions of records.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Counts, inclusive time and self time per layer name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.engine_modes: dict[str, int] = defaultdict(int)
        # One frame per active wrapped call: [name, child seconds,
        # span index or None].
        self._stack: list[list] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _enter(self, name: str, keep_span: bool) -> list:
        span = None
        if keep_span:
            parent = next(
                (f[2] for f in reversed(self._stack) if f[2] is not None),
                None,
            )
            span = len(self.spans)
            self.spans.append({"name": name, "parent": parent})
        frame = [name, 0.0, span]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name, child, span = frame
        elapsed = end - start
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed
        if span is not None:
            self.spans[span]["start"] = start
            self.spans[span]["end"] = end

    @contextmanager
    def span(self, name: str):
        """Time a block as one span of *name*."""
        frame = self._enter(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    def _wrapper(self, fn, name: str, keep_span: bool, after=None):
        stack = self._stack
        enter, leave = self._enter, self._exit
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            # A subclass method calling its parent's version is one
            # call of the layer, not two.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = enter(name, keep_span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, start, clock())
                if after is not None:
                    after(args)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, span=False, after=None):
        """Replace ``owner.attr`` with a timing wrapper (undone by
        :meth:`uninstall`)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new = classmethod(
                self._wrapper(raw.__func__, name, span, after)
            )
        else:
            new = self._wrapper(raw, name, span, after)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def wrap_family(self, base: type, attr: str, name: str) -> None:
        """Wrap *attr* on *base* and on every loaded subclass that
        defines its own."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap(cls, attr, name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def install_layers(self) -> None:
        """Wrap the public functions of every simulation layer."""
        import repro.experiments.figures as figures
        import repro.experiments.parallel as parallel
        from repro.noc.interface import NetworkInterface
        from repro.noc.network import Network
        from repro.noc.router import Router
        from repro.routing.base import RoutingAlgorithm
        from repro.stats.collectors import NetworkStats
        from repro.stats.summary import RunResult
        from repro.traffic import injection
        from repro.traffic.base import TrafficPattern

        def count_mode(args) -> None:
            mode = getattr(args[0].simulator.engine, "mode", None)
            self.engine_modes[mode or "event"] += 1

        self.wrap(
            parallel, "parse_topology_routing", "topology.build", span=True
        )
        self.wrap(parallel, "run_simulation", "experiments.run", span=True)
        self.wrap(figures, "execute_points", "experiments.execute", span=True)
        self.wrap(Network, "__init__", "noc.build", span=True)
        self.wrap(Network, "run", "noc.run", span=True, after=count_mode)
        self.wrap(RunResult, "from_stats", "stats.summary", span=True)
        self.wrap(Router, "advance_phase", "noc.router_advance")
        self.wrap(Router, "send_phase", "noc.router_send")
        self.wrap(Router, "receive_flit", "noc.router_receive")
        self.wrap(Router, "receive_credit", "noc.router_receive")
        self.wrap(NetworkInterface, "send_phase", "noc.ni_send")
        self.wrap_family(RoutingAlgorithm, "decide", "routing.decide")
        self.wrap_family(TrafficPattern, "destination_for", "traffic.generate")
        for cls in vars(injection).values():
            if isinstance(cls, type) and "next_interarrival" in cls.__dict__:
                self.wrap(cls, "next_interarrival", "traffic.generate")
        for attr in sorted(vars(NetworkStats)):
            if attr.startswith("record_"):
                self.wrap(NetworkStats, attr, "stats.record")

    # -- output ---------------------------------------------------------

    def dump(self, path, **extra) -> None:
        """Write spans and totals as JSON."""
        payload = {
            "totals": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "engine_modes": dict(self.engine_modes),
            "spans": self.spans,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

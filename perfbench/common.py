"""Shared pieces of the workloads: the per-pass record and statistics."""

from __future__ import annotations

import dataclasses
import math
import statistics

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Operations each pass must issue so that the tail is a real tail.
MIN_OPS = 4 * TAIL_BEYOND

#: Input rounds a run cycles through.  Pass ``k`` runs round
#: ``k % ROUNDS``: the same operations on other simulation seeds, so an
#: operation's median over the passes averages over several seeds'
#: costs as well as over the host's speed at several moments.  Passes
#: of the same round must give the same digest.
ROUNDS = 3


def round_seed(seed: int, round_index: int) -> int:
    """The seed of one input round of a run with ``--seed`` *seed*;
    round 0 is *seed* itself."""
    if round_index == 0:
        return seed
    return (seed * 1_000_003 + round_index * 7919) % 2**31


@dataclasses.dataclass
class PassResult:
    """One full pass over a workload's operations.

    Attributes:
        wall_s: Host wall time of the pass.
        latencies_s: Host time of every operation, in issue order.
        failed: Operations that failed (the named program fault).
        problems: Check violations on operations that did not fail.
        digest: sha256 of the simulated fields of every result.
        layers: Workload-specific per-layer figures for this pass.
    """

    wall_s: float
    latencies_s: list[float]
    failed: int
    problems: list[str]
    digest: str
    layers: dict = dataclasses.field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def tail(values: list[float]) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it, the (TAIL_BEYOND + 1)-th largest value's rank, as a
    Harrell-Davis estimate (see ``quantile``)."""
    n = len(values)
    if n <= TAIL_BEYOND + 1:
        raise ValueError(
            f"{n} samples leave no tail beyond {TAIL_BEYOND}"
        )
    return quantile(values, (n - 1 - TAIL_BEYOND) / (n - 1))


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the *p*-quantile of *values*.

    A weighted mean of all order statistics, with weights from a beta
    distribution centred on rank ``p * (n + 1)``.  The operations of a
    pass differ in cost, with gaps between them; a single order
    statistic jumps across a gap when host noise or the seed reorders
    the operations beside it, while this estimate moves smoothly.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # The continued fraction converges fast below the mean.
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def median(values) -> float:
    return statistics.median(values)

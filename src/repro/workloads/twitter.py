"""Synthetic stand-in for the paper's Twitter dataset (Section V-A / V-C).

The paper uses a proprietary crawl of tweets about Italian politicians
from the 2014 European elections.  Everything the evaluation exploits
about that dataset is summarized by four reported statistics:

- 500,000 tweets considered;
- roughly ``n = 35,000`` distinct mentioned entities;
- the most frequent entity ("Beppe Grillo") has empirical probability
  of occurrence 0.065;
- entities classify into *media* / *politicians* / *others*, modelled with
  25 ms / 5 ms / 1 ms of busy waiting respectively.

We therefore generate a Zipf-like entity-frequency distribution whose skew
``alpha`` is calibrated (by bisection) so the top entity's probability
matches the reported 0.065, attach entity classes, and map classes to the
reported execution times.  This preserves the two properties the
experiment depends on: the frequency skew seen by the sketches and the
3-modal execution-time distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bounds import check_bounds, integer, real
from repro.workloads.distributions import ZipfItems
from repro.workloads.exectime import ClassBasedTimeModel
from repro.workloads.synthetic import Stream, arrival_times

#: entity classes of the paper's application
CLASS_MEDIA = 0
CLASS_POLITICIAN = 1
CLASS_OTHER = 2

#: busy-waiting execution times (milliseconds) from Section V-C
PAPER_CLASS_TIMES = {CLASS_MEDIA: 25.0, CLASS_POLITICIAN: 5.0, CLASS_OTHER: 1.0}


@dataclass(frozen=True)
class TwitterDatasetSpec:
    """Parameters of the synthetic Twitter stream (defaults = paper)."""

    m: int = integer(500_000, low=1)
    n: int = integer(35_000, low=1)
    top_probability: float = real(0.065, low=0, high=1, open_low=True, open_high=True)
    #: fraction of entities in each class; media are rare, long-running
    media_fraction: float = real(0.05, low=0)
    politician_fraction: float = real(0.20, low=0)
    class_times: dict = field(default_factory=lambda: dict(PAPER_CLASS_TIMES))
    k: int = integer(5, low=1)
    over_provisioning: float = real(1.0, low=0, open_low=True)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.media_fraction + self.politician_fraction > 1.0:
            raise ValueError("class fractions must sum to <= 1")


def calibrate_zipf_alpha(
    n: int, top_probability: float, tolerance: float = 1e-6
) -> float:
    """Find the Zipf skew giving the top item the target probability.

    ``p_1(alpha) = 1 / H_n(alpha)`` is strictly increasing in ``alpha``,
    so a simple bisection converges.  Raises when the target is
    unreachable (below the uniform probability ``1/n``).
    """
    if top_probability <= 1.0 / n:
        raise ValueError(
            f"top_probability {top_probability} unreachable for n={n} "
            f"(uniform gives {1.0 / n})"
        )

    def top_p(alpha: float) -> float:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float(1.0 / (ranks ** (-alpha)).sum())

    lo, hi = 0.0, 1.0
    while top_p(hi) < top_probability:
        hi *= 2.0
        if hi > 64:  # pragma: no cover - defensive
            raise RuntimeError("Zipf calibration diverged")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if top_p(mid) < top_probability:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def assign_entity_classes(
    spec: TwitterDatasetSpec, rng: np.random.Generator
) -> np.ndarray:
    """Randomly classify entities into media / politicians / others.

    The class is independent of the entity's frequency rank, mirroring the
    paper's observation that long-running (media) tuples appear throughout
    the stream.
    """
    n_media = int(round(spec.media_fraction * spec.n))
    n_politicians = int(round(spec.politician_fraction * spec.n))
    classes = np.full(spec.n, CLASS_OTHER, dtype=np.int64)
    order = rng.permutation(spec.n)
    classes[order[:n_media]] = CLASS_MEDIA
    classes[order[n_media:n_media + n_politicians]] = CLASS_POLITICIAN
    return classes


def generate_twitter_stream(
    spec: TwitterDatasetSpec | None = None,
    rng: np.random.Generator | None = None,
) -> Stream:
    """Generate the synthetic Twitter stream.

    Returns a :class:`~repro.workloads.synthetic.Stream` whose items are
    entity ids and whose execution times follow the 25/5/1 ms class model.
    """
    spec = spec if spec is not None else TwitterDatasetSpec()
    rng = rng if rng is not None else np.random.default_rng()
    alpha = calibrate_zipf_alpha(spec.n, spec.top_probability)
    distribution = ZipfItems(spec.n, alpha)
    classes = assign_entity_classes(spec, rng)
    model = ClassBasedTimeModel(classes, spec.class_times)
    items = distribution.sample(spec.m, rng)
    base_times = model.times_of(items)
    arrivals = arrival_times(
        spec.m, spec.k, float(base_times.mean()), spec.over_provisioning
    )
    return Stream(
        items=items,
        base_times=base_times,
        arrivals=arrivals,
        n=spec.n,
        time_table=model.table(),
        label="twitter",
    )

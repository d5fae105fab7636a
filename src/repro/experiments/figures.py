"""One function per figure of the paper's evaluation (Section V).

Every function returns a :class:`FigureResult` whose rows carry the same
series the paper plots; the ``benchmarks/`` targets and the
``figureN`` rows of :data:`repro.experiments.cli.COMMANDS` print them.
Absolute milliseconds differ from the paper (different hardware model),
but the *shapes* — orderings, trends and crossovers — are asserted by
the benchmark suite.  Figures 5-9 are one-parameter sweeps over
:func:`_sweep`; each names only what its parameter changes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping, RoundRobinGrouping
from repro.core.scheduler import SchedulerState
from repro.experiments.runner import (
    PAPER_POSG_CONFIG,
    ExperimentSettings,
    PolicyOutcome,
    compare_policies,
    env_scale,
)
from repro.simulator.run import simulate_stream
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.workloads.distributions import ZipfItems, paper_distributions
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream, StreamSpec, generate_stream
from repro.workloads.twitter import TwitterDatasetSpec, generate_twitter_stream


@dataclass
class FigureResult:
    """Structured reproduction of one paper figure."""

    name: str
    description: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form (for archiving measured results)."""
        return {
            "name": self.name,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def save(self, path) -> None:
        """Write the result as JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path) -> "FigureResult":
        """Read a result saved with :meth:`save`."""
        import json

        with open(path) as handle:
            payload = json.load(handle)
        return cls(
            name=payload["name"],
            description=payload["description"],
            columns=payload["columns"],
            rows=payload["rows"],
            notes=payload["notes"],
        )


def _spec(scale: float | None = None, **overrides) -> StreamSpec:
    """Section V-A defaults, optionally length-scaled."""
    scale = scale if scale is not None else env_scale()
    m = overrides.pop("m", 32_768)
    return StreamSpec(m=max(1024, int(m * scale)), **overrides)


# ----------------------------------------------------------------------
# Figure 4 — L vs frequency probability distribution
# ----------------------------------------------------------------------
def figure4_distributions(
    settings: ExperimentSettings | None = None,
) -> FigureResult:
    """POSG / Round-Robin / Full Knowledge across uniform and Zipf-alpha."""
    settings = settings if settings is not None else ExperimentSettings()
    result = FigureResult(
        name="figure4",
        description="Average per-tuple completion time L vs frequency "
        "distribution (paper Fig. 4)",
        columns=["distribution", "policy", "min", "mean", "max"],
    )
    for distribution in paper_distributions():
        spec = _spec(n=distribution.n, k=settings.k)
        outcomes = compare_policies(
            lambda rng, d=distribution, s=spec: generate_stream(d, s, rng),
            settings,
        )
        for policy, outcome in outcomes.items():
            summary = outcome.summary()
            result.rows.append({"distribution": distribution.label,
                                "policy": policy, **summary})
    return result


# ----------------------------------------------------------------------
# Figures 5-9 — one-parameter sweeps on the Zipf-1.0 stream
# ----------------------------------------------------------------------
def _sweep(
    settings: ExperimentSettings | None,
    values: Iterable,
    vary: Callable[[object], tuple[dict, dict]],
) -> Iterator[tuple[object, dict[str, PolicyOutcome]]]:
    """The three-policy comparison at every value of one swept parameter.

    ``vary(value)`` names what the value changes: fields of the settings
    (applied with ``dataclasses.replace``, so every other field carries
    over) and fields of the stream spec.
    """
    settings = settings if settings is not None else ExperimentSettings()
    for value in values:
        settings_changes, spec_changes = vary(value)
        point = dataclasses.replace(settings, **settings_changes)
        spec = _spec(k=point.k, **spec_changes)
        yield value, compare_policies(
            lambda rng, s=spec: generate_stream(ZipfItems(s.n, 1.0), s, rng),
            point,
        )


def _policy_rows(key: str, value, outcomes: dict[str, PolicyOutcome]) -> list:
    """Round-Robin and POSG summaries of one sweep point (Figures 6, 7)."""
    speedup = outcomes["posg"].speedup_summary()["mean"]
    return [
        {
            key: value, "policy": policy, **outcomes[policy].summary(),
            "speedup_mean": speedup if policy == "posg" else 1.0,
        }
        for policy in ("round_robin", "posg")
    ]


def figure5_overprovisioning(
    settings: ExperimentSettings | None = None,
    percentages: tuple[float, ...] = (0.95, 0.98, 1.0, 1.02, 1.05, 1.09, 1.15),
) -> FigureResult:
    """Speedup S_L of POSG over Round-Robin vs provisioning (paper Fig. 5)."""
    result = FigureResult(
        name="figure5",
        description="Completion time speedup vs percentage of "
        "over-provisioning (paper Fig. 5)",
        columns=["over_provisioning", "min", "mean", "max"],
    )
    for percentage, outcomes in _sweep(
        settings, percentages, lambda p: ({}, {"over_provisioning": p})
    ):
        summary = outcomes["posg"].speedup_summary()
        result.rows.append({"over_provisioning": percentage, **summary})
    return result


def figure6_wmax(
    settings: ExperimentSettings | None = None,
    w_max_values: tuple[float, ...] = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> FigureResult:
    """L for POSG and Round-Robin as w_max grows (paper Fig. 6)."""
    result = FigureResult(
        name="figure6",
        description="Average completion time vs maximum execution time "
        "value w_max (paper Fig. 6)",
        columns=["w_max", "policy", "min", "mean", "max", "speedup_mean"],
    )
    for w_max, outcomes in _sweep(
        settings, w_max_values,
        # cannot have more values than the range
        lambda w: ({}, {"w_max": float(w), "w_n": min(64, int(w))}),
    ):
        result.rows.extend(_policy_rows("w_max", w_max, outcomes))
    return result


def figure7_wn(
    settings: ExperimentSettings | None = None,
    w_n_values: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> FigureResult:
    """L for POSG and Round-Robin as w_n grows (paper Fig. 7)."""
    result = FigureResult(
        name="figure7",
        description="Average completion time vs number of execution time "
        "values w_n (paper Fig. 7)",
        columns=["w_n", "policy", "min", "mean", "max", "speedup_mean"],
    )
    for w_n, outcomes in _sweep(
        settings, w_n_values, lambda n: ({}, {"w_n": n})
    ):
        result.rows.extend(_policy_rows("w_n", w_n, outcomes))
    return result


def figure8_instances(
    settings: ExperimentSettings | None = None,
    instance_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> FigureResult:
    """Speedup vs k (paper Fig. 8)."""
    result = FigureResult(
        name="figure8",
        description="Completion time speedup vs number of operator "
        "instances k (paper Fig. 8)",
        columns=["k", "min", "mean", "max"],
    )
    for k, outcomes in _sweep(
        settings, instance_counts, lambda k: ({"k": k}, {})
    ):
        result.rows.append({"k": k, **outcomes["posg"].speedup_summary()})
    return result


def figure9_epsilon(
    settings: ExperimentSettings | None = None,
    epsilons: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0),
    m: int | None = None,
) -> FigureResult:
    """Speedup vs epsilon; smaller epsilon = wider matrices (paper Fig. 9).

    Runs on a 4x longer stream than the other sweeps, with the faithful
    N = 1024 window: the epsilon sweep only measures sketch quality once
    the bootstrap and sync cadence are amortized, and wide matrices need
    enough samples per cell to differentiate (see EXPERIMENTS.md).
    """
    settings = settings if settings is not None else ExperimentSettings()
    m = m if m is not None else max(4_096, int(131_072 * env_scale()))
    # cols=None: the column count follows from epsilon
    configs = {
        epsilon: dataclasses.replace(
            settings.posg_config,
            epsilon=epsilon, window_size=1024, rows=4, cols=None,
        )
        for epsilon in epsilons
    }
    result = FigureResult(
        name="figure9",
        description="Completion time speedup vs precision parameter "
        "epsilon (paper Fig. 9)",
        columns=["epsilon", "cols", "min", "mean", "max"],
    )
    for epsilon, outcomes in _sweep(
        settings, epsilons,
        lambda e: ({"posg_config": configs[e]}, {"scale": 1.0, "m": m}),
    ):
        result.rows.append({
            "epsilon": epsilon, "cols": configs[epsilon].sketch_shape[1],
            **outcomes["posg"].speedup_summary(),
        })
    return result


# ----------------------------------------------------------------------
# Figure 10 — simulator time series with a load shift
# ----------------------------------------------------------------------
def figure10_timeseries(
    m: int | None = None,
    k: int = 5,
    seed: int = 0,
    posg_config: POSGConfig | None = None,
    bin_size: int = 2000,
) -> FigureResult:
    """Completion-time series around an abrupt load change (paper Fig. 10).

    Runs the faithful Section V-A configuration (N = 1024, replace) on
    the paper's m = 150,000 two-phase scenario.
    """
    m = m if m is not None else max(10_000, int(150_000 * env_scale()))
    posg_config = posg_config if posg_config is not None else PAPER_POSG_CONFIG
    scenario = LoadShiftScenario.paper_figure10(m)
    spec = StreamSpec(m=m, k=k)
    stream = generate_stream(
        ZipfItems(spec.n, 1.0), spec, np.random.default_rng(seed)
    )
    posg_policy = POSGGrouping(posg_config)
    posg = simulate_stream(
        stream, posg_policy, k=k, scenario=scenario,
        rng=np.random.default_rng(seed + 1),
    )
    rr = simulate_stream(stream, RoundRobinGrouping(), k=k, scenario=scenario)

    result = FigureResult(
        name="figure10",
        description="Simulator per-tuple completion time series with a "
        "load shift at m/2 (paper Fig. 10)",
        columns=["index", "posg_min", "posg_mean", "posg_max",
                 "rr_min", "rr_mean", "rr_max"],
    )
    posg_series = posg.stats.time_series(bin_size)
    rr_series = rr.stats.time_series(bin_size)
    for i in range(len(posg_series)):
        result.rows.append({
            "index": int(posg_series.index[i]),
            "posg_min": posg_series.minimum[i],
            "posg_mean": posg_series.mean[i],
            "posg_max": posg_series.maximum[i],
            "rr_min": rr_series.minimum[i],
            "rr_mean": rr_series.mean[i],
            "rr_max": rr_series.maximum[i],
        })
    run_entry = posg.run_entry_index()
    result.notes.append(f"POSG entered RUN at tuple {run_entry}")
    recoveries = [
        index for index, state in posg.state_transitions
        if state is SchedulerState.RUN and index > m // 2
    ]
    if recoveries:
        result.notes.append(
            f"first post-shift resynchronization completed at tuple {recoveries[0]}"
        )
    result.notes.append(
        f"sync rounds completed: {posg_policy.scheduler.sync_rounds_completed}"
    )
    return result


# ----------------------------------------------------------------------
# Figures 11/12 — the Storm prototype
# ----------------------------------------------------------------------
def _run_prototype(
    stream: Stream,
    k: int,
    grouping: str,
    posg_config: POSGConfig,
    scenario: LoadShiftScenario | None = None,
    cluster_config: ClusterConfig | None = None,
    seed: int = 1,
):
    """One topology run on the mini-Storm engine; returns the cluster."""
    builder = TopologyBuilder()
    builder.set_spout(
        "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
    )
    bolt = builder.set_bolt(
        "worker",
        lambda: WorkBolt(stream.time_table, scenario),
        parallelism=k,
    )
    if grouping == "posg":
        bolt.custom_grouping(
            "source",
            POSGShuffleGrouping("value", posg_config, np.random.default_rng(seed)),
        )
    elif grouping == "assg":
        bolt.shuffle_grouping("source")
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    cluster = LocalCluster(cluster_config)
    cluster.submit(builder.build())
    cluster.run()
    return cluster


def figure11_prototype_timeseries(
    m: int | None = None,
    k: int = 5,
    seed: int = 0,
    posg_config: POSGConfig | None = None,
    bin_size: int = 2000,
    message_timeout: float = 30_000.0,
) -> FigureResult:
    """Figure 10's scenario on the Storm-like engine: POSG vs ASSG.

    Reports the same binned series plus the tuple-timeout counts the
    paper highlights (1,600 ASSG timeouts in their run).
    """
    m = m if m is not None else max(10_000, int(150_000 * env_scale()))
    posg_config = posg_config if posg_config is not None else PAPER_POSG_CONFIG
    scenario = LoadShiftScenario.paper_figure10(m)
    spec = StreamSpec(m=m, k=k)
    stream = generate_stream(
        ZipfItems(spec.n, 1.0), spec, np.random.default_rng(seed)
    )
    cluster_config = ClusterConfig(message_timeout=message_timeout)
    posg = _run_prototype(stream, k, "posg", posg_config, scenario,
                          cluster_config, seed + 1)
    assg = _run_prototype(stream, k, "assg", posg_config, scenario,
                          cluster_config, seed + 1)

    result = FigureResult(
        name="figure11",
        description="Prototype per-tuple completion time series with a "
        "load shift at m/2 (paper Fig. 11)",
        columns=["bin_start", "posg_mean", "assg_mean"],
    )
    posg_lat = posg.metrics.completion_latencies()
    assg_lat = assg.metrics.completion_latencies()
    posg_ids = np.array(posg.metrics.completed_ids())
    assg_ids = np.array(assg.metrics.completed_ids())
    for start in range(0, m, bin_size):
        posg_bin = posg_lat[(posg_ids >= start) & (posg_ids < start + bin_size)]
        assg_bin = assg_lat[(assg_ids >= start) & (assg_ids < start + bin_size)]
        result.rows.append({
            "bin_start": start,
            "posg_mean": float(posg_bin.mean()) if posg_bin.size else float("nan"),
            "assg_mean": float(assg_bin.mean()) if assg_bin.size else float("nan"),
        })
    result.notes.append(f"POSG timeouts: {posg.metrics.timed_out}")
    result.notes.append(f"ASSG timeouts: {assg.metrics.timed_out}")
    result.notes.append(f"POSG control messages: {posg.metrics.control_messages}")
    return result


def figure12_twitter(
    instance_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    m: int | None = None,
    seed: int = 0,
    posg_config: POSGConfig | None = None,
) -> FigureResult:
    """Prototype L vs k on the (synthetic) Twitter dataset (paper Fig. 12)."""
    m = m if m is not None else max(20_000, int(500_000 * env_scale() * 0.2))
    # Figure 12's instances are uniform (the heterogeneity in Figs. 10/11
    # is absent), so the sweep configuration applies: short windows for a
    # fast bootstrap on the scaled-down stream, pooled + merged estimates.
    posg_config = (
        posg_config
        if posg_config is not None
        else POSGConfig(window_size=128, rows=4, cols=54,
                        merge_matrices=True, pooled_estimates=True)
    )
    result = FigureResult(
        name="figure12",
        description="Prototype average completion time vs k on the "
        "Twitter workload (paper Fig. 12)",
        columns=["k", "posg_L", "assg_L", "posg_timeouts", "assg_timeouts",
                 "posg_control_messages"],
    )
    for k in instance_counts:
        twitter_spec = TwitterDatasetSpec(m=m, k=k)
        stream = generate_twitter_stream(twitter_spec, np.random.default_rng(seed))
        posg = _run_prototype(stream, k, "posg", posg_config, seed=seed + 1)
        assg = _run_prototype(stream, k, "assg", posg_config, seed=seed + 1)
        result.rows.append({
            "k": k,
            "posg_L": posg.metrics.average_completion_time(),
            "assg_L": assg.metrics.average_completion_time(),
            "posg_timeouts": posg.metrics.timed_out,
            "assg_timeouts": assg.metrics.timed_out,
            "posg_control_messages": posg.metrics.control_messages,
        })
    return result

"""Registry of every reproducible paper artifact.

One entry per table/figure of the paper's evaluation (plus the ablations
DESIGN.md adds).  The CLI, the benchmark suite and the EXPERIMENTS.md
generator all drive off this table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import ExperimentError
from repro.experiments.parallel import resolve_jobs
from repro.experiments.artifacts_hybrid import (
    ablation_hybrid_reclassification,
    ablation_send_buffer,
    ablation_spin_threshold,
    fig11_hybrid,
)
from repro.experiments.artifacts_micro import (
    fig2_tomcat_micro,
    fig4_four_servers,
    fig6_autotune,
    fig7_latency,
    fig9_netty,
    tab1_context_switch_rates,
    tab2_switches_per_request,
    tab3_cpu_split,
    tab4_write_spin,
)
from repro.experiments.artifacts_cache import cache_stampedes
from repro.experiments.artifacts_chaos import chaos_resilience
from repro.experiments.artifacts_dag import dag_workloads
from repro.experiments.artifacts_failover import replica_failover
from repro.experiments.artifacts_metastable import metastable_failure
from repro.experiments.artifacts_million import million_clients
from repro.experiments.artifacts_extensions import (
    ablation_flow_granularity,
    ablation_ncopy_scaling,
)
from repro.experiments.artifacts_ntier import fig1_rubbos_upgrade
from repro.experiments.results import ArtifactResult

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "bench_scale",
    "bench_jobs",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered artifact reproduction."""

    artifact: str
    title: str
    #: ``runner(scale, jobs=N)`` regenerates the artifact; its sweep points
    #: fan out over ``jobs`` worker processes (see ``experiments.parallel``).
    runner: Callable[..., ArtifactResult]
    #: Rough full-scale runtime on a laptop, for the CLI listing.
    cost: str = "seconds"


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.artifact: spec
    for spec in [
        ExperimentSpec("fig1", "RUBBoS 3-tier Tomcat upgrade study", fig1_rubbos_upgrade, "minutes"),
        ExperimentSpec("fig2", "TomcatSync vs TomcatAsync micro-benchmark", fig2_tomcat_micro, "minutes"),
        ExperimentSpec("tab1", "Context-switch rates at concurrency 8", tab1_context_switch_rates),
        ExperimentSpec("tab2", "Context switches per request by design", tab2_switches_per_request),
        ExperimentSpec("fig4", "Four simplified servers sweep", fig4_four_servers, "minutes"),
        ExperimentSpec("tab3", "CPU user/system split", tab3_cpu_split),
        ExperimentSpec("tab4", "socket.write() calls per request", tab4_write_spin),
        ExperimentSpec("fig6", "Send-buffer autotuning vs fixed buffer", fig6_autotune),
        ExperimentSpec("fig7", "Network latency impact", fig7_latency),
        ExperimentSpec("fig9", "NettyServer evaluation", fig9_netty, "minutes"),
        ExperimentSpec("fig11", "HybridNetty evaluation", fig11_hybrid, "minutes"),
        ExperimentSpec("ablA", "Ablation: writeSpin threshold", ablation_spin_threshold),
        ExperimentSpec("ablB", "Ablation: hybrid reclassification", ablation_hybrid_reclassification),
        ExperimentSpec("ablC", "Ablation: TCP send-buffer size", ablation_send_buffer),
        ExperimentSpec("ablD", "Ablation: event-flow granularity (SEDA)", ablation_flow_granularity),
        ExperimentSpec("ablE", "Ablation: N-copy multi-core scaling", ablation_ncopy_scaling),
        ExperimentSpec("chaos", "Chaos resilience under fault injection", chaos_resilience, "minutes"),
        ExperimentSpec("metastable", "Metastable failure: naive retries vs resilience stack", metastable_failure, "minutes"),
        ExperimentSpec("cache", "Cache stampedes: duplicate fetches vs single-flight", cache_stampedes, "minutes"),
        ExperimentSpec("failover", "Replica failover: crash-restart vs ejection and hedging", replica_failover, "minutes"),
        ExperimentSpec("million", "Million-client scale: cohort aggregation vs per-client", million_clients, "minutes"),
        ExperimentSpec("dag", "Service-dependency DAG: fan-out tails and graceful degradation", dag_workloads, "minutes"),
    ]
}


def get_experiment(artifact: str) -> ExperimentSpec:
    """Look up a registered artifact by id (e.g. ``"fig7"``)."""
    try:
        return EXPERIMENTS[artifact]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown artifact {artifact!r}; known: {known}") from None


def bench_scale() -> float:
    """Measurement-window scale for benchmark runs.

    Controlled by the ``REPRO_BENCH_SCALE`` environment variable
    (default 1.0 = full windows; e.g. 0.3 for a quick pass).
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        raise ExperimentError(f"REPRO_BENCH_SCALE must be a number, got {raw!r}")
    if not 0.05 <= scale <= 1.0:
        raise ExperimentError(f"REPRO_BENCH_SCALE must be in [0.05, 1.0], got {scale}")
    return scale


def bench_jobs() -> int:
    """Worker-process count for benchmark/CLI runs.

    Controlled by the ``REPRO_JOBS`` environment variable (``auto`` = one
    worker per core; default 1 = serial).  Parallel runs produce
    bit-identical results — see ``repro.experiments.parallel``.
    """
    return resolve_jobs(None)


def run_experiment(artifact: str, scale: float = 1.0,
                   jobs: "int | str | None" = None) -> ArtifactResult:
    """Run one registered artifact reproduction.

    ``jobs`` picks the sweep fan-out (``None`` falls back to ``REPRO_JOBS``,
    then serial); results do not depend on it.
    """
    return get_experiment(artifact).runner(scale, jobs=resolve_jobs(jobs))

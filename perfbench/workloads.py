"""The three benchmark workloads and the simulated outputs pinned for each.

Each workload is one public entry point (``repro.run_micro`` or
``repro.run_ntier``) with one configuration; the workload seed is the only
input that varies between runs.  Why each workload was chosen is in
``README.md`` beside this file.
"""

from __future__ import annotations

#: The seed the pinned reference outputs are recorded at by default.
DEFAULT_SEED = 1

#: Workload name -> (entry point, configuration keyword arguments).
#: Durations are simulated seconds, sized so one run takes a few host
#: seconds and a benchmark run holds several of them.
WORKLOADS = {
    # Paper Table IV / Fig. 4: write-spin of one thread over a 16 KB
    # send buffer (the calibration default) on the LAN link.
    "writespin": (
        "run_micro",
        dict(
            server="SingleT-Async",
            concurrency=50,
            response_size=100 * 1024,
            duration=1.5,
            warmup=0.5,
        ),
    ),
    # Paper Table II: reactor -> worker hand-off, ~4 switches per request.
    "handoff": (
        "run_micro",
        dict(
            server="sTomcat-Async",
            concurrency=100,
            response_size=102,
            duration=0.5,
            warmup=0.2,
        ),
    ),
    # Paper Fig. 1: 3-tier RUBBoS browse mix behind the Tomcat 8
    # (async) connector, 3000 users with 7 s exponential think time.
    "rubbos": (
        "run_ntier",
        dict(
            tomcat_variant="async",
            users=3000,
            think_mean=7.0,
            duration=3.0,
            warmup=1.5,
        ),
    ),
}


def build(repro, name: str, seed: int):
    """(entry point, config) of workload ``name`` at ``seed``."""
    entry, kwargs = WORKLOADS[name]
    config_cls = repro.MicroConfig if entry == "run_micro" else repro.NTierConfig
    return getattr(repro, entry), config_cls(seed=seed, **kwargs)


def outputs(name: str, result, probe) -> dict:
    """The simulated outputs of one run that a pure speed change must keep.

    Kernel events are left out on purpose: a fast path may legitimately
    remove events while every simulated statistic stays identical.
    """
    report = result.report
    cpus = probe.instances["CPU"]
    out = {
        "requests": probe.requests(),
        "completed": report.completed,
        "throughput": report.throughput,
        "p50_s": report.response_time_p50,
        "p99_s": report.response_time_p99,
        "write_calls_per_request": report.write_calls_per_request,
        "voluntary_switches": sum(c.counters.voluntary_switches for c in cpus),
        "involuntary_switches": sum(c.counters.involuntary_switches for c in cpus),
        "user_cpu_s": sum(c.counters.busy_user for c in cpus),
        "system_cpu_s": sum(c.counters.busy_system for c in cpus),
        "rejected": report.rejected,
        "failed": report.failed,
    }
    if name == "rubbos":
        for tier, utilization in sorted(result.tier_utilization.items()):
            out[f"utilization.{tier}"] = utilization
    return out

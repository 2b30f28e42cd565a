"""Every ``REPRO_*`` kill switch accepts the same disabling spellings, and
an unknown ``REPRO_*`` name warns."""

import os

import pytest

from repro import switches
from repro.cache import CACHE_TIER_ENV, cache_tier_enabled
from repro.cohort import COHORT_ENV, cohort_enabled
from repro.dag import DAG_ENV, dag_enabled
from repro.experiments.micro import MicroConfig, run_micro
from repro.experiments.parallel import CACHE_ENV, cache_root
from repro.net.tcp import fastpath_enabled
from repro.replica import REPLICA_ENV, replica_enabled

SWITCHES = {
    "tcp_fastpath": ("REPRO_TCP_FASTPATH", fastpath_enabled),
    "cache_tier": (CACHE_TIER_ENV, cache_tier_enabled),
    "cohort": (COHORT_ENV, cohort_enabled),
    "dag": (DAG_ENV, dag_enabled),
    "replica": (REPLICA_ENV, replica_enabled),
    "memo_cache": (CACHE_ENV, lambda: cache_root() is not None),
}

DISABLING = ["0", "off", "no", "false", "OFF", "False", " no "]


@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize("value", DISABLING)
def test_disabling_spellings_turn_the_layer_off(monkeypatch, switch, value):
    env, enabled = SWITCHES[switch]
    monkeypatch.setenv(env, value)
    assert enabled() is False


@pytest.mark.parametrize(
    "name, warnings_expected",
    [("REPRO_TCP_FASTPATH", 0), ("REPRO_CPU_FASTPATH", 1)],
)
def test_unknown_repro_variable_warns_once(monkeypatch, recwarn, name, warnings_expected):
    monkeypatch.setattr(switches, "_warned", set())
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv(name, "0")
    config = MicroConfig(server="SingleT-Async", concurrency=2, duration=0.02, warmup=0.01)
    run_micro(config)
    run_micro(config)
    switches.warn_unknown_variables()
    unknown = [w for w in recwarn if issubclass(w.category, RuntimeWarning)
               and "unknown environment variable" in str(w.message)]
    assert len(unknown) == warnings_expected
    assert all(name in str(w.message) for w in unknown)

"""Every ``REPRO_*`` kill switch accepts the same disabling spellings."""

import pytest

from repro.cache import CACHE_TIER_ENV, cache_tier_enabled
from repro.cohort import COHORT_ENV, cohort_enabled
from repro.dag import DAG_ENV, dag_enabled
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


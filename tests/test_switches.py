"""Every ``REPRO_*`` switch accepts the same disabling spellings, and an
unknown or retired ``REPRO_*`` name warns without changing a run."""

import os

import pytest

from repro import switches
from repro.experiments.micro import MicroConfig, run_micro
from repro.experiments.parallel import CACHE_ENV, cache_root
from repro.net.tcp import fastpath_enabled
from repro.ntier.topology import NTierConfig, run_ntier
from tests.dag.test_zero_impact import _BASE, _DAG, _fingerprint

SWITCHES = {
    "tcp_fastpath": ("REPRO_TCP_FASTPATH", fastpath_enabled),
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
    [
        ("REPRO_TCP_FASTPATH", 0),
        ("REPRO_CPU_FASTPATH", 1),
        ("REPRO_DAG", 1),
        ("REPRO_COHORT", 1),
        ("REPRO_REPLICA", 1),
    ],
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


def test_retired_dag_switch_leaves_a_dag_run_unchanged(monkeypatch):
    """A warm memo cache ignores the environment, so no variable may
    change what a config computes."""
    monkeypatch.delenv("REPRO_DAG", raising=False)
    unset = run_ntier(NTierConfig(dag=_DAG, **_BASE))
    monkeypatch.setenv("REPRO_DAG", "0")
    monkeypatch.setattr(switches, "_warned", set())
    with pytest.warns(RuntimeWarning, match="REPRO_DAG"):
        result = run_ntier(NTierConfig(dag=_DAG, **_BASE))
    assert result.dag_stats
    assert _fingerprint(result) == _fingerprint(unset)

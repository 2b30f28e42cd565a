"""The cache tier's zero-impact contract.

``cache=None`` is the tier's one off state: no tier object, no extra RNG
fork consumption, no events.  A configured tier must engage, and
``REPRO_CACHE`` (the sweep memo-cache switch) must not touch it.
"""

import dataclasses

import pytest

from repro.cache import CacheConfig
from repro.ntier.topology import NTierConfig, run_ntier

pytestmark = pytest.mark.cache

_BASE = dict(
    tomcat_variant="async",
    users=15,
    think_mean=0.5,
    duration=1.0,
    warmup=0.4,
    timeline_bucket=0.25,
    seed=9,
)

#: A config that visibly changes behaviour when the tier is live.
_CACHE = CacheConfig(ttl=0.5, capacity=64, keys_per_class=2, prewarm=True)


def _fingerprint(result):
    return (
        dataclasses.asdict(result.report),
        sorted(result.server_stats.items()),
        sorted(result.client_stats.items()),
        sorted(result.resilience.items()),
        sorted(result.cache_stats.items()),
    )


@pytest.fixture
def baseline():
    return _fingerprint(run_ntier(NTierConfig(**_BASE)))


def test_enabled_tier_actually_engages(baseline):
    """Sanity for the contract above: the same cache config *with* the
    tier live must diverge from the baseline and report counters."""
    result = run_ntier(NTierConfig(cache=_CACHE, **_BASE))
    assert result.cache_stats  # counters present
    assert result.cache_stats["cache_l1_hits"] > 0
    assert _fingerprint(result) != baseline


def test_memo_cache_switch_leaves_the_tier_on(monkeypatch):
    """``REPRO_CACHE=0`` only disables the sweep memo cache."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    unset = run_ntier(NTierConfig(cache=_CACHE, **_BASE))
    monkeypatch.setenv("REPRO_CACHE", "0")
    result = run_ntier(NTierConfig(cache=_CACHE, **_BASE))
    assert result.cache_stats
    assert _fingerprint(result) == _fingerprint(unset)

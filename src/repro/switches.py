"""Environment kill switches for the optional simulation layers.

Each optional layer reads one ``REPRO_*`` variable that defaults to on:
the TCP flow-level fast path (``REPRO_TCP_FASTPATH``), the cache tier and
sweep memo cache (``REPRO_CACHE``), cohort aggregation (``REPRO_COHORT``),
the service DAG (``REPRO_DAG``) and replica groups (``REPRO_REPLICA``).
``0``, ``off``, ``no`` and ``false`` — in any case, with surrounding
whitespace — turn a layer off; any other value, or none, leaves it on.
"""

from __future__ import annotations

import os

__all__ = ["switch_enabled"]

_DISABLED = frozenset({"0", "off", "no", "false"})


def switch_enabled(name: str) -> bool:
    """False when the environment variable ``name`` disables its layer."""
    return os.environ.get(name, "1").strip().lower() not in _DISABLED

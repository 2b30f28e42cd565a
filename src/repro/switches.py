"""Environment switches and the ``REPRO_*`` name registry.

Two variables switch something off: ``REPRO_TCP_FASTPATH`` (the TCP
flow-level fast path) and ``REPRO_CACHE`` (the sweep memo cache).
``0``, ``off``, ``no`` and ``false`` — in any case, with surrounding
whitespace — turn one off; any other value, or none, leaves it on.
Optional simulation layers (cache tier, replicas, cohorts, DAG) have
no switch: a ``None`` config is their one off state.

:data:`KNOWN_VARIABLES` lists every ``REPRO_*`` name the package reads;
:func:`warn_unknown_variables` flags any other one that is set, so a
misspelled, imagined or retired switch does not silently do nothing.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["KNOWN_VARIABLES", "switch_enabled", "warn_unknown_variables"]

_DISABLED = frozenset({"0", "off", "no", "false"})

#: Every ``REPRO_*`` environment variable the package reads: the two
#: switches, then the sweep, cache-directory and benchmark settings.
KNOWN_VARIABLES = (
    "REPRO_TCP_FASTPATH",
    "REPRO_CACHE",
    "REPRO_JOBS",
    "REPRO_BENCH_SCALE",
    "REPRO_CACHE_DIR",
    "REPRO_PERF_TOLERANCE",
)

#: Unknown names already warned about in this process.
_warned: set = set()


def switch_enabled(name: str) -> bool:
    """False when the environment variable ``name`` disables its layer."""
    return os.environ.get(name, "1").strip().lower() not in _DISABLED


def warn_unknown_variables() -> None:
    """Warn once per process about each set ``REPRO_*`` name nothing reads."""
    for name in os.environ:
        if name.startswith("REPRO_") and name not in KNOWN_VARIABLES and name not in _warned:
            _warned.add(name)
            warnings.warn(
                f"unknown environment variable {name} is ignored; known "
                f"REPRO_* names: {', '.join(KNOWN_VARIABLES)}",
                RuntimeWarning,
                stacklevel=3,
            )

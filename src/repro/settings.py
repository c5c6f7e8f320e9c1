"""One settings table: every ``$REPRO_*`` knob, parsed, bounded and
reported in one place.

Each :class:`Knob` row names its environment variable, a parser that
carries its bounds, a default (a value, or a callable computing it on
demand) and a one-line doc, the meaning the README's Configuration
table shows.  :func:`resolve` is the only reader of the environment:
an explicit argument wins, else the environment text, else the
default.  The argument and the text go through the same row parser,
so a value is accepted or rejected the same way whichever channel it
arrives on; an error names ``$REPRO_X`` for environment text and the
knob name for an argument.  Blank environment text counts as unset.

Every knob changes speed or placement, never a result: tables are
byte-identical whatever the knobs say (the determinism contract of
:mod:`repro.runtime`).  ``repro info`` prints each row with its
resolved value and source, and the CLI builds its flags' parsing and
``default:`` help from the rows.

>>> resolve("workers", 3)
3
>>> resolve("heartbeat", -1.0)
Traceback (most recent call last):
    ...
ValueError: heartbeat: must be a finite number of seconds >= 0, got -1.0
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "BACKENDS",
    "KNOBS",
    "Knob",
    "format_value",
    "resolve",
    "source",
]

#: The runner backends :func:`repro.runtime.make_runner` builds.
BACKENDS = ("auto", "serial", "process", "cluster")


@dataclass(frozen=True)
class Knob:
    """One row of the table.

    ``parse(value, text)`` validates ``value`` and returns it in its
    resolved type; ``text`` is true when ``value`` is raw text (the
    environment or a CLI flag) rather than a typed argument.  It raises
    :class:`ValueError` with a reason that reads after the knob's
    label.  ``default_doc`` describes a default its value alone would
    not explain (``None``, or one that depends on the machine).
    """

    name: str
    env: str
    parse: Callable[[Any, bool], Any]
    default: Any
    doc: str
    default_doc: str | None = None

    @property
    def default_text(self) -> str:
        """The default as ``--help`` and the README show it."""
        return self.default_doc or format_value(self.default)


def _integer(low: int) -> Callable[[Any, bool], int]:
    def parse(value, text: bool) -> int:
        reason = f"must be an integer >= {low}, got {value!r}"
        if text:
            try:
                number = int(value)
            except ValueError:
                raise ValueError(reason) from None
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(reason)
        else:
            number = value
        if number < low:
            raise ValueError(reason)
        return number

    return parse


def _seconds(value, text: bool) -> float:
    reason = f"must be a finite number of seconds >= 0, got {value!r}"
    if text:
        try:
            seconds = float(value)
        except ValueError:
            raise ValueError(reason) from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(reason)
    else:
        seconds = float(value)
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(reason)
    return seconds


_ON = ("1", "on", "auto", "true", "yes")
_OFF = ("0", "off", "false", "no")


def _switch(value, text: bool) -> bool:
    if not text and isinstance(value, bool):
        return value
    if text and value.lower() in _ON:
        return True
    if text and value.lower() in _OFF:
        return False
    raise ValueError(
        f"must be on/off (or 1/0, true/false), got {value!r}"
    )


def _backend(value, text: bool) -> str:
    listing = f"backends: {', '.join(BACKENDS)}"
    if not isinstance(value, str):
        raise ValueError(
            f"must be a backend name (str), got {value!r}; {listing}"
        )
    name = value.strip().lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {value!r}; {listing}")
    return name


def _nodes(value, text: bool) -> tuple[tuple[str, int], ...]:
    # Deferred: serial and process runs never import the cluster module.
    from repro.runtime.cluster import parse_nodes

    return parse_nodes(value)


def _directory(value, text: bool) -> Path:
    if isinstance(value, str) and not value.strip():
        raise ValueError(f"must be a directory path, got {value!r}")
    path = Path(value).expanduser()
    if path.exists() and not path.is_dir():
        raise ValueError(f"{str(path)!r} exists and is not a directory")
    return path


def _nonempty(value, text: bool) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"must be a non-empty string, got {value!r}")
    return value.strip()


def _user_cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return _directory(base / "repro" / "results", False)


KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "workers", "REPRO_WORKERS", _integer(1), 1,
            "worker processes; a self-managed cluster spawns this many "
            "nodes (default 2 there) and a directly built "
            "ProcessPoolRunner defaults to the CPU count",
        ),
        Knob(
            "chunksize", "REPRO_CHUNKSIZE", _integer(1), None,
            "specs per parallel work unit",
            "about 4 chunks per worker",
        ),
        Knob(
            "backend", "REPRO_BACKEND", _backend, "auto",
            "runner backend: auto, serial, process or cluster",
        ),
        Knob(
            "cluster_nodes", "REPRO_CLUSTER_NODES", _nodes, None,
            "cluster worker addresses, host:port,host:port",
            "spawn localhost nodes",
        ),
        Knob(
            "node_workers", "REPRO_NODE_WORKERS", _integer(1),
            os.cpu_count() or 1,
            "node-side process pool: trials of many chunks execute "
            "concurrently within one node",
            "the CPU count",
        ),
        Knob(
            "heartbeat", "REPRO_HEARTBEAT", _seconds, 10.0,
            "seconds of node silence before the node is declared lost "
            "and its chunks requeue (pings go out at a third of this); "
            "0 disables",
        ),
        Knob(
            "kernel", "REPRO_KERNEL", _switch, True,
            "the vectorized chunk kernels; off runs every trial on its "
            "own, with the same results",
        ),
        Knob(
            "cache_dir", "REPRO_CACHE_DIR", _directory, _user_cache_dir,
            "result-cache directory (~/.cache/repro/results when "
            "$XDG_CACHE_HOME is unset)",
            "$XDG_CACHE_HOME/repro/results",
        ),
        Knob(
            "cache_cap", "REPRO_CACHE_CAP", _integer(0), 0,
            "result-cache LRU cap, in entries; 0 = unbounded",
        ),
        Knob(
            "cache_cap_bytes", "REPRO_CACHE_CAP_BYTES", _integer(0), 0,
            "result-cache LRU cap, in bytes on disk; 0 = unbounded",
        ),
        Knob(
            "code_version", "REPRO_CODE_VERSION", _nonempty, None,
            "the code version in every result-cache key",
            "a hash of the repro sources",
        ),
    )
}

_ROW_DEFAULT = object()


def resolve(name: str, value=None, *, default=_ROW_DEFAULT):
    """A knob's value: ``value`` if given, else ``$REPRO_X``, else the
    default — the row's, unless the call site passes its own
    ``default`` (a value, or a callable computing one).
    """
    knob = KNOBS[name]
    if value is not None:
        return _parse(knob, value, False)
    raw = os.environ.get(knob.env, "").strip()
    if raw:
        return _parse(knob, raw, True)
    if default is _ROW_DEFAULT:
        default = knob.default
    return default() if callable(default) else default


def _parse(knob: Knob, value, text: bool):
    try:
        return knob.parse(value, text)
    except ValueError as exc:
        label = f"${knob.env}" if text else knob.name
        raise ValueError(f"{label}: {exc}") from None


def source(name: str) -> str:
    """Where :func:`resolve` takes ``name`` from when no argument is
    given: ``"environment"`` or ``"default"``."""
    if os.environ.get(KNOBS[name].env, "").strip():
        return "environment"
    return "default"


def format_value(value) -> str:
    """A resolved value as ``repro info`` and ``--help`` print it."""
    if value is None:
        return "unset"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(f"{host}:{port}" for host, port in value)
    return str(value)


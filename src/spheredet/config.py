"""Harness configuration with JSON-file loading and override precedence."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .decode import NmsParams
from .matching import GridSpec


@dataclass(frozen=True)
class HarnessConfig:
    """Tunable knobs shared by the CLI commands: ``k`` and ``n`` are read by
    ``assign``, ``top_n`` and ``nms`` by ``detect``, ``seed`` by ``synth``,
    and ``grid`` by ``synth`` and ``assign``.

    Precedence when assembling a config is: built-in defaults, then a JSON
    config file, then explicit command-line flags.
    """

    k: int = 7
    n: int = 100
    top_n: int = 100
    nms: NmsParams = field(default_factory=NmsParams)
    grid: GridSpec = field(default_factory=lambda: GridSpec(dims=(24, 24, 24), stride=4))
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON rendering, used for run-metadata echo."""
        return json.loads(json.dumps(dataclasses.asdict(self)))  # tuples become lists


def _number(value: Any, origin: str, name: str) -> float:
    """``float(value)``, or a ValueError naming the origin and the key."""
    if not isinstance(value, bool):  # JSON true/false are not numbers
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{origin}: {name} must be a number, got {value!r}")


def _integer(value: Any, origin: str, name: str, low: int = 1) -> int:
    """``value`` as an int >= ``low`` when it has no fractional part, else a ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        number = int(value)
    else:
        number = _number(value, origin, name)
        if not number.is_integer():
            raise ValueError(f"{origin}: {name} must be an integer, got {value!r}")
    if number < low:
        raise ValueError(f"{origin}: {name} must be >= {low}, got {int(number)}")
    return int(number)


def _dims(value: Any, origin: str, name: str) -> tuple:
    """Three integers from a list, else a ValueError naming the origin and the key."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{origin}: {name} must have 3 entries")
    return tuple(_integer(v, origin, name) for v in value)


# Every config key and its reader; a nested table reads an object of sub-keys.
_KEYS: Dict[str, Any] = {
    "k": _integer,
    "n": _integer,
    "top_n": _integer,
    "nms": {"tau_siou": _number, "tau_dr": _number},
    "grid": {"dims": _dims, "stride": _integer},
    "seed": partial(_integer, low=0),
}


def _build(
    base: Any, overrides: Mapping[str, Any], origin: str, keys: Mapping = _KEYS, scope: str = ""
) -> Any:
    """``base`` with each override read by its entry in ``keys`` (``scope``: "nms " or "grid ")."""
    changes: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in keys:
            raise ValueError(f"{origin}: unknown {scope or 'config '}key {key!r}")
        reader = keys[key]
        if isinstance(reader, dict):
            if not isinstance(value, Mapping):
                raise ValueError(f"{origin}: {key!r} must be an object")
            changes[key] = _build(getattr(base, key), value, origin, reader, f"{key} ")
        else:
            changes[key] = reader(value, origin, f"{scope}{key}")
    try:
        return dataclasses.replace(base, **changes) if changes else base
    except ValueError as exc:  # NmsParams and GridSpec range checks
        raise ValueError(f"{origin}: {exc}") from None


def load_config(path: Optional[Path] = None, **cli_overrides: Any) -> HarnessConfig:
    """Builds a HarnessConfig from defaults, an optional JSON file, and flags.

    ``cli_overrides`` entries whose value is None are ignored, so argparse
    defaults can be passed through unconditionally.
    """
    config = HarnessConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, malformed, too deep
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config root must be a JSON object")
        config = _build(config, raw, str(path))
    flags = {k: v for k, v in cli_overrides.items() if v is not None}
    return _build(config, flags, "command line")

"""Harness configuration with JSON-file loading and override precedence."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
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
        return {
            "k": self.k,
            "n": self.n,
            "top_n": self.top_n,
            "nms": {"tau_siou": self.nms.tau_siou, "tau_dr": self.nms.tau_dr},
            "grid": {"dims": list(self.grid.dims), "stride": self.grid.stride},
            "seed": self.seed,
        }


_INTEGER_KEYS = ("k", "n", "top_n", "seed")


def _number(value: Any, origin: str, name: str) -> float:
    """``float(value)``, or a ValueError naming the origin and the key."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{origin}: {name} must be a number, got {value!r}") from None


def _integer(value: Any, origin: str, name: str) -> int:
    """``value`` as an int when it has no fractional part, else a ValueError."""
    if isinstance(value, int):
        return int(value)
    number = _number(value, origin, name)
    if not number.is_integer():
        raise ValueError(f"{origin}: {name} must be an integer, got {value!r}")
    return int(number)


def _build(base: HarnessConfig, overrides: Mapping[str, Any], origin: str) -> HarnessConfig:
    changes: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key in _INTEGER_KEYS:
            changes[key] = _integer(value, origin, key)
        elif key == "nms":
            if not isinstance(value, Mapping):
                raise ValueError(f"{origin}: 'nms' must be an object")
            nms_kwargs = {"tau_siou": base.nms.tau_siou, "tau_dr": base.nms.tau_dr}
            for sub, subval in value.items():
                if sub not in nms_kwargs:
                    raise ValueError(f"{origin}: unknown nms key {sub!r}")
                nms_kwargs[sub] = _number(subval, origin, f"nms {sub}")
            try:
                changes["nms"] = NmsParams(**nms_kwargs)
            except ValueError as exc:
                raise ValueError(f"{origin}: {exc}") from None
        elif key == "grid":
            if not isinstance(value, Mapping):
                raise ValueError(f"{origin}: 'grid' must be an object")
            dims, stride = base.grid.dims, base.grid.stride
            for sub, subval in value.items():
                if sub == "dims":
                    if not isinstance(subval, (list, tuple)) or len(subval) != 3:
                        raise ValueError(f"{origin}: grid dims must have 3 entries")
                    dims = tuple(_integer(v, origin, "grid dims") for v in subval)
                elif sub == "stride":
                    stride = _integer(subval, origin, "grid stride")
                else:
                    raise ValueError(f"{origin}: unknown grid key {sub!r}")
            try:
                changes["grid"] = GridSpec(dims=dims, stride=stride)
            except ValueError as exc:
                raise ValueError(f"{origin}: {exc}") from None
        else:
            raise ValueError(f"{origin}: unknown config key {key!r}")
    return dataclasses.replace(base, **changes) if changes else base


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

"""Harness configuration with JSON-file loading and override precedence."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .decode import NmsParams
from .matching import GridSpec, _integer


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

    def __post_init__(self) -> None:
        for name, low in (("k", 1), ("n", 1), ("top_n", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name, kind, article in (("nms", NmsParams, "an"), ("grid", GridSpec, "a")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON rendering, used for run-metadata echo."""
        return json.loads(json.dumps(dataclasses.asdict(self)))  # tuples become lists


def _build(base: Any, overrides: Mapping[str, Any], origin: str, scope: str = "") -> Any:
    """``base`` with the overrides applied, each checked by the dataclass that
    holds it; errors start with ``origin`` (``scope``: "nms " or "grid ")."""
    fields = {f.name for f in dataclasses.fields(base)}
    changes: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in fields:
            raise ValueError(f"{origin}: unknown {scope or 'config '}key {key!r}")
        current = getattr(base, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, Mapping):
                raise ValueError(f"{origin}: {key!r} must be an object")
            value = _build(current, value, origin, f"{key} ")
        changes[key] = value
    try:
        return dataclasses.replace(base, **changes) if changes else base
    except ValueError as exc:
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

"""Run configuration: file format, defaults, and provenance hashing.

Config files are line-oriented ``section.key = value`` text (UTF-8,
``#`` comments, blank lines ignored). Sections are ``world``, ``train``,
``eval``, and ``adapter``; ``output_dir`` is a bare top-level key. Any
key absent from the file keeps its documented default, so the empty
string parses to the default configuration.

The parser only converts text: the field's type picks the converter
(``int`` in the signed 64-bit range, ``float``, ``str``, or a comma list
of floats for ``train.prompt_mixture``); a field of any other type
raises ``TypeError`` at import. The config dataclasses are the only
validators. Each line is applied to the config built so far, so a bound
error names the line and key that broke it; unknown keys are rejected by
name, and a key given twice by both its lines. The canonical text rendering of a config is
itself a valid config file and is the input to the provenance hash
embedded in artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Optional, Tuple, get_type_hints

from .errors import ConfigTypeError, InvalidConfigError, UnknownKeyError
from .trainer import AdapterConfig, TrainConfig
from .world import WorldConfig


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol knobs."""

    holdout_fraction: float = 0.25
    knn_k: int = 5
    map_k: int = 1000
    chance_trials: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.holdout_fraction < 1.0):
            raise InvalidConfigError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")
        for name in ("knn_k", "map_k", "chance_trials"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, including where to write it."""

    world: WorldConfig = field(default_factory=WorldConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    adapter_mode: str = "mlp_encoder_plus_head"
    adapter_d_hidden: int = 512
    output_dir: str = "runs/default"

    def __post_init__(self) -> None:
        adapter_config_for(self)  # AdapterConfig validates the mode and width
        # The canonical text must carry the directory back: '#' starts a
        # comment, a line break ends the line and values are stripped.
        out = str(self.output_dir)
        if "#" in out or "".join(out.splitlines()) != out or out != out.strip():
            raise InvalidConfigError(
                f"output_dir {out!r} cannot be written to a config file:"
                " it holds '#', a line break, or leading or trailing whitespace"
            )


def adapter_config_for(config: RunConfig) -> AdapterConfig:
    """Adapter dimensions follow the world; mode and width are chosen."""
    return AdapterConfig(
        mode=config.adapter_mode,
        d_in=config.world.d_student_in,
        d_student=config.world.d_student,
        d_teacher=config.world.d_teacher,
        d_hidden=config.adapter_d_hidden,
    )


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the 64-bit integer range")
    return value


def _float_list(text: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _key_table() -> Dict[str, Tuple[Optional[str], str, Callable[[str], object]]]:
    """Every config key in canonical order -> (section, attribute, converter).

    The section is the ``RunConfig`` field holding the attribute, or None
    for a top-level ``RunConfig`` field.
    """
    entries = [
        (section, cls, f.name, f"{section}.{f.name}")
        for section, cls in (("world", WorldConfig), ("train", TrainConfig), ("eval", EvalConfig))
        for f in fields(cls)
    ]
    entries += [
        (None, RunConfig, "adapter_mode", "adapter.mode"),
        (None, RunConfig, "adapter_d_hidden", "adapter.d_hidden"),
        (None, RunConfig, "output_dir", "output_dir"),
    ]
    converters = {int: _int64, float: float, str: str, Optional[Tuple[float, ...]]: _float_list}
    table = {}
    for section, cls, name, key in entries:
        kind = get_type_hints(cls)[name]
        if kind not in converters:
            raise TypeError(f"config key {key} has type {kind}, which no converter reads")
        table[key] = (section, name, converters[kind])
    return table


_KEYS = _key_table()


def parse_config(text: str) -> RunConfig:
    """Parse config text; absent keys keep defaults."""
    config = RunConfig()
    seen: Dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigTypeError(f"line {line_no}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise UnknownKeyError(f"line {line_no}: unknown config key {key!r}")
        if key in seen:
            raise ConfigTypeError(f"line {line_no}: {key} is already set on line {seen[key]}")
        seen[key] = line_no
        section, name, convert = _KEYS[key]
        try:
            value = convert(value_text.strip())
            if section is None:
                config = replace(config, **{name: value})
            else:
                config = replace(config, **{section: replace(getattr(config, section), **{name: value})})
        except (ValueError, InvalidConfigError) as exc:
            raise ConfigTypeError(f"line {line_no}: {key}: {exc}") from None
    return config


def canonical_config_text(config: RunConfig) -> str:
    """Deterministic full rendering; parses back to an equal config."""
    lines = []
    for key, (section, name, _) in _KEYS.items():
        value = getattr(config if section is None else getattr(config, section), name)
        if value is None:
            continue
        if isinstance(value, tuple):
            rendered = ", ".join(repr(float(v)) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    """16-hex-digit provenance tag for artifacts of this config."""
    return hashlib.sha256(canonical_config_text(config).encode("utf-8")).hexdigest()[:16]

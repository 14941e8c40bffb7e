"""Run configuration: file format, defaults, and provenance hashing.

Config files are line-oriented ``section.key = value`` text (UTF-8,
``#`` comments, blank lines ignored). Sections are ``world``, ``train``,
``eval``, and ``adapter``; ``output_dir`` is a bare top-level key. Any
key absent from the file keeps its documented default, so the empty
string parses to the default configuration.

This module is the one place that builds a config from text:
``read_config_text`` reads a file, and ``parse_config`` applies its lines
and then a mapping of settings, key -> value, such as the CLI's
``--seed`` (``SEED_KEYS``) or a sweep's values. A setting's value is
read from its ``str`` as a line's text is, and it replaces the file's
value for its key.

The parser only converts text: the field's type picks the converter
(``int`` in the signed 64-bit range, ``float``, ``str``, or a comma list
of floats for ``train.prompt_mixture``); a field of any other type
raises ``TypeError`` at import. The config dataclasses are the only
validators. Each line, then each setting, is applied to the config built
so far, so a bound error names the line or setting and the key that
broke it; unknown keys are rejected by name, and a key given twice in
the file by both its lines. The canonical text rendering of a config is
itself a valid config file and is the input to the provenance hash
embedded in artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, get_type_hints

from .errors import ConfigFileError, ConfigTypeError, InvalidConfigError, UnknownKeyError
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
    # One get_type_hints per class: each call compiles every annotation string of it.
    hints = {cls: get_type_hints(cls) for cls in dict.fromkeys(cls for _, cls, _, _ in entries)}
    table = {}
    for section, cls, name, key in entries:
        kind = hints[cls][name]
        if kind not in converters:
            raise TypeError(f"config key {key} has type {kind}, which no converter reads")
        table[key] = (section, name, converters[kind])
    return table


_KEYS = _key_table()
# The keys that one seed sets: the CLI's --seed and a sweep's --seeds.
SEED_KEYS = ("world.seed", "train.seed")


def read_config_text(path: Path) -> str:
    """The text of a config file; an unreadable or non-UTF-8 file is a ``ConfigFileError``."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigFileError(f"config {path} is not UTF-8 text: byte 0x{byte:02x} at offset {exc.start}") from exc


def _set_key(config: RunConfig, key: str, value: object, where: str) -> RunConfig:
    """``config`` with ``key`` converted from ``str(value)`` and validated; errors begin with ``where``."""
    if key not in _KEYS:
        raise UnknownKeyError(f"{where}: unknown config key {key!r}")
    section, name, convert = _KEYS[key]
    try:
        converted = convert(str(value).strip())
        if section is None:
            return replace(config, **{name: converted})
        return replace(config, **{section: replace(getattr(config, section), **{name: converted})})
    except (ValueError, InvalidConfigError) as exc:
        raise ConfigTypeError(f"{where}: {key}: {exc}") from None


def parse_config(text: str, settings: Optional[Mapping[str, object]] = None) -> RunConfig:
    """Parse config text, then apply ``settings`` (key -> value); absent keys keep defaults."""
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
        if key in seen:
            raise ConfigTypeError(f"line {line_no}: {key} is already set on line {seen[key]}")
        config = _set_key(config, key, value_text, f"line {line_no}")
        seen[key] = line_no
    for key, value in (settings or {}).items():
        config = _set_key(config, key, value, "setting")
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

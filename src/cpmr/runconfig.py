"""Flat key-value run configuration files (``section.key=value``)."""

from __future__ import annotations

import dataclasses
import os

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

_DEFAULTS = {
    "data.path": None,            # required
    "output.dir": ".",
    "eval.split": "test",
    "eval.filter_interacted": False,
}
_SECTIONS = {"model": ModelConfig, "train": TrainConfig}


def _coerce(value, template):
    if isinstance(template, bool):
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {value!r}")
    if isinstance(template, (int, float)):
        try:
            return type(template)(value)
        except ValueError:
            raise ConfigError(f"expected {type(template).__name__}, got {value!r}") from None
    return value


class RunConfig:
    """Resolved configuration for one run: data, model, train, eval."""

    def __init__(self, raw: dict):
        fields = {f"{sec}.{f.name}": (sec, f) for sec, cls in _SECTIONS.items()
                  for f in dataclasses.fields(cls)}
        kw = {sec: {} for sec in _SECTIONS}
        flat = dict(_DEFAULTS)
        for key, value in raw.items():
            if key in fields:
                sec, f = fields[key]
                kw[sec][f.name] = _coerce(value, f.default)
            elif key in _DEFAULTS:
                flat[key] = _coerce(value, _DEFAULTS[key] if _DEFAULTS[key] is not None else "")
            else:
                raise ConfigError(f"unknown config field {key!r}")
        if flat["data.path"] is None:
            raise ConfigError("missing required config field 'data.path'")
        self.data_path = flat["data.path"]
        self.output_dir = flat["output.dir"]
        self.eval_split = flat["eval.split"]
        if self.eval_split not in ("val", "test"):
            raise ConfigError(f"eval.split must be 'val' or 'test', got {self.eval_split!r}")
        self.eval_filter = flat["eval.filter_interacted"]
        self.model = ModelConfig(**kw["model"])
        self.train = TrainConfig(**kw["train"])
        self.settings = {**flat, **{f"{sec}.{k}": v for sec in _SECTIONS for k, v in
                                    dataclasses.asdict(getattr(self, sec)).items()}}

    @classmethod
    def from_file(cls, path):
        raw, first_line = {}, {}
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()      # at \n, \r\n and \r, as text mode splits
        for lineno, line in enumerate(lines, start=1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 ({exc.reason} at byte "
                                  f"{exc.start})") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: {key!r} is set again (first on line "
                                  f"{first_line[key]})")
            raw[key], first_line[key] = value.strip(), lineno
        return cls(raw)

    def echo(self):
        """Every resolved setting, defaults included, as sorted key=value lines."""
        return "\n".join(f"{k}={v}" for k, v in sorted(self.settings.items()))

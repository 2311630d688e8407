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
    "seeds": [0],
}


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
    """Resolved configuration for one run: data, model, train, eval, seeds."""

    def __init__(self, raw: dict):
        model_fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
        train_fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
        model_kw, train_kw = {}, {}
        flat = dict(_DEFAULTS)
        for key, value in raw.items():
            if key.startswith("model."):
                name = key[len("model."):]
                if name not in model_fields:
                    raise ConfigError(f"unknown config field {key!r}")
                model_kw[name] = _coerce(value, model_fields[name].default)
            elif key.startswith("train."):
                name = key[len("train."):]
                if name not in train_fields:
                    raise ConfigError(f"unknown config field {key!r}")
                train_kw[name] = _coerce(value, train_fields[name].default)
            elif key == "seeds":
                flat["seeds"] = [_coerce(s, 0) for s in value.split(",") if s.strip() != ""]
                if not flat["seeds"]:
                    raise ConfigError("seeds list must be non-empty")
            elif key in _DEFAULTS:
                flat[key] = _coerce(value, _DEFAULTS[key] if _DEFAULTS[key] is not None else "")
            else:
                raise ConfigError(f"unknown config field {key!r}")
        if flat["data.path"] is None:
            raise ConfigError("missing required config field 'data.path'")
        self.data_path = flat["data.path"]
        self.output_dir = flat["output.dir"]
        self.eval_split = flat["eval.split"]
        self.eval_filter = flat["eval.filter_interacted"]
        self.seeds = flat["seeds"]
        self.model = ModelConfig(**model_kw)
        self.train = TrainConfig(**{"seed": self.seeds[0], **train_kw})

    @classmethod
    def from_file(cls, path):
        raw = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
        return cls(raw)

    def echo(self):
        """Every resolved setting, defaults included, as sorted key=value lines."""
        out = {
            "data.path": self.data_path,
            "output.dir": self.output_dir,
            "eval.split": self.eval_split,
            "eval.filter_interacted": self.eval_filter,
            "seeds": ",".join(str(s) for s in self.seeds),
        }
        for name, value in dataclasses.asdict(self.model).items():
            out[f"model.{name}"] = value
        for name, value in dataclasses.asdict(self.train).items():
            out[f"train.{name}"] = value
        return "\n".join(f"{k}={out[k]}" for k in sorted(out))

    def with_seed(self, seed):
        cfg = RunConfig.__new__(RunConfig)
        cfg.__dict__.update(self.__dict__)
        cfg.train = dataclasses.replace(self.train, seed=int(seed))
        return cfg

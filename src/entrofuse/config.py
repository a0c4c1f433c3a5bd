"""Experiment configuration: strict YAML schema with materialized defaults.

The schema is the fields of the config dataclasses. ``data`` sets
``SyntheticSpec``, ``train`` sets ``TrainConfig`` (its ``schedules`` and
``lambda`` sections set ``Schedules`` and ``LambdaConfig``), the optional
``eval`` section sets ``TrainConfig.eval_rates`` and ``eval_seeds`` as
``rates`` and ``seeds``, and ``out`` is optional. Each value is cast by its
field's annotation, and a section sets only the fields it names, over the
field defaults. Unknown keys anywhere are rejected so typos fail loudly
before any compute happens. ``resolved_dict`` returns every effective value,
which the CLI writes into each run directory for bit-reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .data import SyntheticSpec
from .subsets import EXHAUSTIVE_MAX, LATTICE_MAX
from .trainer import ABLATIONS, TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "check_lattice", "read_yaml",
           "load_config", "parse_config", "resolved_dict", "dump_resolved"]


class ConfigError(ValueError):
    """Schema violation: missing field, unknown key, or bad value."""


@dataclass(frozen=True)
class ExperimentConfig:
    data: SyntheticSpec
    train: TrainConfig
    out: str | None = None

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Override both the dataset seed and the training seed."""
        return ExperimentConfig(data=replace(self.data, seed=seed),
                                train=replace(self.train, seed=seed),
                                out=self.out)


# Where the YAML keys differ from the dataclass fields: field -> key in its
# own section, None for a field that section leaves out (the eval fields sit
# in the ``eval`` section).
_RENAMED = {"lambda_cfg": "lambda", "eval_rates": None, "eval_seeds": None}
_EVAL = {"rates": "eval_rates", "seeds": "eval_seeds"}  # eval key -> field

_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string"}


@cache  # get_type_hints evaluates the string annotations on every call
def _hints(cls) -> dict:
    return get_type_hints(cls)


def _keys(cls) -> dict[str, str]:
    """YAML key -> field name for the section that sets ``cls``."""
    return {key: f.name for f in fields(cls)
            if (key := _RENAMED.get(f.name, f.name)) is not None}


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _section(default, doc, where: str, keys: dict[str, str] | None = None) -> dict:
    """Field name -> value for each key of the mapping ``doc``, cast by the
    annotations of ``default``'s class; ``keys`` maps YAML key to field."""
    keys = keys or _keys(type(default))
    _check_keys(_require_mapping(doc, where), keys, where)
    hints = _hints(type(default))
    return {keys[k]: _cast(hints[keys[k]], v, f"{where}.{k}",
                           getattr(default, keys[k]))
            for k, v in doc.items()}


def _cast(hint, value, where: str, default=None):
    """``value`` as the annotation ``hint`` reads: a scalar type, ``X | None``,
    ``tuple[X, ...]`` from a nonempty list, or a dataclass from a mapping
    over ``default``. A bool is not a number."""
    if is_dataclass(hint):
        return _build(default, _section(default, value, where), where)
    if get_origin(hint) is UnionType:  # X | None: null keeps the derived default
        return None if value is None else _cast(get_args(hint)[0], value, where)
    if get_origin(hint) is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a nonempty list")
        return tuple(_cast(get_args(hint)[0], v, where) for v in value)
    if hint is float and type(value) is int:
        return float(value)
    if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where} must be {_KINDS[hint]}")
    return value


def _build(default, changes: dict, where: str):
    try:
        return replace(default, **changes)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(doc) -> ExperimentConfig:
    root = _require_mapping(doc, "config")
    _check_keys(root, {"data", "train", "eval", "out"}, "config")
    for required in ("data", "train"):
        if required not in root:
            raise ConfigError(f"missing required field '{required}'")
    data = _cast(SyntheticSpec, root["data"], "data", SyntheticSpec())
    train = TrainConfig()
    train = _build(train, _section(train, root["train"], "train"), "train")
    # a step of its own, so that a bad eval value is reported under eval
    train = _build(train, _section(train, root.get("eval", {}), "eval", _EVAL),
                   "eval")
    # every ablation grid runs single_modality, whatever the ablation tag
    if not 0 <= train.single_modality_index < data.modalities:
        raise ConfigError(f"train.single_modality_index must name one of "
                          f"the {data.modalities} modalities")
    if (train.schedules.mode == "acm" and train.acm_family == "all_subsets"
            and data.modalities > EXHAUSTIVE_MAX):
        raise ConfigError("train.acm_family all_subsets is limited to "
                          f"{EXHAUSTIVE_MAX} modalities")
    check_lattice(train, data.modalities)
    return ExperimentConfig(data=data, train=train,
                            out=_cast(str | None, root.get("out"), "out"))


def check_lattice(train: TrainConfig, modalities: int) -> None:
    """Raises ``ConfigError`` if ``train``'s consistency penalty runs over
    more modalities than its subset lattice is built for."""
    if (train.gamma > 0.0 and ABLATIONS[train.ablation].cec_on
            and modalities > LATTICE_MAX):
        raise ConfigError(f"train.gamma > 0 is limited to {LATTICE_MAX} "
                          "modalities")


def read_yaml(path):
    """The YAML document in a config file; ``ConfigError`` if the file is
    missing, cannot be read (a directory, no permission, not UTF-8) or is
    not valid YAML."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return parse_config(read_yaml(path))


def _plain(hint, value):
    """``value`` as plain YAML-safe types: the inverse of ``_cast``."""
    if value is None:
        return None
    if is_dataclass(hint):
        return _unparse(value)
    if get_origin(hint) is UnionType:
        return _plain(get_args(hint)[0], value)
    if get_origin(hint) is tuple:
        return [_plain(get_args(hint)[0], v) for v in value]
    return float(value) if hint is float else value


def _unparse(obj, keys: dict[str, str] | None = None) -> dict:
    hints = _hints(type(obj))
    return {k: _plain(hints[name], getattr(obj, name))
            for k, name in (keys or _keys(type(obj))).items()}


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """All effective values, defaults included, as plain YAML-safe types."""
    return {"data": _unparse(cfg.data), "train": _unparse(cfg.train),
            "eval": _unparse(cfg.train, _EVAL), "out": cfg.out}


def dump_resolved(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(resolved_dict(cfg), fh, sort_keys=True)

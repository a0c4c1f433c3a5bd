"""Experiment configuration: strict YAML schema with materialized defaults.

Top-level keys: ``data`` and ``train`` (required), ``eval`` and ``out``
(optional). Unknown keys anywhere are rejected so typos fail loudly before
any compute happens. ``resolved_dict`` returns every effective value, which
the CLI writes into each run directory for bit-reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace

import yaml

from .curriculum import Schedules
from .data import SyntheticSpec
from .trainer import TrainConfig
from .uncertainty import LambdaConfig

__all__ = ["ConfigError", "ExperimentConfig", "read_yaml", "load_config",
           "parse_config", "resolved_dict", "dump_resolved"]


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


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _cast_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _cast_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _cast_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _cast_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _cast_number_list(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of numbers")
    return tuple(_cast_float(v, where) for v in value)


def _cast_int_list(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of integers")
    return tuple(_cast_int(v, where) for v in value)


_DATA_KEYS = {"modalities", "classes", "dims", "snr", "n_train", "n_val",
              "n_test", "seed", "multilabel", "extra_label_rate"}
_TRAIN_KEYS = {"epochs", "batch_size", "lr_base", "lr_gate", "weight_decay",
               "schedules", "lam_mode", "gamma", "ablation",
               "single_modality_index", "seed", "temp_scaling", "fused_dim",
               "gate_hidden", "lambda", "acm_family", "probe_size",
               "cec_pair_limit", "divergence_factor"}
_SCHED_KEYS = {"t_warm", "pi_max", "t_lam", "lam_max", "eta", "mode"}
_LAMBDA_KEYS = {"lam_min", "draws", "rate", "source", "ensemble_size"}
_EVAL_KEYS = {"rates", "seeds"}

_INT_FIELDS = {"modalities", "classes", "n_train", "n_val", "n_test", "seed",
               "epochs", "batch_size", "single_modality_index", "fused_dim",
               "gate_hidden", "probe_size", "cec_pair_limit", "t_warm",
               "t_lam", "draws", "ensemble_size", "seeds"}
_FLOAT_FIELDS = {"extra_label_rate", "lr_base", "lr_gate", "weight_decay",
                 "gamma", "divergence_factor", "pi_max", "lam_max",
                 "eta", "lam_min", "rate"}
_BOOL_FIELDS = {"multilabel", "temp_scaling"}
_STR_FIELDS = {"lam_mode", "ablation", "acm_family", "mode", "source"}
_NULLABLE_FIELDS = {"gate_hidden"}  # null means "use the derived default"


def _cast_field(key: str, value, where: str):
    if key in _INT_FIELDS:
        return _cast_int(value, where)
    if key in _FLOAT_FIELDS:
        return _cast_float(value, where)
    if key in _BOOL_FIELDS:
        return _cast_bool(value, where)
    if key in _STR_FIELDS:
        return _cast_str(value, where)
    raise ConfigError(f"unhandled key {where}")


def _parse_section(section: dict, allowed: set[str], where: str) -> dict:
    _check_keys(section, allowed, where)
    return {k: _cast_field(k, v, f"{where}.{k}") for k, v in section.items()
            if k not in ("dims", "snr", "schedules", "lambda", "rates")
            and not (v is None and k in _NULLABLE_FIELDS)}


def parse_config(doc) -> ExperimentConfig:
    root = _require_mapping(doc, "config")
    _check_keys(root, {"data", "train", "eval", "out"}, "config")
    for required in ("data", "train"):
        if required not in root:
            raise ConfigError(f"missing required field '{required}'")

    data_sec = _require_mapping(root["data"], "data")
    data_kwargs = _parse_section(data_sec, _DATA_KEYS, "data")
    if "dims" in data_sec:
        data_kwargs["dims"] = _cast_int_list(data_sec["dims"], "data.dims")
    if "snr" in data_sec:
        data_kwargs["snr"] = _cast_number_list(data_sec["snr"], "data.snr")

    train_sec = _require_mapping(root["train"], "train")
    train_kwargs = _parse_section(train_sec, _TRAIN_KEYS, "train")
    if "schedules" in train_sec:
        sched_sec = _require_mapping(train_sec["schedules"], "train.schedules")
        sched_kwargs = _parse_section(sched_sec, _SCHED_KEYS, "train.schedules")
        if "mode" not in sched_kwargs:
            sched_kwargs["mode"] = "acm"
        train_kwargs["schedules"] = _build(Schedules, sched_kwargs,
                                           "train.schedules")
    if "lambda" in train_sec:
        lam_sec = _require_mapping(train_sec["lambda"], "train.lambda")
        lam_kwargs = _parse_section(lam_sec, _LAMBDA_KEYS, "train.lambda")
        train_kwargs["lambda_cfg"] = _build(LambdaConfig, lam_kwargs,
                                            "train.lambda")

    if "eval" in root:
        eval_sec = _require_mapping(root["eval"], "eval")
        _check_keys(eval_sec, _EVAL_KEYS, "eval")
        if "rates" in eval_sec:
            train_kwargs["eval_rates"] = _cast_number_list(
                eval_sec["rates"], "eval.rates")
        if "seeds" in eval_sec:
            train_kwargs["eval_seeds"] = _cast_int(eval_sec["seeds"],
                                                   "eval.seeds")

    out = None
    if "out" in root and root["out"] is not None:
        out = _cast_str(root["out"], "out")

    data = _build(SyntheticSpec, data_kwargs, "data")
    train = _build(TrainConfig, train_kwargs, "train")
    return ExperimentConfig(data=data, train=train, out=out)


def _build(cls, kwargs: dict, where: str):
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """All effective values, defaults included, as plain YAML-safe types."""
    data = asdict(cfg.data)
    data["dims"] = list(data["dims"])
    data["snr"] = [float(v) for v in data["snr"]]
    train = asdict(cfg.train)
    train["lambda"] = train.pop("lambda_cfg")
    train["lambda"].pop("v_max")  # calibrated at runtime, never configured
    rates = [float(r) for r in train.pop("eval_rates")]
    seeds = train.pop("eval_seeds")
    return {"data": data, "train": train,
            "eval": {"rates": rates, "seeds": seeds}, "out": cfg.out}


def dump_resolved(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(resolved_dict(cfg), fh, sort_keys=True)

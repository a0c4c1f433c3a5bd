"""Strict YAML config schema: defaults, typed casts, round-trips."""

import dataclasses
import re

import pytest

from entrofuse.config import (ConfigError, check_lattice, dump_resolved,
                              load_config, parse_config, resolved_dict)
from entrofuse.curriculum import Schedules
from entrofuse.data import SyntheticSpec
from entrofuse.trainer import TrainConfig


def minimal_doc(**extra):
    doc = {"data": {}, "train": {}}
    doc.update(extra)
    return doc


class TestParseConfig:
    def test_empty_sections_materialize_all_defaults(self):
        cfg = parse_config(minimal_doc())
        assert cfg.data == SyntheticSpec()
        assert cfg.train == TrainConfig()
        assert cfg.out is None

    def test_scalar_fields_flow_through(self):
        cfg = parse_config({
            "data": {"modalities": 3, "classes": 4, "dims": [5, 6, 7],
                     "snr": [100.0, 10.0, 1.0], "n_train": 64, "n_val": 16,
                     "n_test": 16, "seed": 3},
            "train": {"epochs": 2, "batch_size": 16, "lr_base": 0.001,
                      "lr_gate": 0.01, "gamma": 0.25, "ablation": "no_gate"},
            "out": "runs/custom",
        })
        assert cfg.data.modalities == 3
        assert cfg.data.dims == (5, 6, 7)
        assert cfg.data.snr == (100.0, 10.0, 1.0)
        assert cfg.train.epochs == 2
        assert cfg.train.gamma == 0.25
        assert cfg.train.ablation == "no_gate"
        assert cfg.out == "runs/custom"

    def test_nested_schedule_section(self):
        cfg = parse_config(minimal_doc(
            train={"schedules": {"t_warm": 4, "pi_max": 0.3, "mode": "bernoulli"}}))
        assert cfg.train.schedules == Schedules(t_warm=4, pi_max=0.3,
                                                mode="bernoulli")

    def test_schedule_mode_defaults_to_acm(self):
        cfg = parse_config(minimal_doc(train={"schedules": {"t_warm": 4}}))
        assert cfg.train.schedules.mode == "acm"

    def test_nested_lambda_section(self):
        cfg = parse_config(minimal_doc(
            train={"lam_mode": "instance",
                   "lambda": {"lam_min": 0.05, "rate": 0.2}}))
        assert cfg.train.lambda_cfg.lam_min == 0.05
        assert cfg.train.lambda_cfg.rate == 0.2

    def test_eval_section_lands_in_train_config(self):
        cfg = parse_config(minimal_doc(eval={"rates": [0.0, 0.25], "seeds": 3}))
        assert cfg.train.eval_rates == (0.0, 0.25)
        assert cfg.train.eval_seeds == 3

    def test_missing_required_sections_named(self):
        with pytest.raises(ConfigError, match="missing required field 'data'"):
            parse_config({"train": {}})
        with pytest.raises(ConfigError, match="missing required field 'train'"):
            parse_config({"data": {}})

    def test_unknown_keys_named_with_location(self):
        with pytest.raises(ConfigError, match="'classs' in data"):
            parse_config(minimal_doc(data={"classs": 3}))
        with pytest.raises(ConfigError, match="'lr' in train"):
            parse_config(minimal_doc(train={"lr": 0.1}))
        with pytest.raises(ConfigError, match="'beta' in train"):
            parse_config(minimal_doc(train={"beta": 0.0}))
        # the branch variance is always the closed-form dropout variance:
        # the keys that chose a head ensemble instead and sized it are gone,
        # like beta, and so is the Monte-Carlo draw count
        with pytest.raises(ConfigError, match="'source' in train.lambda"):
            parse_config(minimal_doc(train={"lambda": {"source": "mc"}}))
        with pytest.raises(ConfigError, match="'draws' in train.lambda"):
            parse_config(minimal_doc(train={"lambda": {"draws": 20}}))
        with pytest.raises(ConfigError, match="'ensemble_size' in train"):
            parse_config(minimal_doc(train={"lambda": {"ensemble_size": 5}}))
        with pytest.raises(ConfigError, match="'pi' in train.schedules"):
            parse_config(minimal_doc(train={"schedules": {"pi": 0.1}}))
        with pytest.raises(ConfigError, match="in config"):
            parse_config(minimal_doc(extra=1))

    def test_type_mismatches_named_with_location(self):
        with pytest.raises(ConfigError, match="data.classes"):
            parse_config(minimal_doc(data={"classes": "ten"}))
        with pytest.raises(ConfigError, match="data.classes"):
            parse_config(minimal_doc(data={"classes": True}))  # bool is not int
        with pytest.raises(ConfigError, match="train.gamma"):
            parse_config(minimal_doc(train={"gamma": "big"}))
        with pytest.raises(ConfigError, match="data.dims"):
            parse_config(minimal_doc(data={"dims": 5}))
        with pytest.raises(ConfigError, match="train must be a mapping"):
            parse_config({"data": {}, "train": 3})

    def test_constructor_violations_become_config_errors(self):
        with pytest.raises(ConfigError, match="train"):
            parse_config(minimal_doc(train={"lr_base": 0.1, "lr_gate": 0.01}))
        with pytest.raises(ConfigError, match="data"):
            parse_config(minimal_doc(data={"classes": 50, "n_val": 10}))

    @pytest.mark.parametrize("section,setting", [
        ("eval", {"rates": [0.0, 0.5, 0.5]}),
        ("eval", {"rates": [0.0, 0.0]}),
        ("eval", {"seeds": 0}),
        ("train", {"gate_hidden": 0}),
        ("train", {"cec_pair_limit": 0}),
        ("train", {"cec_pair_limit": -1}),
        ("train", {"weight_decay": -0.01})])
    def test_bad_run_settings_are_config_errors(self, section, setting):
        # the eval keys are TrainConfig fields, applied in a step of their
        # own so that their errors name the eval section
        with pytest.raises(ConfigError, match=f"^{section}: "):
            parse_config(minimal_doc(**{section: setting}))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_single_modality_index_must_name_a_modality(self, index):
        # checked whatever the ablation tag: the ablation grid runs them all
        with pytest.raises(ConfigError, match="single_modality_index"):
            parse_config(minimal_doc(train={"single_modality_index": index}))
        three = {"modalities": 3, "dims": [4] * 3, "snr": [1.0] * 3}
        cfg = parse_config(minimal_doc(data=three,
                                       train={"single_modality_index": 2}))
        assert cfg.train.single_modality_index == 2

    def test_unknown_acm_family_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown acm_family 'typo'"):
            parse_config(minimal_doc(train={"acm_family": "typo"}))

    @pytest.mark.parametrize("mode", ["acm", "bernoulli"])
    def test_all_subsets_limited_to_four_modalities_under_acm(self, mode):
        def doc(m):
            return minimal_doc(
                data={"modalities": m, "dims": [4] * m, "snr": [1.0] * m},
                train={"acm_family": "all_subsets",
                       "schedules": {"mode": mode}})

        assert parse_config(doc(4)).train.acm_family == "all_subsets"
        if mode == "bernoulli":  # the teacher never runs
            assert parse_config(doc(5)).data.modalities == 5
            return
        with pytest.raises(ConfigError, match="limited to 4 modalities"):
            parse_config(doc(5))

    def test_consistency_penalty_limited_to_ten_modalities(self):
        # the penalty builds the subset lattice, which stops at 10
        def doc(m, gamma, ablation="full"):
            return minimal_doc(
                data={"modalities": m, "dims": [2] * m, "snr": [1.0] * m},
                train={"gamma": gamma, "ablation": ablation})

        assert parse_config(doc(10, 0.5)).data.modalities == 10
        assert parse_config(doc(11, 0.0)).data.modalities == 11
        for gamma in (0.5, TrainConfig().gamma):
            with pytest.raises(ConfigError,
                               match=r"train.gamma > 0 is limited to 10 "
                                     "modalities"):
                parse_config(doc(11, gamma))
        # single_modality switches the penalty off, so gamma goes unread
        assert parse_config(doc(11, 0.5, "single_modality")).train.gamma == 0.5

    def test_check_lattice_reads_the_ablation_tag(self):
        # ablate runs the grid's full whatever the tag, through this check
        train = TrainConfig(gamma=0.5, ablation="single_modality")
        check_lattice(train, 11)
        with pytest.raises(ConfigError, match="limited to 10 modalities"):
            check_lattice(dataclasses.replace(train, ablation="full"), 11)
        check_lattice(dataclasses.replace(train, ablation="full"), 10)

    def test_with_seed_overrides_both_seeds(self):
        cfg = parse_config(minimal_doc())
        seeded = cfg.with_seed(9)
        assert seeded.data.seed == 9
        assert seeded.train.seed == 9
        assert cfg.data.seed == 0  # original unchanged


class TestResolvedDict:
    def test_round_trips_through_parse(self):
        cfg = parse_config({
            "data": {"modalities": 2, "classes": 3, "dims": [4, 5]},
            "train": {"epochs": 2, "gamma": 0.2,
                      "schedules": {"mode": "bernoulli", "t_warm": 3},
                      "lambda": {"lam_min": 0.05}},
            "eval": {"rates": [0.0, 0.1], "seeds": 2},
        })
        resolved = resolved_dict(cfg)
        again = parse_config(resolved)
        assert again == cfg
        assert resolved_dict(again) == resolved

    def test_every_default_is_materialized(self):
        resolved = resolved_dict(parse_config(minimal_doc()))
        assert resolved["data"]["classes"] == 10
        assert resolved["train"]["epochs"] == 30
        assert resolved["train"]["schedules"]["pi_max"] == 0.40
        assert resolved["train"]["lambda"]["lam_min"] == 0.01
        assert resolved["eval"]["rates"] == [0.0, 0.1, 0.2, 0.3, 0.5]

    def test_runtime_calibration_fields_are_not_exported(self):
        resolved = resolved_dict(parse_config(minimal_doc()))
        assert "v_max" not in resolved["train"]["lambda"]


class TestFileRoundTrip:
    def test_dump_then_load_is_identity(self, tmp_path):
        cfg = parse_config({
            "data": {"modalities": 2, "classes": 3, "dims": [4, 4]},
            "train": {"epochs": 1}, "out": "runs/x",
        })
        path = tmp_path / "cfg.yaml"
        dump_resolved(cfg, path)
        assert load_config(path) == cfg

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("data: [unclosed\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_yaml_scalar_document_rejected(self, tmp_path):
        path = tmp_path / "scalar.yaml"
        path.write_text("42\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)


# Every field the schema reads, found by walking the dataclasses, so a new
# field is covered without editing this table. Only where the YAML differs
# from the fields is spelled out: renamed keys and the eval section.
YAML_KEY = {"lambda_cfg": "lambda"}
EVAL_KEY = {"eval_rates": "rates", "eval_seeds": "seeds"}
# valid values for fields whose domain the default alone does not give
OTHER = {"modalities": 3, "lam_mode": "instance", "ablation": "no_gate",
         "acm_family": "all_subsets", "mode": "bernoulli",
         "multilabel": True, "temp_scaling": True}
# (YAML section, attribute path from ExperimentConfig, default)
SECTIONS = [("data", ("data",), SyntheticSpec()),
            ("train", ("train",), TrainConfig()),
            ("train.schedules", ("train", "schedules"), TrainConfig().schedules),
            ("train.lambda", ("train", "lambda_cfg"), TrainConfig().lambda_cfg)]


def schema_fields():
    for where, attrs, default in SECTIONS:
        for f in dataclasses.fields(default):
            if f.name in EVAL_KEY:
                path = ("eval", EVAL_KEY[f.name])
            else:
                path = (*where.split("."), YAML_KEY.get(f.name, f.name))
            yield pytest.param(path, (*attrs, f.name),
                               getattr(default, f.name), id=".".join(path))


def float_values(bad, prefix=""):
    """``bad`` for every float field, and in turn for each entry of every
    list of floats, the other entries at their defaults."""
    for param in schema_fields():
        path, _, default = param.values
        if isinstance(default, float):
            yield pytest.param(path, bad, id=prefix + param.id)
        elif isinstance(default, tuple) and isinstance(default[0], float):
            for i in range(len(default)):
                value = [bad if j == i else v for j, v in enumerate(default)]
                yield pytest.param(path, value, id=f"{prefix}{param.id}[{i}]")


def other_value(name, default):
    """A valid YAML value for the field that differs from its default."""
    if name in OTHER:
        return OTHER[name]
    if dataclasses.is_dataclass(default):
        first = dataclasses.fields(default)[0].name
        return {first: other_value(first, getattr(default, first))}
    if isinstance(default, tuple):
        return [other_value(name, v) for v in default]
    if default is None or isinstance(default, int):
        return (default or 0) + 1
    return default / 2


def typed(value, default):
    """``value`` as the parsed field holds it."""
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        return dataclasses.replace(default, **{
            k: typed(v, getattr(default, k)) for k, v in value.items()})
    return value


def wrong_value(default):
    """A YAML value of the wrong type for a field with this default."""
    if dataclasses.is_dataclass(default) or isinstance(default, tuple):
        return 3  # a scalar for a mapping or a list
    if isinstance(default, bool):
        return "yes"
    if isinstance(default, float):
        return "big"  # a string for a number
    if isinstance(default, str):
        return 1
    return True  # a bool for an integer


def document(path, value):
    doc = minimal_doc()
    section = doc
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    if path == ("data", "modalities"):  # one dim and one snr per modality
        doc["data"].update(dims=[32] * value, snr=[1e6] * value)
    return doc


def lookup(tree, path):
    for key in path:
        tree = tree[key] if isinstance(tree, dict) else getattr(tree, key)
    return tree


class TestSchemaIsTheDataclassFields:
    def test_every_field_is_a_yaml_key(self):
        # run state (a value measured during a run) has no place in these
        # dataclasses: each field is a key of its section, except the two
        # the eval section sets
        resolved = resolved_dict(parse_config(minimal_doc()))
        for where, _, default in SECTIONS:
            names = {f.name for f in dataclasses.fields(default)}
            assert set(lookup(resolved, where.split("."))) == {
                YAML_KEY.get(name, name) for name in names - set(EVAL_KEY)}
        assert set(resolved["eval"]) == set(EVAL_KEY.values())

    @pytest.mark.parametrize("path,attrs,default", schema_fields())
    def test_non_default_value_parses_and_survives_resolved_dict(
            self, path, attrs, default):
        value = other_value(attrs[-1], default)
        cfg = parse_config(document(path, value))
        assert lookup(cfg, attrs) == typed(value, default) != default
        resolved = resolved_dict(cfg)
        if not dataclasses.is_dataclass(default):
            assert lookup(resolved, path) == value
        assert parse_config(resolved) == cfg

    @pytest.mark.parametrize("path,attrs,default", schema_fields())
    def test_wrong_type_is_named(self, path, attrs, default):
        with pytest.raises(ConfigError, match=re.escape(".".join(path))):
            parse_config(document(path, wrong_value(default)))

    @pytest.mark.parametrize("path,value", float_values(float("nan")))
    def test_nan_is_rejected_and_its_section_named(self, path, value):
        # every range check is written so that NaN fails it
        section = ".".join(path[:-1])
        with pytest.raises(ConfigError, match=f"^{re.escape(section)}: "):
            parse_config(document(path, value))

    @pytest.mark.parametrize("path,value", [
        *float_values(float("inf"), "+inf-"),
        *float_values(float("-inf"), "-inf-")])
    def test_infinity_is_rejected_and_its_section_named(self, path, value):
        # every range check is bounded on both sides, so neither YAML .inf
        # nor -.inf passes one, as NaN does not
        section = ".".join(path[:-1])
        with pytest.raises(ConfigError, match=f"^{re.escape(section)}: "):
            parse_config(document(path, value))

"""Declarative experiment configs: parsing, channel specs, overrides, digests."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from chainviews.channels import (
    ComposedChannel,
    DiscreteChannel,
    LinearGaussianChannel,
    MixtureChannel,
    Port,
    PrototypeCollapseChannel,
    lossy_world_preset,
    sample_channel,
)
from chainviews.config import (
    CHANNEL_KINDS,
    ConfigError,
    ExperimentConfig,
    channel_from_spec,
    load_experiment_data,
    merge_overrides,
    parse_config,
    read_config_mapping,
    world_from_custom,
)
from chainviews.datamodel import ViewBatch, ViewSpec, dataset_to_string, rows_match, write_dataset
from chainviews.pipeline import CONDITIONS
from chainviews.rng import derive_rng

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_mapping(**overrides):
    mapping = {"seed": 3, "world": {"preset": "clean"}}
    mapping.update(overrides)
    return mapping


U2 = Port(ViewSpec("vector", 2), "u")
V2 = Port(ViewSpec("vector", 2), "v")
UD3 = Port(ViewSpec("discrete", 3), "u")
VD3 = Port(ViewSpec("discrete", 3), "v")


# --- parse_config ---------------------------------------------------------------


def test_minimal_config_fills_defaults():
    config = parse_config(base_mapping())
    assert isinstance(config, ExperimentConfig)
    assert config.seed == 3
    assert config.out_dir == "."
    preset, _, _ = lossy_world_preset("clean", seed=3)
    assert config.world.seed == 3 and np.array_equal(config.world.class_means, preset.class_means)
    assert config.dataset_paths is None
    assert config.train_per_class == 35
    assert config.test_per_class == 75
    assert config.none_class is None
    assert config.pipeline.seed == 3
    assert config.pipeline.initial_views == 30
    assert config.ablation_conditions == CONDITIONS
    assert config.ablation_seeds == tuple(range(10))
    assert config.diversity_pca_dims == (2, 4)
    assert config.diversity_components == (3,)
    assert len(config.digest) == 64


def test_seed_is_mandatory_and_checked():
    with pytest.raises(ConfigError, match="seed required"):
        parse_config({"world": {"preset": "clean"}})
    with pytest.raises(ConfigError, match="seed required"):
        parse_config(base_mapping(seed=None))
    for bad in (-1, True, "7"):
        with pytest.raises(ConfigError, match="non-negative integer"):
            parse_config(base_mapping(seed=bad))


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="unknown keys.*speling"):
        parse_config(base_mapping(speling=1))
    with pytest.raises(ConfigError, match="unknown keys in pipeline.*warm"):
        parse_config(base_mapping(pipeline={"warm": True}))
    with pytest.raises(ConfigError, match="pipeline.teacher.*momentum"):
        parse_config(base_mapping(pipeline={"teacher": {"momentum": 0.9}}))
    # inert PipelineConfig fields and the run-wide seed are no YAML keys
    for key in ("pca_dim", "gmm_components", "workers"):
        with pytest.raises(ConfigError, match=f"unknown keys in pipeline: {key}"):
            parse_config(base_mapping(pipeline={key: 2}))
    with pytest.raises(ConfigError, match="unknown keys in pipeline.student: seed"):
        parse_config(base_mapping(pipeline={"student": {"seed": 2}}))


def test_world_and_dataset_are_exclusive(tmp_path):
    with pytest.raises(ConfigError, match="exactly one of 'world' and 'dataset'"):
        parse_config({"seed": 1})
    with pytest.raises(ConfigError, match="exactly one of 'world' and 'dataset'"):
        parse_config(
            base_mapping(dataset={"train": "a.jsonl", "test": "b.jsonl"})
        )
    with pytest.raises(ConfigError, match="exactly one of 'preset' and 'custom'"):
        parse_config(base_mapping(world={}))
    with pytest.raises(ConfigError, match="unknown world preset"):
        parse_config(base_mapping(world={"preset": "pristine"}))


def test_dataset_mode_needs_paths_and_channels():
    with pytest.raises(ConfigError, match="both 'train' and 'test'"):
        parse_config({"seed": 1, "dataset": {"train": "a.jsonl"}})
    with pytest.raises(ConfigError, match="'channels' section"):
        parse_config({"seed": 1, "dataset": {"train": "a.jsonl", "test": "b.jsonl"}})
    with pytest.raises(ConfigError, match="both 'u_to_v' and 'v_to_u'"):
        parse_config(
            {
                "seed": 1,
                "dataset": {"train": "a.jsonl", "test": "b.jsonl"},
                "channels": {"u_to_v": {"kind": "discrete", "matrix": [[1.0]]}},
            }
        )


@pytest.mark.parametrize("data", [{"none_class": 3, "train_per_class": 999}, {}, None])
def test_dataset_mode_refuses_a_data_section(data):
    # the files fix the schema and the sizes, so a data section would be ignored
    channel = {"kind": "discrete", "matrix": [[1.0]]}
    paths = {"train": "a.jsonl", "test": "b.jsonl"}
    mapping = {"seed": 1, "dataset": paths, "channels": {"u_to_v": channel, "v_to_u": channel}}
    assert parse_config(mapping).none_class is None
    with pytest.raises(ConfigError, match=r"^dataset files carry their own schema and sizes; drop the 'data' section$"):
        parse_config({**mapping, "data": data})


def test_custom_world_needs_channels():
    custom = {
        "class_means": [[1.0, 0.0], [0.0, 1.0]],
        "within_class_sigma": 0.5,
        "entity_vocab": 4,
        "entity_pairs_by_class": [[[0, 1]], [[2, 3]]],
    }
    with pytest.raises(ConfigError, match="'channels' section"):
        parse_config(base_mapping(world={"custom": custom}))


def test_pipeline_section_parses_policies_and_budgets():
    config = parse_config(
        base_mapping(
            pipeline={
                "ccg_rounds": 1,
                "initial_views": 8,
                "spawn_per_kept": [2],
                "keep_fraction": 0.5,
                "policy": "random",
                "teacher": {"steps": 17, "learning_rate": 0.1},
            }
        )
    )
    assert config.pipeline.ccg_rounds == 1
    assert config.pipeline.spawn_per_kept == (2,)
    assert config.pipeline.policy_name == "random"
    assert config.pipeline.teacher.steps == 17
    assert config.pipeline.teacher.learning_rate == 0.1
    # unspecified teacher fields keep their defaults
    assert config.pipeline.teacher.batch_size == 48
    assert config.pipeline.student.steps == 350


def test_spawn_default_follows_round_count():
    # explicit rounds without a spawn list: the published (4, 1) when it fits,
    # one child per kept view otherwise
    assert parse_config(base_mapping(pipeline={"ccg_rounds": 2})).pipeline.spawn_per_kept == (4, 1)
    assert parse_config(base_mapping(pipeline={"ccg_rounds": 3})).pipeline.spawn_per_kept == (1, 1, 1)
    assert parse_config(base_mapping(pipeline={"ccg_rounds": 0})).pipeline.spawn_per_kept == ()


def test_bad_pipeline_values_become_config_errors():
    with pytest.raises(ConfigError, match="keep_fraction"):
        parse_config(base_mapping(pipeline={"keep_fraction": 0.0}))
    with pytest.raises(ConfigError, match="spawn_per_kept"):
        parse_config(base_mapping(pipeline={"ccg_rounds": 1, "spawn_per_kept": [1, 1]}))


def test_ablation_section_validation():
    config = parse_config(base_mapping(ablation={"seeds": [4, 5], "conditions": ["full", "unimodal"]}))
    assert config.ablation_seeds == (4, 5)
    assert config.ablation_conditions == ("full", "unimodal")
    with pytest.raises(ConfigError, match="valid names: full, no_ccg"):
        parse_config(base_mapping(ablation={"conditions": ["full", "bogus"]}))
    with pytest.raises(ConfigError, match="must not be empty"):
        parse_config(base_mapping(ablation={"seeds": []}))


def test_ablation_conditions_must_not_repeat():
    with pytest.raises(ConfigError, match=r"ablation.conditions names full, unimodal more than once"):
        parse_config(base_mapping(ablation={"conditions": ["unimodal", "full", "no_ccg", "full", "unimodal"]}))


def test_ablation_seeds_must_not_repeat():
    # a repeated seed would run twice and count twice in every mean row
    with pytest.raises(ConfigError, match=r"^ablation.seeds names 1 more than once; name each seed once$"):
        parse_config(base_mapping(ablation={"seeds": [1, 1, 2]}))
    with pytest.raises(ConfigError, match=r"^ablation.seeds names 2, 10 more than once; name each seed once$"):
        parse_config(base_mapping(ablation={"seeds": [10, 2, 10, 3, 2]}))


def test_diversity_grid_validation():
    config = parse_config(base_mapping(diversity={"pca_dims": [2], "components": [1, 3]}))
    assert config.diversity_pca_dims == (2,)
    assert config.diversity_components == (1, 3)
    with pytest.raises(ConfigError, match="diversity.pca_dims entries must be a positive integer"):
        parse_config(base_mapping(diversity={"pca_dims": [0]}))


def test_data_and_metrics_sections():
    config = parse_config(base_mapping(data={"train_per_class": 5, "test_per_class": 6, "none_class": 2}))
    assert config.train_per_class == 5
    assert config.test_per_class == 6
    assert config.none_class == 2
    # no command reads a metrics setting, so the section is an unknown key
    with pytest.raises(ConfigError, match="unknown keys.*metrics"):
        parse_config(base_mapping(metrics={"include_none": True}))


def test_non_scalar_values_cannot_be_hashed():
    with pytest.raises(ConfigError, match="plain scalars"):
        parse_config(base_mapping(out_dir=b"bytes"))


# --- channel specs ----------------------------------------------------------------


def test_channel_spec_kinds_build_their_channels():
    lg = channel_from_spec(
        {"kind": "linear_gaussian", "weight": [[1.0, 0.0], [0.0, 1.0]], "noise_sigma": 0.3}, "u", "v"
    )
    assert isinstance(lg, LinearGaussianChannel)
    assert np.array_equal(lg.bias, np.zeros(2))  # bias defaults to zeros
    disc = channel_from_spec({"kind": "discrete", "matrix": np.eye(3).tolist()}, "u", "v")
    assert isinstance(disc, DiscreteChannel)
    proto = channel_from_spec(
        {
            "kind": "prototype_collapse",
            "prototypes": [[1.0, 0.0], [0.0, 1.0]],
            "temperature": 4.0,
            "jitter_sigma": 0.2,
        },
        "u",
        "v",
    )
    assert isinstance(proto, PrototypeCollapseChannel)
    mix = channel_from_spec(
        {
            "kind": "mixture",
            "branch_prob": 0.5,
            "a": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.1},
            "b": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 1.0},
        },
        "u",
        "v",
    )
    assert isinstance(mix, MixtureChannel)
    assert mix.in_port == U2 and mix.out_port == V2


def test_compose_spec_infers_intermediate_ports():
    spec = {
        "kind": "compose",
        "stages": [
            {"kind": "discrete", "matrix": np.full((3, 4), 0.25).tolist()},
            {"kind": "discrete", "matrix": np.full((4, 3), 1 / 3).tolist()},
        ],
    }
    chain = channel_from_spec(spec, "u", "v")
    assert isinstance(chain, ComposedChannel)
    assert chain.in_port.spec.size == 3 and chain.out_port.spec.size == 3
    assert chain.stages[0].out_port.spec.size == 4  # inferred from the first matrix
    views = ViewBatch(UD3.spec.kind, UD3.modality, [[0, 1, 2], [2, 1, 0]])
    outs = sample_channel(chain, views, derive_rng(0, "probe"))
    assert len(outs) == 2
    assert VD3.accepts(outs)


def test_channel_spec_errors():
    with pytest.raises(ConfigError, match="unknown channel kind"):
        channel_from_spec({"kind": "teleport"}, "u", "v")
    with pytest.raises(ConfigError, match="missing key 'weight'"):
        channel_from_spec({"kind": "linear_gaussian", "noise_sigma": 0.1}, "u", "v")
    with pytest.raises(ConfigError, match="unknown keys"):
        channel_from_spec({"kind": "discrete", "matrix": [[1.0]], "weight": []}, "u", "v")
    with pytest.raises(ConfigError, match="at least one stage"):
        channel_from_spec({"kind": "compose", "stages": []}, "u", "v")
    assert CHANNEL_KINDS == ("discrete", "linear_gaussian", "prototype_collapse", "mixture", "compose")


@pytest.mark.parametrize(
    "name, weight, message",
    [
        ("u_to_v", np.ones((2, 3)), "channels.u_to_v reads vector views of size 3, but the data's u side has vector views of size 2"),
        ("v_to_u", np.ones((3, 2)), "channels.v_to_u emits vector views of size 3, but the data's u side has vector views of size 2"),
        ("v_to_u", np.ones((2, 3)), "channels.v_to_u reads vector views of size 3, but the data's v side has vector views of size 2"),
    ],
)
def test_channels_must_fit_the_worlds_sides(name, weight, message):
    eye = {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.1}
    channels = {"u_to_v": eye, "v_to_u": eye, name: {**eye, "weight": weight.tolist()}}
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(base_mapping(channels=channels))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("noise_sigma", float("nan"), "noise_sigma must be a finite positive number, got nan"),
        ("noise_sigma", "x", "noise_sigma must be a finite positive number, got 'x'"),
        ("noise_sigma", float("inf"), "noise_sigma must be a finite positive number, got inf"),
    ],
)
def test_channel_parameter_errors_name_the_channel_and_key(key, value, message):
    spec = {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.1, key: value}
    with pytest.raises(ConfigError, match=re.escape(f"channels.u_to_v (linear_gaussian): {message}")):
        channel_from_spec(spec, "u", "v", "channels.u_to_v")


# --- files, overrides, digests -------------------------------------------------------


def write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return path


def load_config(path, overrides=None):
    """A config file with flag overrides, parsed the way the CLI does it."""
    return parse_config(merge_overrides(read_config_mapping(path), overrides), source=str(path))


def test_load_config_round_trips_yaml(tmp_path):
    path = write_yaml(tmp_path / "exp.yaml", base_mapping(out_dir="results"))
    config = load_config(path)
    assert config.out_dir == "results"
    assert config.digest == load_config(path).digest  # stable across reloads


def test_importing_the_package_leaves_yaml_unloaded(tmp_path):
    # yaml is imported only to read a config file: a fresh interpreter that
    # imports chainviews has no yaml module until a file is read, and a
    # malformed file still exits 1 through the CLI
    good = write_yaml(tmp_path / "good.yaml", base_mapping())
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed", encoding="utf-8")
    code = f"""
import sys
import chainviews, chainviews.cli
print("yaml" in sys.modules)
from chainviews.config import read_config_mapping
print(read_config_mapping({str(good)!r})["seed"], "yaml" in sys.modules)
sys.exit(chainviews.cli.main(["run", "--config", {str(bad)!r}, "--out", {str(tmp_path / "out")!r}]))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == ["False", "3 True"]
    assert "malformed config" in proc.stderr


def test_read_config_mapping_errors(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(ConfigError, match="cannot read"):
        read_config_mapping(missing)
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        read_config_mapping(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="must be a mapping"):
        read_config_mapping(listy)
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert read_config_mapping(empty) == {}


def test_merge_overrides_sets_the_given_values_and_skips_none():
    mapping = base_mapping(pipeline={"ccg_rounds": 2})
    merged = merge_overrides(mapping, {"seed": 9, "out_dir": None})
    assert merged == {**mapping, "seed": 9}
    assert "out_dir" not in merged  # None overrides are skipped
    assert mapping["seed"] == 3  # input untouched
    assert merge_overrides(mapping, None) == mapping


def test_overrides_change_the_digest(tmp_path):
    path = write_yaml(tmp_path / "exp.yaml", base_mapping())
    plain = load_config(path)
    overridden = load_config(path, overrides={"seed": 4})
    assert overridden.seed == 4
    assert overridden.digest != plain.digest
    moved = load_config(path, overrides={"out_dir": str(tmp_path / "elsewhere")})
    assert moved.out_dir != plain.out_dir
    assert moved.digest == plain.digest


# --- worlds and data ------------------------------------------------------------------


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda path: path.name)
def test_every_shipped_config_parses_and_builds_its_world(path):
    config = parse_config(read_config_mapping(path), source=str(path))
    g_uv, g_vu = config.channels
    assert config.world.seed == config.seed
    assert g_uv.in_port.spec == ViewSpec("vector", config.world.u_dim) == g_vu.out_port.spec
    assert g_uv.out_port.spec == g_vu.in_port.spec


def test_a_channels_section_replaces_the_presets_channels():
    mapping = base_mapping(
        channels={
            "u_to_v": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.125},
            "v_to_u": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.25},
        }
    )
    g_uv, g_vu = parse_config(mapping).channels
    assert isinstance(g_uv, LinearGaussianChannel) and g_uv.noise_sigma == 0.125
    assert isinstance(g_vu, LinearGaussianChannel) and g_vu.noise_sigma == 0.25
    assert g_uv.in_port.modality == "u" and g_uv.out_port.modality == "v"


def test_a_dataset_config_has_no_world_and_checks_its_channels_against_the_files(tmp_path):
    source = parse_config(base_mapping(data={"train_per_class": 2, "test_per_class": 2}))
    train_inst, test_inst, schema, _, _ = load_experiment_data(source)
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    write_dataset(train_inst, schema, train)
    write_dataset(test_inst, schema, test)
    wide = {"kind": "linear_gaussian", "weight": np.eye(3).tolist(), "noise_sigma": 0.5}
    dataset = {"train": str(train), "test": str(test)}
    config = parse_config({"seed": 1, "dataset": dataset, "channels": {"u_to_v": wide, "v_to_u": wide}})
    assert config.world is None
    assert all(isinstance(channel, LinearGaussianChannel) for channel in config.channels)
    message = "channels.u_to_v reads vector views of size 3, but the data's u side has vector views of size 2"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_experiment_data(config)


def test_world_from_custom_builds_and_reports_missing_keys():
    custom = {
        "class_means": [[2.0, 0.0], [0.0, 2.0]],
        "within_class_sigma": 0.4,
        "entity_vocab": 4,
        "entity_pairs_by_class": [[[0, 1]], [[2, 3]]],
    }
    world = world_from_custom(custom, seed=6)
    assert world.class_count == 2
    assert world.seed == 6
    with pytest.raises(ConfigError, match="missing key 'entity_vocab'"):
        world_from_custom({k: v for k, v in custom.items() if k != "entity_vocab"}, seed=6)


def test_load_experiment_data_from_world():
    config = parse_config(base_mapping(data={"train_per_class": 2, "test_per_class": 3}))
    train_inst, test_inst, schema, g_uv, g_vu = load_experiment_data(config)
    assert len(train_inst) == schema.class_count * 2
    assert len(test_inst) == schema.class_count * 3
    assert all(rows_match(inst.real_view.kind, inst.real_view.data, schema.u_spec).all() for inst in train_inst)
    assert g_uv.out_port.spec == schema.v_spec


def test_load_experiment_data_reseeds_the_world():
    # ablate loads each seed's data as run --seed would
    def text(seed, reseed=None):
        config = parse_config(base_mapping(seed=seed, data={"train_per_class": 2, "test_per_class": 3, "none_class": 1}))
        train, test, schema, _, _ = load_experiment_data(config, reseed)
        assert config.world.seed == seed  # a reseed leaves the config's world as it is
        return dataset_to_string(train + test, schema)

    assert text(0, 4) == text(4) != text(0)


def test_load_experiment_data_from_files(tmp_path):
    source = parse_config(base_mapping(data={"train_per_class": 2, "test_per_class": 2}))
    train_inst, test_inst, schema, _, _ = load_experiment_data(source)
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    write_dataset(train_inst, schema, train_path)
    write_dataset(test_inst, schema, test_path)

    d = schema.u_spec.size
    config = parse_config(
        {
            "seed": 2,
            "dataset": {"train": str(train_path), "test": str(test_path)},
            "channels": {
                "u_to_v": {"kind": "linear_gaussian", "weight": np.eye(d).tolist(), "noise_sigma": 0.5},
                "v_to_u": {"kind": "linear_gaussian", "weight": np.eye(d).tolist(), "noise_sigma": 0.5},
            },
        }
    )
    loaded_train, loaded_test, loaded_schema, g_uv, g_vu = load_experiment_data(config)
    assert loaded_schema == schema
    assert dataset_to_string(loaded_train, loaded_schema) == dataset_to_string(train_inst, schema)
    assert g_uv.in_port.spec == schema.u_spec

    # mismatched schemas between the two files are refused
    other = parse_config({"seed": 2, "world": {"preset": "noisy"}, "data": {"train_per_class": 2, "test_per_class": 2}})
    other_train, _, other_schema, _, _ = load_experiment_data(other)
    write_dataset(other_train, other_schema, test_path)
    with pytest.raises(ConfigError, match="disagree on their schema"):
        load_experiment_data(config)


def test_load_experiment_data_refuses_a_file_with_no_instances(tmp_path):
    source = parse_config(base_mapping(data={"train_per_class": 2, "test_per_class": 2}))
    train_inst, _, schema, _, _ = load_experiment_data(source)
    train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    write_dataset(train_inst, schema, train_path)
    write_dataset([], schema, test_path)
    d = schema.u_spec.size
    channel = {"kind": "linear_gaussian", "weight": np.eye(d).tolist(), "noise_sigma": 0.5}
    mapping = {"seed": 2, "channels": {"u_to_v": channel, "v_to_u": channel}}
    for paths in ((train_path, test_path), (test_path, train_path)):
        config = parse_config({**mapping, "dataset": {"train": str(paths[0]), "test": str(paths[1])}})
        with pytest.raises(ConfigError, match=f"dataset {re.escape(str(test_path))} holds no instances"):
            load_experiment_data(config)

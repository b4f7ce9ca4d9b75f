"""Declarative experiment configs: parsing, channel specs, overrides, digests."""

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
)
from chainviews.config import (
    CHANNEL_KINDS,
    ConfigError,
    ExperimentConfig,
    build_world,
    channel_from_spec,
    load_config,
    load_experiment_data,
    merge_overrides,
    parse_config,
    read_config_mapping,
    world_from_custom,
)
from chainviews.datamodel import ViewSpec, dataset_to_string, write_dataset
from chainviews.pipeline import CONDITIONS
from chainviews.rng import derive_rng


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
    assert config.world_preset == "clean"
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


def test_custom_world_needs_channels():
    custom = {
        "class_means": [[1.0, 0.0], [0.0, 1.0]],
        "within_class_sigma": 0.5,
        "entity_vocab": 4,
        "entity_pairs_by_class": [[[0, 1]], [[2, 3]]],
        "v_size": 2,
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
                "policy": "similarity",
                "teacher": {"steps": 17, "learning_rate": 0.1},
            }
        )
    )
    assert config.pipeline.ccg_rounds == 1
    assert config.pipeline.spawn_per_kept == (2,)
    assert config.pipeline.policy_name == "similarity"
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


def test_diversity_grid_validation():
    config = parse_config(base_mapping(diversity={"pca_dims": [2], "components": [1, 3]}))
    assert config.diversity_pca_dims == (2,)
    assert config.diversity_components == (1, 3)
    with pytest.raises(ConfigError, match="must be positive"):
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
        {"kind": "linear_gaussian", "weight": [[1.0, 0.0], [0.0, 1.0]], "noise_sigma": 0.3}, U2, V2
    )
    assert isinstance(lg, LinearGaussianChannel)
    assert np.array_equal(lg.bias, np.zeros(2))  # bias defaults to zeros
    disc = channel_from_spec({"kind": "discrete", "matrix": np.eye(3).tolist()}, UD3, VD3)
    assert isinstance(disc, DiscreteChannel)
    proto = channel_from_spec(
        {
            "kind": "prototype_collapse",
            "prototypes": [[1.0, 0.0], [0.0, 1.0]],
            "temperature": 4.0,
            "jitter_sigma": 0.2,
        },
        U2,
        V2,
    )
    assert isinstance(proto, PrototypeCollapseChannel)
    mix = channel_from_spec(
        {
            "kind": "mixture",
            "branch_prob": 0.5,
            "a": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.1},
            "b": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 1.0},
        },
        U2,
        V2,
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
    chain = channel_from_spec(spec, UD3, VD3)
    assert isinstance(chain, ComposedChannel)
    assert chain.in_port.spec.size == 3 and chain.out_port.spec.size == 3
    assert chain.stages[0].out_port.spec.size == 4  # inferred from the first matrix
    view = UD3.make_view([0, 1, 2])
    out = chain.sample(view, derive_rng(0, "probe"))
    assert out.matches(VD3.spec) and out.modality == "v"


def test_channel_spec_errors():
    with pytest.raises(ConfigError, match="unknown channel kind"):
        channel_from_spec({"kind": "teleport"}, U2, V2)
    with pytest.raises(ConfigError, match="missing key 'weight'"):
        channel_from_spec({"kind": "linear_gaussian", "noise_sigma": 0.1}, U2, V2)
    with pytest.raises(ConfigError, match="unknown keys"):
        channel_from_spec({"kind": "discrete", "matrix": [[1.0]], "weight": []}, UD3, VD3)
    with pytest.raises(ConfigError, match="at least one stage"):
        channel_from_spec({"kind": "compose", "stages": []}, U2, V2)
    assert CHANNEL_KINDS == ("discrete", "linear_gaussian", "prototype_collapse", "mixture", "compose")


# --- files, overrides, digests -------------------------------------------------------


def write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return path


def test_load_config_round_trips_yaml(tmp_path):
    path = write_yaml(tmp_path / "exp.yaml", base_mapping(out_dir="results"))
    config = load_config(path)
    assert config.out_dir == "results"
    assert config.digest == load_config(path).digest  # stable across reloads


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


def test_merge_overrides_one_level_deep():
    mapping = base_mapping(pipeline={"ccg_rounds": 2, "initial_views": 12})
    merged = merge_overrides(mapping, {"seed": 9, "pipeline": {"ccg_rounds": 0}, "out_dir": None})
    assert merged["seed"] == 9
    assert merged["pipeline"] == {"ccg_rounds": 0, "initial_views": 12}
    assert "out_dir" not in merged  # None overrides are skipped
    assert mapping["pipeline"]["ccg_rounds"] == 2  # input untouched


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


def test_build_world_preset_and_seed_override():
    config = parse_config(base_mapping())
    world, g_uv, g_vu, v_spec = build_world(config)
    assert world.seed == 3
    assert g_uv.out_port.spec == v_spec
    assert g_vu.in_port.spec == v_spec
    reseeded, _, _, _ = build_world(config, seed=11)
    assert reseeded.seed == 11


def test_build_world_channel_overrides_replace_preset():
    mapping = base_mapping(
        channels={
            "u_to_v": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.125},
            "v_to_u": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.25},
        }
    )
    world, g_uv, g_vu, v_spec = build_world(parse_config(mapping))
    assert isinstance(g_uv, LinearGaussianChannel) and g_uv.noise_sigma == 0.125
    assert isinstance(g_vu, LinearGaussianChannel) and g_vu.noise_sigma == 0.25
    assert g_uv.in_port.modality == "u" and g_uv.out_port.modality == "v"


def test_build_world_rejects_dataset_configs(tmp_path):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    config_map = {
        "seed": 1,
        "dataset": {"train": str(train), "test": str(test)},
        "channels": {
            "u_to_v": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.5},
            "v_to_u": {"kind": "linear_gaussian", "weight": np.eye(2).tolist(), "noise_sigma": 0.5},
        },
    }
    with pytest.raises(ConfigError, match="no world to build"):
        build_world(parse_config(config_map))


def test_world_from_custom_builds_and_reports_missing_keys():
    custom = {
        "name": "twoclass",
        "class_means": [[2.0, 0.0], [0.0, 2.0]],
        "within_class_sigma": 0.4,
        "entity_vocab": 4,
        "entity_pairs_by_class": [[[0, 1]], [[2, 3]]],
        "v_size": 2,
    }
    world, v_spec = world_from_custom(custom, seed=6)
    assert world.name == "twoclass"
    assert world.class_count == 2
    assert world.seed == 6
    assert v_spec == ViewSpec("vector", 2)
    with pytest.raises(ConfigError, match="missing key 'v_size'"):
        world_from_custom({k: v for k, v in custom.items() if k != "v_size"}, seed=6)


def test_load_experiment_data_from_world():
    config = parse_config(base_mapping(data={"train_per_class": 2, "test_per_class": 3}))
    train_inst, test_inst, schema, g_uv, g_vu = load_experiment_data(config)
    assert len(train_inst) == schema.class_count * 2
    assert len(test_inst) == schema.class_count * 3
    assert all(inst.real_view.matches(schema.u_spec) for inst in train_inst)
    assert g_uv.out_port.spec == schema.v_spec


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

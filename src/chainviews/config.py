"""Declarative experiment configs.

One YAML file describes a whole experiment: where the data comes from (a
named world preset, a custom world, or dataset files), the channel pair, the
pipeline knobs, and the ablation/diversity grids. Flags may override scalar
keys before parsing, so the recorded config digest always reflects what
actually ran.

Channel specs are tagged mappings::

    {kind: linear_gaussian, weight: [[...]], bias: [...], noise_sigma: 0.4}
    {kind: discrete, matrix: [[...]]}
    {kind: prototype_collapse, prototypes: [[...]], temperature: 4.0,
     jitter_sigma: 0.3, projection: [[...]]}   # projection optional
    {kind: mixture, branch_prob: 0.5, a: {...}, b: {...}}
    {kind: compose, stages: [{...}, {...}]}
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
import yaml

from .channels import (
    BenchmarkWorld,
    ComposedChannel,
    DiscreteChannel,
    LinearGaussianChannel,
    MixtureChannel,
    Port,
    PrototypeCollapseChannel,
    lossy_world_preset,
    PRESET_NAMES,
)
from .datamodel import MODALITY_U, MODALITY_V, ViewSpec, read_dataset
from .models import TrainConfig
from .pipeline import CONDITIONS, PipelineConfig, config_hash


class ConfigError(ValueError):
    pass


CHANNEL_KINDS = ("discrete", "linear_gaussian", "prototype_collapse", "mixture", "compose")

_TOP_KEYS = {
    "seed",
    "out_dir",
    "world",
    "dataset",
    "channels",
    "data",
    "pipeline",
    "ablation",
    "diversity",
}
_PIPELINE_KEYS = {
    "ccg_rounds",
    "initial_views",
    "spawn_per_kept",
    "keep_fraction",
    "policy",
    "train_views",
    "infer_views",
    "infer_generate",
    "teacher",
    "student",
    "shared_attention",
    "teacher_warm_start",
    "infer_full_chain",
    "pca_dim",
    "gmm_components",
}
_TRAIN_KEYS = {"learning_rate", "steps", "batch_size", "weight_decay", "cosine_decay"}


def _require_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: Mapping, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


# --- channel specs -------------------------------------------------------------


def _spec_out(spec: Mapping) -> ViewSpec:
    """Output shape a tagged channel spec implies, for composition chains."""
    kind = spec.get("kind")
    if kind == "discrete":
        return ViewSpec("discrete", len(np.asarray(spec["matrix"], dtype=np.float64)[0]))
    if kind == "linear_gaussian":
        return ViewSpec("vector", len(np.asarray(spec["weight"], dtype=np.float64)))
    if kind == "prototype_collapse":
        return ViewSpec("vector", np.asarray(spec["prototypes"], dtype=np.float64).shape[1])
    if kind == "mixture":
        return _spec_out(_require_mapping(spec["a"], "mixture.a"))
    if kind == "compose":
        stages = spec["stages"]
        if not stages:
            raise ConfigError("compose needs at least one stage")
        return _spec_out(_require_mapping(stages[-1], "compose.stages[-1]"))
    raise ConfigError(f"unknown channel kind {kind!r}; choose one of {CHANNEL_KINDS}")


def channel_from_spec(spec: Mapping, in_port: Port, out_port: Port):
    """Build a channel from its tagged mapping, anchored to the given ports."""
    spec = _require_mapping(spec, "channel spec")
    kind = spec.get("kind")
    try:
        if kind == "discrete":
            _reject_unknown(spec, {"kind", "matrix"}, "discrete channel")
            return DiscreteChannel(spec["matrix"], in_port, out_port)
        if kind == "linear_gaussian":
            _reject_unknown(spec, {"kind", "weight", "bias", "noise_sigma"}, "linear_gaussian channel")
            weight = np.asarray(spec["weight"], dtype=np.float64)
            bias = spec.get("bias")
            if bias is None:
                bias = np.zeros(weight.shape[0])
            return LinearGaussianChannel(weight, bias, float(spec["noise_sigma"]), in_port, out_port)
        if kind == "prototype_collapse":
            _reject_unknown(
                spec,
                {"kind", "prototypes", "temperature", "jitter_sigma", "projection"},
                "prototype_collapse channel",
            )
            projection = spec.get("projection")
            return PrototypeCollapseChannel(
                spec["prototypes"],
                float(spec["temperature"]),
                float(spec["jitter_sigma"]),
                in_port,
                out_port,
                projection=None if projection is None else np.asarray(projection, dtype=np.float64),
            )
        if kind == "mixture":
            _reject_unknown(spec, {"kind", "branch_prob", "a", "b"}, "mixture channel")
            a = channel_from_spec(spec["a"], in_port, out_port)
            b = channel_from_spec(spec["b"], in_port, out_port)
            return MixtureChannel(float(spec["branch_prob"]), a, b)
        if kind == "compose":
            _reject_unknown(spec, {"kind", "stages"}, "compose channel")
            stages_spec = list(spec["stages"])
            if not stages_spec:
                raise ConfigError("compose needs at least one stage")
            stages = []
            cursor = in_port
            for i, stage_spec in enumerate(stages_spec):
                last = i == len(stages_spec) - 1
                stage_out = out_port if last else Port(_spec_out(stage_spec), out_port.modality)
                stages.append(channel_from_spec(stage_spec, cursor, stage_out))
                cursor = stage_out
            return ComposedChannel(stages)
    except KeyError as exc:
        raise ConfigError(f"channel spec {kind!r} missing key {exc.args[0]!r}") from exc
    raise ConfigError(f"unknown channel kind {kind!r}; choose one of {CHANNEL_KINDS}")


# --- worlds --------------------------------------------------------------------


def world_from_custom(custom: Mapping, seed: int) -> tuple[BenchmarkWorld, ViewSpec]:
    custom = _require_mapping(custom, "world.custom")
    _reject_unknown(
        custom,
        {"name", "class_means", "within_class_sigma", "entity_vocab", "entity_pairs_by_class", "v_size"},
        "world.custom",
    )
    try:
        class_means = np.asarray(custom["class_means"], dtype=np.float64)
        pairs = tuple(
            tuple((int(s), int(o)) for s, o in per_class)
            for per_class in custom["entity_pairs_by_class"]
        )
        world = BenchmarkWorld(
            name=str(custom.get("name", "custom")),
            class_count=class_means.shape[0],
            class_means=class_means,
            within_class_sigma=float(custom["within_class_sigma"]),
            entity_vocab=int(custom["entity_vocab"]),
            entity_pairs_by_class=pairs,
            seed=seed,
        )
        v_spec = ViewSpec("vector", int(custom["v_size"]))
    except KeyError as exc:
        raise ConfigError(f"world.custom missing key {exc.args[0]!r}") from exc
    return world, v_spec


# --- the experiment config -----------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    world_preset: str | None
    world_custom: Mapping | None
    dataset_paths: tuple[str, str] | None  # (train, test)
    channel_specs: Mapping | None  # {"u_to_v": ..., "v_to_u": ...}
    train_per_class: int
    test_per_class: int
    none_class: int | None
    pipeline: PipelineConfig
    ablation_seeds: tuple[int, ...]
    ablation_conditions: tuple[str, ...]
    diversity_pca_dims: tuple[int, ...]
    diversity_components: tuple[int, ...]
    digest: str


def _parse_train_config(mapping, where: str, base: TrainConfig) -> TrainConfig:
    if mapping is None:
        return base
    mapping = _require_mapping(mapping, where)
    _reject_unknown(mapping, _TRAIN_KEYS, where)
    fields = {}
    for key in _TRAIN_KEYS:
        if key in mapping:
            fields[key] = mapping[key]
    return replace(base, **fields)


def _parse_pipeline(mapping, seed: int) -> PipelineConfig:
    base = PipelineConfig(seed=seed)
    if mapping is None:
        return base
    mapping = _require_mapping(mapping, "pipeline")
    _reject_unknown(mapping, _PIPELINE_KEYS, "pipeline")
    kwargs: dict = {"seed": seed}
    simple = (
        "ccg_rounds",
        "initial_views",
        "keep_fraction",
        "train_views",
        "infer_views",
        "infer_generate",
        "shared_attention",
        "teacher_warm_start",
        "infer_full_chain",
        "pca_dim",
        "gmm_components",
    )
    for key in simple:
        if key in mapping:
            kwargs[key] = mapping[key]
    if "policy" in mapping:
        kwargs["policy_name"] = str(mapping["policy"])
    if "spawn_per_kept" in mapping:
        kwargs["spawn_per_kept"] = tuple(int(g) for g in mapping["spawn_per_kept"])
    elif "ccg_rounds" in mapping:
        rounds = int(mapping["ccg_rounds"])
        default = PipelineConfig.__dataclass_fields__["spawn_per_kept"].default
        kwargs["spawn_per_kept"] = default if rounds == len(default) else tuple([1] * rounds)
    kwargs["teacher"] = _parse_train_config(mapping.get("teacher"), "pipeline.teacher", base.teacher)
    kwargs["student"] = _parse_train_config(mapping.get("student"), "pipeline.student", base.student)
    try:
        return PipelineConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(mapping, source: str = "<config>") -> ExperimentConfig:
    mapping = _require_mapping(mapping, source)
    _reject_unknown(mapping, _TOP_KEYS, source)

    if "seed" not in mapping or mapping["seed"] is None:
        raise ConfigError("seed required: set a top-level integer 'seed'")
    seed = mapping["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    world = mapping.get("world")
    dataset = mapping.get("dataset")
    if (world is None) == (dataset is None):
        raise ConfigError("exactly one of 'world' and 'dataset' must be given")

    preset = None
    custom = None
    if world is not None:
        world = _require_mapping(world, "world")
        _reject_unknown(world, {"preset", "custom"}, "world")
        preset = world.get("preset")
        custom = world.get("custom")
        if (preset is None) == (custom is None):
            raise ConfigError("world needs exactly one of 'preset' and 'custom'")
        if preset is not None and preset not in PRESET_NAMES:
            raise ConfigError(f"unknown world preset {preset!r}; choose one of {PRESET_NAMES}")

    dataset_paths = None
    if dataset is not None:
        dataset = _require_mapping(dataset, "dataset")
        _reject_unknown(dataset, {"train", "test"}, "dataset")
        if "train" not in dataset or "test" not in dataset:
            raise ConfigError("dataset needs both 'train' and 'test' paths")
        dataset_paths = (str(dataset["train"]), str(dataset["test"]))

    channels = mapping.get("channels")
    if channels is not None:
        channels = _require_mapping(channels, "channels")
        _reject_unknown(channels, {"u_to_v", "v_to_u"}, "channels")
        if "u_to_v" not in channels or "v_to_u" not in channels:
            raise ConfigError("channels needs both 'u_to_v' and 'v_to_u'")
    if preset is None and channels is None:
        raise ConfigError("custom worlds and dataset files need a 'channels' section")

    data = _require_mapping(mapping.get("data", {}), "data")
    _reject_unknown(data, {"train_per_class", "test_per_class", "none_class"}, "data")

    ablation = _require_mapping(mapping.get("ablation", {}), "ablation")
    _reject_unknown(ablation, {"seeds", "conditions"}, "ablation")
    conditions = tuple(str(c) for c in ablation.get("conditions", CONDITIONS))
    bad = [c for c in conditions if c not in CONDITIONS]
    if bad:
        raise ConfigError(
            f"unknown ablation conditions {bad}; valid names: {', '.join(CONDITIONS)}"
        )
    seeds = tuple(int(s) for s in ablation.get("seeds", range(10)))
    if not seeds:
        raise ConfigError("ablation.seeds must not be empty")

    diversity = _require_mapping(mapping.get("diversity", {}), "diversity")
    _reject_unknown(diversity, {"pca_dims", "components"}, "diversity")
    pca_dims = tuple(int(d) for d in diversity.get("pca_dims", (2, 4)))
    components = tuple(int(n) for n in diversity.get("components", (3,)))
    if any(d < 1 for d in pca_dims) or any(n < 1 for n in components):
        raise ConfigError("diversity grid entries must be positive")

    pipeline = _parse_pipeline(mapping.get("pipeline"), seed)
    canonical = _canonical(mapping)
    canonical.pop("out_dir", None)  # where results are written is not what they are
    digest = config_hash(canonical)

    return ExperimentConfig(
        seed=seed,
        out_dir=str(mapping.get("out_dir", ".")),
        world_preset=preset,
        world_custom=custom,
        dataset_paths=dataset_paths,
        channel_specs=channels,
        train_per_class=int(data.get("train_per_class", 35)),
        test_per_class=int(data.get("test_per_class", 75)),
        none_class=data.get("none_class"),
        pipeline=pipeline,
        ablation_seeds=seeds,
        ablation_conditions=conditions,
        diversity_pca_dims=pca_dims,
        diversity_components=components,
        digest=digest,
    )


def _canonical(value):
    """Plain JSON-able copy of a YAML tree, for stable hashing."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigError(f"config values must be plain scalars/lists/maps, got {type(value).__name__}")


def read_config_mapping(path) -> dict:
    """Load the raw YAML tree (empty file allowed, non-mapping rejected)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            mapping = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if mapping is None:
        mapping = {}
    return dict(_require_mapping(mapping, str(path)))


def merge_overrides(mapping: Mapping, overrides: Mapping | None) -> dict:
    """Overlay CLI flag values; the 'pipeline' key merges one level deep so a
    single scalar override keeps the rest of the section."""
    merged = dict(mapping)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "pipeline":
            section = dict(_require_mapping(merged.get("pipeline") or {}, "pipeline"))
            section.update(value)
            merged["pipeline"] = section
        else:
            merged[key] = value
    return merged


def load_config(path, overrides: Mapping | None = None) -> ExperimentConfig:
    """Parse a YAML config file, applying overrides (e.g. CLI flags) before
    validation so the digest covers the effective settings."""
    mapping = merge_overrides(read_config_mapping(path), overrides)
    return parse_config(mapping, source=str(path))


# --- materializing experiments ---------------------------------------------------


def build_world(config: ExperimentConfig, seed: int | None = None):
    """Return ``(world, g_u_to_v, g_v_to_u, v_spec)`` for a world-backed config.

    ``seed`` reseeds the world (ablations regenerate data per seed); channel
    overrides from the config replace the preset's channels.
    """
    if config.world_preset is None and config.world_custom is None:
        raise ConfigError("config uses dataset files; there is no world to build")
    world_seed = config.seed if seed is None else seed
    if config.world_preset is not None:
        world, g_uv, g_vu = lossy_world_preset(config.world_preset, seed=world_seed)
        v_spec = g_uv.out_port.spec
    else:
        world, v_spec = world_from_custom(config.world_custom, world_seed)
        g_uv = g_vu = None
    if config.channel_specs is not None:
        u_port = Port(ViewSpec("vector", world.u_dim), MODALITY_U)
        v_port = Port(v_spec, MODALITY_V)
        g_uv = channel_from_spec(config.channel_specs["u_to_v"], u_port, v_port)
        g_vu = channel_from_spec(config.channel_specs["v_to_u"], v_port, u_port)
    if g_uv is None or g_vu is None:
        raise ConfigError("custom worlds need a 'channels' section")
    return world, g_uv, g_vu, v_spec


def load_experiment_data(config: ExperimentConfig):
    """Return ``(train_instances, test_instances, schema, g_u_to_v, g_v_to_u)``."""
    from .channels import generate_benchmark

    if config.dataset_paths is not None:
        train_instances, schema = read_dataset(config.dataset_paths[0])
        test_instances, test_schema = read_dataset(config.dataset_paths[1])
        if test_schema != schema:
            raise ConfigError("train and test datasets disagree on their schema")
        u_port = Port(schema.u_spec, MODALITY_U)
        v_port = Port(schema.v_spec, MODALITY_V)
        g_uv = channel_from_spec(config.channel_specs["u_to_v"], u_port, v_port)
        g_vu = channel_from_spec(config.channel_specs["v_to_u"], v_port, u_port)
        return train_instances, test_instances, schema, g_uv, g_vu

    world, g_uv, g_vu, v_spec = build_world(config)
    train_instances, schema = generate_benchmark(
        world, config.train_per_class, v_spec, stream="train", none_class=config.none_class
    )
    test_instances, _ = generate_benchmark(
        world, config.test_per_class, v_spec, stream="test", none_class=config.none_class
    )
    return train_instances, test_instances, schema, g_uv, g_vu

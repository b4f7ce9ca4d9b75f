"""Declarative experiment configs.

One YAML file describes a whole experiment: where the data comes from (a
named world preset, a custom world, or dataset files), the channel pair, the
pipeline knobs, and the ablation/diversity grids. :func:`parse_config` checks
all of it once: it builds the world and the channel pair, so every command
holds the same checked objects and refuses the same configs. Flags may
override scalar keys before parsing, so the recorded config digest always
reflects what actually ran. ``yaml`` is imported only to read a file
(:func:`read_config_mapping`), so importing the package does not load it.

Channel specs are tagged mappings::

    {kind: linear_gaussian, weight: [[...]], bias: [...], noise_sigma: 0.4}
    {kind: discrete, matrix: [[...]]}
    {kind: prototype_collapse, prototypes: [[...]], temperature: 4.0,
     jitter_sigma: 0.3, projection: [[...]]}   # projection optional
    {kind: mixture, branch_prob: 0.5, a: {...}, b: {...}}
    {kind: compose, stages: [{...}, {...}]}
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np

from .channels import (
    BenchmarkWorld,
    ChannelError,
    ComposedChannel,
    DiscreteChannel,
    LinearGaussianChannel,
    MixtureChannel,
    PrototypeCollapseChannel,
    generate_benchmark,
    lossy_world_preset,
    PRESET_NAMES,
)
from .datamodel import MODALITY_U, MODALITY_V, ViewSpec, check_int, is_real, read_dataset
from .models import TrainConfig
from .pipeline import CONDITIONS, INERT_FIELDS, PipelineConfig, config_hash


class ConfigError(ValueError):
    pass


# ``chainviews diversity``'s PCA widths when the config has no diversity.pca_dims
DEFAULT_PCA_DIMS = (2, 4)

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
# the YAML spells policy_name "policy"; the seed is top-level
_PIPELINE_KEYS = {f.name for f in fields(PipelineConfig)} - {"seed", "policy_name", *INERT_FIELDS} | {"policy"}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def _require_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: Mapping, allowed: set[str], where: str) -> None:
    unknown = sorted(map(str, set(mapping) - allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _ints(value, where: str, low: int) -> tuple[int, ...]:
    """A YAML list of integers of at least ``low`` (0 or 1)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of integers, got {value!r}")
    return tuple(check_int(f"{where} entries", v, low, ConfigError) for v in value)


def _named_once(values, where: str, what: str) -> None:
    """Refuse a list that names a value more than once, naming the repeats."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{where} names {', '.join(map(str, repeated))} more than once; name each {what} once")


def _array(spec: Mapping, key: str, where: str, ndim: int) -> np.ndarray:
    """``spec[key]``, a non-empty ``ndim``-deep list of finite numbers, as floats."""
    value = spec[key]
    cells = np.array(value, dtype=object) if isinstance(value, (list, tuple)) else np.empty(0)
    if cells.ndim != ndim or not cells.size or not all(map(is_real, cells.flat)):  # a ragged list has too few dims
        raise ConfigError(f"{where}.{key} must be a {ndim}-d list of finite numbers, got {value!r}")
    return cells.astype(np.float64)


# --- channel specs -------------------------------------------------------------


def channel_from_spec(spec: Mapping, in_modality: str, out_modality: str, where: str = "channel"):
    """Build a channel from its tagged mapping, reading the ``in_modality``
    side and emitting the ``out_modality`` side; its arrays fix its port
    sizes. Errors name the spec's keys under ``where`` (e.g. ``channels.u_to_v``)."""
    spec = _require_mapping(spec, where)
    kind = spec.get("kind")
    try:
        if kind == "discrete":
            _reject_unknown(spec, {"kind", "matrix"}, where)
            return DiscreteChannel(_array(spec, "matrix", where, 2), in_modality, out_modality)
        if kind == "linear_gaussian":
            _reject_unknown(spec, {"kind", "weight", "bias", "noise_sigma"}, where)
            weight = _array(spec, "weight", where, 2)
            bias = np.zeros(weight.shape[0]) if spec.get("bias") is None else _array(spec, "bias", where, 1)
            return LinearGaussianChannel(weight, bias, spec["noise_sigma"], in_modality, out_modality)
        if kind == "prototype_collapse":
            _reject_unknown(spec, {"kind", "prototypes", "temperature", "jitter_sigma", "projection"}, where)
            projection = spec.get("projection")
            return PrototypeCollapseChannel(
                _array(spec, "prototypes", where, 2),
                spec["temperature"],
                spec["jitter_sigma"],
                in_modality,
                out_modality,
                projection=None if projection is None else _array(spec, "projection", where, 2),
            )
        if kind == "mixture":
            _reject_unknown(spec, {"kind", "branch_prob", "a", "b"}, where)
            a = channel_from_spec(spec["a"], in_modality, out_modality, f"{where}.a")
            b = channel_from_spec(spec["b"], in_modality, out_modality, f"{where}.b")
            return MixtureChannel(spec["branch_prob"], a, b)
        if kind == "compose":
            _reject_unknown(spec, {"kind", "stages"}, where)
            stages = spec["stages"]
            if not isinstance(stages, list) or not stages:
                raise ConfigError(f"{where}.stages: compose needs a list of at least one stage, got {stages!r}")
            # the first stage reads the source side and every stage emits the
            # target side; ComposedChannel checks that adjacent stages fit
            return ComposedChannel(
                [
                    channel_from_spec(stage, out_modality if i else in_modality, out_modality, f"{where}.stages[{i}]")
                    for i, stage in enumerate(stages)
                ]
            )
    except KeyError as exc:
        raise ConfigError(f"{where} ({kind}) missing key {exc.args[0]!r}") from exc
    except ChannelError as exc:
        raise ConfigError(f"{where} ({kind}): {exc}") from exc
    raise ConfigError(f"{where}: unknown channel kind {kind!r}; choose one of {CHANNEL_KINDS}")


def _check_sides(channels, u_spec: ViewSpec, v_spec: ViewSpec) -> None:
    """Refuse a ``(u_to_v, v_to_u)`` pair that does not fit the data's sides."""
    for name, channel, sides in zip(("u_to_v", "v_to_u"), channels, ((u_spec, v_spec), (v_spec, u_spec))):
        for verb, port, want in zip(("reads", "emits"), (channel.in_port, channel.out_port), sides):
            if port.spec != want:
                raise ConfigError(
                    f"channels.{name} {verb} {port.spec.kind} views of size {port.spec.size}, "
                    f"but the data's {port.modality} side has {want.kind} views of size {want.size}"
                )


# --- worlds --------------------------------------------------------------------


def world_from_custom(custom: Mapping, seed: int) -> BenchmarkWorld:
    where = "world.custom"
    custom = _require_mapping(custom, where)
    _reject_unknown(custom, {"class_means", "within_class_sigma", "entity_vocab", "entity_pairs_by_class"}, where)
    try:
        class_means = _array(custom, "class_means", where, 2)
        pairs = custom["entity_pairs_by_class"]
        if not isinstance(pairs, list) or not all(
            isinstance(per, list) and all(isinstance(p, list) and len(p) == 2 for p in per) for per in pairs
        ):
            raise ConfigError(
                f"{where}.entity_pairs_by_class must list [subject, object] pairs per class, got {pairs!r}"
            )
        pairs = tuple(tuple(_ints(pair, f"{where}.entity_pairs_by_class", 0) for pair in per) for per in pairs)
        return BenchmarkWorld(
            class_means=class_means,
            within_class_sigma=custom["within_class_sigma"],
            entity_vocab=custom["entity_vocab"],
            entity_pairs_by_class=pairs,
            seed=seed,
        )
    except KeyError as exc:
        raise ConfigError(f"{where} missing key {exc.args[0]!r}") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # BenchmarkWorld's checks name the key
        raise ConfigError(f"{where}: {exc}") from exc


# --- the experiment config -----------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    world: BenchmarkWorld | None  # at ``seed``; None for dataset files
    dataset_paths: tuple[str, str] | None  # (train, test)
    channels: tuple  # (u_to_v, v_to_u)
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
    try:
        return replace(base, **mapping)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_pipeline(mapping, seed: int) -> PipelineConfig:
    base = PipelineConfig(seed=seed)
    if mapping is None:
        return base
    mapping = _require_mapping(mapping, "pipeline")
    _reject_unknown(mapping, _PIPELINE_KEYS, "pipeline")
    kwargs: dict = {k: v for k, v in mapping.items() if k not in ("policy", "spawn_per_kept", "teacher", "student")}
    kwargs["seed"] = seed
    if "policy" in mapping:
        kwargs["policy_name"] = str(mapping["policy"])
    if "spawn_per_kept" in mapping:
        kwargs["spawn_per_kept"] = _ints(mapping["spawn_per_kept"], "pipeline.spawn_per_kept", 0)
    elif "ccg_rounds" in mapping:
        rounds = check_int("pipeline.ccg_rounds", mapping["ccg_rounds"], 0, ConfigError)
        default = PipelineConfig.__dataclass_fields__["spawn_per_kept"].default
        kwargs["spawn_per_kept"] = default if rounds == len(default) else tuple([1] * rounds)
    kwargs["teacher"] = _parse_train_config(mapping.get("teacher"), "pipeline.teacher", base.teacher)
    kwargs["student"] = _parse_train_config(mapping.get("student"), "pipeline.student", base.student)
    try:
        return PipelineConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"pipeline: {exc}") from exc


def parse_config(mapping, source: str = "<config>") -> ExperimentConfig:
    mapping = _require_mapping(mapping, source)
    _reject_unknown(mapping, _TOP_KEYS, source)

    if "seed" not in mapping or mapping["seed"] is None:
        raise ConfigError("seed required: set a top-level integer 'seed'")
    seed = check_int("seed", mapping["seed"], 0, ConfigError)

    world, dataset = mapping.get("world"), mapping.get("dataset")
    if (world is None) == (dataset is None):
        raise ConfigError("exactly one of 'world' and 'dataset' must be given")

    preset = custom = None
    if world is not None:  # the mapping here; the built world below
        _reject_unknown(_require_mapping(world, "world"), {"preset", "custom"}, "world")
        preset, custom = world.get("preset"), world.get("custom")
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

    if dataset is not None and "data" in mapping:
        raise ConfigError("dataset files carry their own schema and sizes; drop the 'data' section")
    data = _require_mapping(mapping.get("data", {}), "data")
    _reject_unknown(data, {"train_per_class", "test_per_class", "none_class"}, "data")
    train_per_class = check_int("data.train_per_class", data.get("train_per_class", 35), 1, ConfigError)
    test_per_class = check_int("data.test_per_class", data.get("test_per_class", 75), 1, ConfigError)
    none_class = data.get("none_class")
    none_class = None if none_class is None else check_int("data.none_class", none_class, 0, ConfigError)

    ablation = _require_mapping(mapping.get("ablation", {}), "ablation")
    _reject_unknown(ablation, {"seeds", "conditions"}, "ablation")
    conditions = ablation.get("conditions", CONDITIONS)
    if not isinstance(conditions, (list, tuple)) or not conditions:
        raise ConfigError(f"ablation.conditions needs a non-empty list of condition names, got {conditions!r}")
    bad = [c for c in conditions if c not in CONDITIONS]
    if bad:
        raise ConfigError(
            f"unknown ablation conditions {bad}; valid names: {', '.join(CONDITIONS)}"
        )
    _named_once(conditions, "ablation.conditions", "condition")
    seeds = _ints(ablation.get("seeds", list(range(10))), "ablation.seeds", 0)
    if not seeds:
        raise ConfigError("ablation.seeds must not be empty")
    _named_once(seeds, "ablation.seeds", "seed")

    diversity = _require_mapping(mapping.get("diversity", {}), "diversity")
    _reject_unknown(diversity, {"pca_dims", "components"}, "diversity")
    pca_dims = _ints(diversity.get("pca_dims", DEFAULT_PCA_DIMS), "diversity.pca_dims", 1)
    components = _ints(diversity.get("components", (3,)), "diversity.components", 1)

    pipeline = _parse_pipeline(mapping.get("pipeline"), seed)
    canonical = _canonical(mapping)
    canonical.pop("out_dir", None)  # where results are written is not what they are
    digest = config_hash(canonical)

    # the contents, once the structure holds: a preset's channels give way to
    # a channels section, and dataset files are checked when they are read
    if preset is not None:
        world, g_uv, g_vu = lossy_world_preset(preset, seed=seed)
    elif custom is not None:
        world = world_from_custom(custom, seed)
    if channels is not None:
        g_uv = channel_from_spec(channels["u_to_v"], MODALITY_U, MODALITY_V, "channels.u_to_v")
        g_vu = channel_from_spec(channels["v_to_u"], MODALITY_V, MODALITY_U, "channels.v_to_u")
    if world is not None:
        _check_sides((g_uv, g_vu), ViewSpec("vector", world.u_dim), g_uv.out_port.spec)
        if none_class is not None and none_class >= world.class_count:
            raise ConfigError(f"data.none_class {none_class} is not one of the world's {world.class_count} classes")

    return ExperimentConfig(
        seed=seed,
        out_dir=str(mapping.get("out_dir", ".")),
        world=world,
        dataset_paths=dataset_paths,
        channels=(g_uv, g_vu),
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        none_class=none_class,
        pipeline=pipeline,
        ablation_seeds=seeds,
        ablation_conditions=tuple(conditions),
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
    import yaml  # here only: importing chainviews never loads it

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
    """Overlay CLI flag values on a copy of ``mapping``; a None value is skipped."""
    return {**mapping, **{key: value for key, value in (overrides or {}).items() if value is not None}}


# --- materializing experiments ---------------------------------------------------


def read_dataset_file(path):
    """``read_dataset(path)``; a path it cannot open is a ConfigError naming it."""
    try:
        return read_dataset(path)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc


def load_experiment_data(config: ExperimentConfig, seed: int | None = None):
    """Return ``(train_instances, test_instances, schema, g_u_to_v, g_v_to_u)``
    from the config's world, reseeded by ``seed`` if given, or from its
    dataset files. A file that holds no instances, or whose schema the other
    file or the channels do not fit, is a ConfigError."""
    g_uv, g_vu = config.channels
    if config.world is None:
        train_instances, schema = read_dataset_file(config.dataset_paths[0])
        test_instances, test_schema = read_dataset_file(config.dataset_paths[1])
        for path, instances in zip(config.dataset_paths, (train_instances, test_instances)):
            if not instances:
                raise ConfigError(f"dataset {path} holds no instances")
        if test_schema != schema:
            raise ConfigError("train and test datasets disagree on their schema")
        _check_sides(config.channels, schema.u_spec, schema.v_spec)
        return train_instances, test_instances, schema, g_uv, g_vu

    # a world's means and channels do not depend on its seed
    world = config.world if seed is None else replace(config.world, seed=seed)
    v_spec = g_uv.out_port.spec
    train_instances, schema = generate_benchmark(
        world, config.train_per_class, v_spec, stream="train", none_class=config.none_class
    )
    test_instances, _ = generate_benchmark(
        world, config.test_per_class, v_spec, stream="test", none_class=config.none_class
    )
    return train_instances, test_instances, schema, g_uv, g_vu

"""Stochastic cross-modal channels and benchmark worlds.

A channel is a sampler for Q(out | in) between the two modalities. The
library ships four families:

* :class:`DiscreteChannel` -- per-symbol categorical noise, one row-stochastic
  matrix applied independently at every sequence position.
* :class:`LinearGaussianChannel` -- ``y = W x + b + sigma * eps``.
* :class:`PrototypeCollapseChannel` -- mode-collapse model: the input is
  softly snapped to one of a few fixed prototypes (softmax over negative
  squared distance), then isotropic jitter is added. This deliberately
  destroys label information whenever a prototype attracts several classes.
* :class:`MixtureChannel` / :class:`ComposedChannel` -- combinators.

Channels declare typed ports, so composing mismatched stages or feeding a
view from the wrong side fails loudly instead of silently reinterpreting
data. All sampling goes through an explicit Generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datamodel import (
    MODALITY_U,
    MODALITY_V,
    DatasetSchema,
    EntityPair,
    Instance,
    Label,
    View,
    ViewSpec,
    discrete_view,
    vector_view,
)
from .rng import derive_rng

_ATOL = 1e-12


class ChannelError(ValueError):
    """Port mismatch or malformed channel parameters."""


@dataclass(frozen=True)
class Port:
    """Typed endpoint of a channel: shape contract plus modality."""

    spec: ViewSpec
    modality: str

    def __post_init__(self):
        if self.modality not in (MODALITY_U, MODALITY_V):
            raise ChannelError(f"unknown modality {self.modality!r}")

    def accepts(self, view: View) -> bool:
        return view.modality == self.modality and view.matches(self.spec)

    def make_view(self, data) -> View:
        if self.spec.kind == "vector":
            return vector_view(data, self.modality)
        return discrete_view(data, self.modality)


def _check_input(channel, view: View) -> None:
    if not channel.in_port.accepts(view):
        raise ChannelError(
            f"{type(channel).__name__} expects a {channel.in_port.modality!r}-side "
            f"{channel.in_port.spec.kind} view of size {channel.in_port.spec.size}, "
            f"got a {view.modality!r}-side {view.kind} view of length {view.data.shape[0]}"
        )


class DiscreteChannel:
    """Symbol-wise categorical channel given by a row-stochastic matrix."""

    def __init__(self, matrix, in_port: Port, out_port: Port):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ChannelError("transition matrix must be 2-d")
        if np.any(matrix < 0) or not np.allclose(matrix.sum(axis=1), 1.0, atol=_ATOL):
            raise ChannelError("transition matrix rows must be non-negative and sum to 1")
        if in_port.spec.kind != "discrete" or out_port.spec.kind != "discrete":
            raise ChannelError("discrete channel needs discrete ports")
        if matrix.shape != (in_port.spec.size, out_port.spec.size):
            raise ChannelError(
                f"matrix shape {matrix.shape} does not match ports "
                f"({in_port.spec.size}, {out_port.spec.size})"
            )
        self.matrix = matrix
        self.in_port = in_port
        self.out_port = out_port
        self._cumulative = np.cumsum(matrix, axis=1)

    def sample(self, view: View, rng: np.random.Generator) -> View:
        _check_input(self, view)
        draws = rng.random(view.data.shape[0])
        rows = self._cumulative[view.data]
        # inverse-CDF per position: the count of cumsum entries <= the draw,
        # which is searchsorted(row, draw, side="right") on each sorted row
        symbols = (rows <= draws[:, None]).sum(axis=1)
        symbols = np.minimum(symbols, self.out_port.spec.size - 1)
        return self.out_port.make_view(symbols)


class LinearGaussianChannel:
    """``y = W x + b + noise_sigma * eps`` with standard normal ``eps``."""

    def __init__(self, weight, bias, noise_sigma: float, in_port: Port, out_port: Port):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if in_port.spec.kind != "vector" or out_port.spec.kind != "vector":
            raise ChannelError("linear-Gaussian channel needs vector ports")
        if weight.shape != (out_port.spec.size, in_port.spec.size):
            raise ChannelError(
                f"weight shape {weight.shape} does not match ports "
                f"({out_port.spec.size}, {in_port.spec.size})"
            )
        if bias.shape != (out_port.spec.size,):
            raise ChannelError("bias shape does not match the output port")
        if noise_sigma <= 0:
            raise ChannelError("noise_sigma must be positive")
        self.weight = weight
        self.bias = bias
        self.noise_sigma = float(noise_sigma)
        self.in_port = in_port
        self.out_port = out_port

    def sample(self, view: View, rng: np.random.Generator) -> View:
        _check_input(self, view)
        mean = self.weight @ view.data + self.bias
        out = mean + self.noise_sigma * rng.standard_normal(mean.shape[0])
        return self.out_port.make_view(out)


class PrototypeCollapseChannel:
    """Mode-collapse channel: snap to a prototype, add isotropic jitter.

    The prototype is drawn with probability proportional to
    ``exp(-||P x - p_j||^2 / temperature)`` where ``P`` is an optional input
    projection (identity when omitted). Low temperature means hard snapping.
    """

    def __init__(
        self,
        prototypes,
        temperature: float,
        jitter_sigma: float,
        in_port: Port,
        out_port: Port,
        projection=None,
    ):
        prototypes = np.asarray(prototypes, dtype=np.float64)
        if in_port.spec.kind != "vector" or out_port.spec.kind != "vector":
            raise ChannelError("prototype channel needs vector ports")
        if prototypes.ndim != 2 or prototypes.shape[1] != out_port.spec.size:
            raise ChannelError("prototypes must be (k, out_size)")
        if temperature <= 0:
            raise ChannelError("temperature must be positive")
        if jitter_sigma < 0:
            raise ChannelError("jitter_sigma must be non-negative")
        if projection is None:
            if in_port.spec.size != out_port.spec.size:
                raise ChannelError("projection required when port sizes differ")
            self.projection = None
        else:
            projection = np.asarray(projection, dtype=np.float64)
            if projection.shape != (out_port.spec.size, in_port.spec.size):
                raise ChannelError("projection shape does not match ports")
            self.projection = projection
        self.prototypes = prototypes
        self.temperature = float(temperature)
        self.jitter_sigma = float(jitter_sigma)
        self.in_port = in_port
        self.out_port = out_port

    def snap_probabilities(self, view: View) -> np.ndarray:
        _check_input(self, view)
        z = view.data if self.projection is None else self.projection @ view.data
        sq_dist = np.sum((self.prototypes - z) ** 2, axis=1)
        logits = -sq_dist / self.temperature
        logits -= logits.max()
        p = np.exp(logits)
        return p / p.sum()

    def sample(self, view: View, rng: np.random.Generator) -> View:
        p = self.snap_probabilities(view)
        j = int(rng.choice(len(p), p=p))
        out = self.prototypes[j] + self.jitter_sigma * rng.standard_normal(self.out_port.spec.size)
        return self.out_port.make_view(out)


class MixtureChannel:
    """With probability ``branch_prob`` sample branch ``a``, else ``b``."""

    def __init__(self, branch_prob: float, a, b):
        if not (0.0 <= branch_prob <= 1.0):
            raise ChannelError("branch_prob must be in [0, 1]")
        if a.in_port != b.in_port or a.out_port != b.out_port:
            raise ChannelError("mixture branches must share ports")
        self.branch_prob = float(branch_prob)
        self.a = a
        self.b = b
        self.in_port = a.in_port
        self.out_port = a.out_port

    def sample(self, view: View, rng: np.random.Generator) -> View:
        take_a = rng.random() < self.branch_prob
        branch = self.a if take_a else self.b
        return branch.sample(view, rng)


class ComposedChannel:
    """Stages applied in order; adjacent ports must match exactly."""

    def __init__(self, stages: Sequence):
        stages = list(stages)
        if not stages:
            raise ChannelError("empty composition")
        for left, right in zip(stages, stages[1:]):
            if left.out_port != right.in_port:
                raise ChannelError(
                    f"cannot compose: {type(left).__name__} emits "
                    f"{left.out_port} but {type(right).__name__} expects {right.in_port}"
                )
        self.stages = stages
        self.in_port = stages[0].in_port
        self.out_port = stages[-1].out_port

    def sample(self, view: View, rng: np.random.Generator) -> View:
        for stage in self.stages:
            view = stage.sample(view, rng)
        return view


def compose(channels: Sequence) -> ComposedChannel:
    return ComposedChannel(channels)


def sample_channel(channel, view: View, rng: np.random.Generator) -> View:
    """Draw one output view; input must match the channel's input port."""
    return channel.sample(view, rng)


# --- benchmark worlds -------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkWorld:
    """Ground-truth P(U | Y): Gaussian class clusters plus an entity map.

    ``entity_pairs_by_class[y]`` lists the (subject, object) pairs an
    instance of class ``y`` may carry. Pairs shared between classes keep the
    entities from giving the label away on their own.
    """

    name: str
    class_count: int
    class_means: np.ndarray  # (C, d_u)
    within_class_sigma: float
    entity_vocab: int
    entity_pairs_by_class: tuple[tuple[tuple[int, int], ...], ...]
    seed: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        object.__setattr__(self, "class_means", means)
        if means.shape[0] != self.class_count:
            raise ValueError("need one mean per class")
        for i in range(means.shape[0]):
            for j in range(i + 1, means.shape[0]):
                if np.array_equal(means[i], means[j]):
                    raise ValueError(f"classes {i} and {j} share a mean; means must be distinct")
        if self.within_class_sigma <= 0:
            raise ValueError("within_class_sigma must be positive")
        if len(self.entity_pairs_by_class) != self.class_count:
            raise ValueError("need entity pairs for every class")
        for pairs in self.entity_pairs_by_class:
            if not pairs:
                raise ValueError("every class needs at least one entity pair")
            for s, o in pairs:
                if not (0 <= s < self.entity_vocab and 0 <= o < self.entity_vocab):
                    raise ValueError("entity pair outside vocabulary")

    @property
    def u_dim(self) -> int:
        return self.class_means.shape[1]


def generate_benchmark(
    world: BenchmarkWorld,
    n_per_class: int,
    v_spec: ViewSpec,
    stream: str = "train",
    none_class: int | None = None,
) -> tuple[list[Instance], DatasetSchema]:
    """Sample a balanced labeled dataset of real views from the world.

    ``stream`` namespaces the random draws so train/test splits are disjoint
    by construction. Instances arrive ordered by (class, index) with ids
    0..N-1, so regeneration with the same arguments is exact.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    schema = DatasetSchema(
        class_count=world.class_count,
        entity_vocab=world.entity_vocab,
        u_spec=ViewSpec("vector", world.u_dim),
        v_spec=v_spec,
        none_class=none_class,
    )
    instances = []
    next_id = 0
    for y in range(world.class_count):
        pairs = world.entity_pairs_by_class[y]
        for i in range(n_per_class):
            rng = derive_rng(world.seed, "world", stream, y, i)
            u = world.class_means[y] + world.within_class_sigma * rng.standard_normal(world.u_dim)
            subject, obj = pairs[int(rng.integers(len(pairs)))]
            instances.append(
                Instance(
                    id=next_id,
                    label=Label(y),
                    entities=EntityPair(subject=subject, object=obj),
                    real_view=vector_view(u, MODALITY_U),
                )
            )
            next_id += 1
    return instances, schema


# --- presets ---------------------------------------------------------------

PRESET_NAMES = ("clean", "noisy", "collapse-heavy")

# Entity layout shared by the presets: 8 entities, each pair claimed by two
# adjacent classes, so the pair alone carries exactly one of the two label bits.
_PRESET_PAIRS = (
    ((0, 1), (6, 7)),
    ((0, 1), (2, 3)),
    ((2, 3), (4, 5)),
    ((4, 5), (6, 7)),
)


def _vec_port(size: int, modality: str) -> Port:
    return Port(ViewSpec("vector", size), modality)


def _clean_preset(seed: int):
    d = 2
    means = 4.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    world = BenchmarkWorld(
        name="clean",
        class_count=4,
        class_means=means,
        within_class_sigma=1.0,
        entity_vocab=8,
        entity_pairs_by_class=_PRESET_PAIRS,
        seed=seed,
    )
    eye = np.eye(d)
    zero = np.zeros(d)
    g_uv = LinearGaussianChannel(eye, zero, 0.4, _vec_port(d, MODALITY_U), _vec_port(d, MODALITY_V))
    g_vu = LinearGaussianChannel(eye, zero, 0.4, _vec_port(d, MODALITY_V), _vec_port(d, MODALITY_U))
    return world, g_uv, g_vu


def _noisy_preset(seed: int):
    d = 4
    means = 3.0 * np.eye(4)
    world = BenchmarkWorld(
        name="noisy",
        class_count=4,
        class_means=means,
        within_class_sigma=1.0,
        entity_vocab=8,
        entity_pairs_by_class=_PRESET_PAIRS,
        seed=seed,
    )
    eye = np.eye(d)
    zero = np.zeros(d)
    g_uv = LinearGaussianChannel(eye, zero, 0.8, _vec_port(d, MODALITY_U), _vec_port(d, MODALITY_V))
    g_vu = LinearGaussianChannel(eye, zero, 0.8, _vec_port(d, MODALITY_V), _vec_port(d, MODALITY_U))
    return world, g_uv, g_vu


def _collapse_heavy_preset(seed: int):
    # Real views live in 32-d with 28 pure-noise coordinates, so a model fed
    # only real views must find the informative subspace from few samples.
    # The faithful channel branch projects onto that subspace with modest
    # noise; the collapse branch snaps to prototypes shared across classes.
    d_u, d_v = 32, 4
    means = np.zeros((4, d_u))
    means[:, :4] = 3.0 * np.eye(4)
    world = BenchmarkWorld(
        name="collapse-heavy",
        class_count=4,
        class_means=means,
        within_class_sigma=1.5,
        entity_vocab=8,
        entity_pairs_by_class=_PRESET_PAIRS,
        seed=seed,
    )
    proj = np.zeros((d_v, d_u))
    proj[:, :4] = np.eye(4)
    u_port, v_port = _vec_port(d_u, MODALITY_U), _vec_port(d_v, MODALITY_V)
    faithful = LinearGaussianChannel(proj, np.zeros(d_v), 0.35, u_port, v_port)
    # both prototypes are equidistant from every class-mean projection, so a
    # collapsed view carries no label information at all
    prototypes = 2.2 * np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
    collapse = PrototypeCollapseChannel(
        prototypes,
        temperature=8.0,
        jitter_sigma=0.4,
        in_port=u_port,
        out_port=v_port,
        projection=proj,
    )
    g_uv = MixtureChannel(0.55, collapse, faithful)
    g_vu = LinearGaussianChannel(proj.T, np.zeros(d_u), 0.35, v_port, u_port)
    return world, g_uv, g_vu


_PRESETS = {
    "clean": _clean_preset,
    "noisy": _noisy_preset,
    "collapse-heavy": _collapse_heavy_preset,
}


def lossy_world_preset(name: str, seed: int = 0):
    """Return ``(world, g_u_to_v, g_v_to_u)`` for a named preset."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ChannelError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    return builder(seed)

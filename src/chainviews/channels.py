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

Every channel samples a batch: ``sample(X, rng)`` maps the stacked input
rows ``X`` (``(B, d_in)`` vectors or ``(B, L)`` symbol sequences) to ``B``
output rows; a batch of one is just a batch. ``rng`` is a Generator, or a
:class:`Streams` that splits the rows into contiguous segments with one
Generator each: every segment then draws exactly what sampling its rows
alone on its own Generator would, while the arithmetic runs once over the
whole batch. A plain Generator is one segment. :func:`sample_channel` is
the entry point: it checks a :class:`~chainviews.datamodel.ViewBatch`
against the channel's input port once and returns the output rows as a
batch on the output side (:func:`stack_views` concatenates batches).
Each channel reads its typed ports' kinds and sizes off its own arrays and
takes only their sides (modalities), so composing mismatched stages or
feeding views from the wrong side fails loudly instead of silently
reinterpreting data. All sampling goes through explicit Generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datamodel import (
    MODALITY_U,
    MODALITY_V,
    DatasetSchema,
    Instance,
    ViewBatch,
    ViewSpec,
    check_int,
    check_number,
    is_real,
    rows_match,
    vector_view,
)
from .rng import derive_rng  # noqa: F401 -- unused here; benchmarks/tracing.py traces this binding
from .rng import derive_rngs

_ATOL = 1e-12


class ChannelError(ValueError):
    """Port mismatch or malformed channel parameters."""


def _finite_array(name: str, value, error=ChannelError) -> np.ndarray:
    """``value`` as a float array; a NaN or an infinity in it is an ``error`` naming it."""
    array = np.asarray(value, dtype=np.float64)
    if not np.isfinite(array).all():
        raise error(f"{name} must hold finite numbers only")
    return array


@dataclass(frozen=True)
class Port:
    """Typed endpoint of a channel: shape contract plus modality."""

    spec: ViewSpec
    modality: str

    def __post_init__(self):
        if self.modality not in (MODALITY_U, MODALITY_V):
            raise ChannelError(f"unknown modality {self.modality!r}")

    def accepts(self, batch: ViewBatch) -> bool:
        return batch.modality == self.modality and bool(rows_match(batch.kind, batch.data, self.spec).all())


class Streams:
    """One Generator per contiguous segment of a batch's rows.

    ``generators[i]`` draws for the ``sizes[i]`` rows that follow the
    earlier segments' rows. Each draw fills every segment from its own
    Generator in segment order, so a Generator sees the same sequence of
    draws as it would sampling its segment's rows alone: the mixture mask,
    then branch ``a``'s draws, then branch ``b``'s, stage by stage in a
    composition. The Generators must be distinct objects.
    """

    def __init__(self, generators: Sequence[np.random.Generator], sizes: Sequence[int]):
        self.generators = tuple(generators)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape != (len(self.generators),) or np.any(sizes < 0):
            raise ChannelError("streams need one non-negative segment size per generator")
        self.ends = np.cumsum(sizes)

    def __len__(self) -> int:
        return int(self.ends[-1]) if len(self.ends) else 0

    def draw(self, method: str, tail: tuple = ()) -> np.ndarray:
        """``len(self)`` rows of shape ``tail`` from ``Generator.<method>``
        (``random`` or ``standard_normal``), each segment from its own stream."""
        out = np.empty((len(self),) + tuple(tail))
        start = 0
        for generator, end in zip(self.generators, self.ends.tolist()):
            getattr(generator, method)(out=out[start:end])
            start = end
        return out

    def take(self, mask: np.ndarray) -> "Streams":
        """The streams of the rows where ``mask`` holds, each segment keeping
        its Generator (segments may become empty)."""
        kept = np.concatenate([[0], np.cumsum(mask)])[self.ends]
        return Streams(self.generators, np.diff(kept, prepend=0))


def _streams(rng: np.random.Generator | Streams, rows: int) -> Streams:
    """``rng`` as streams over ``rows`` rows: a Generator is one segment."""
    if not isinstance(rng, Streams):
        return Streams((rng,), (rows,))
    if len(rng) != rows:
        raise ChannelError(f"streams cover {len(rng)} rows, the batch has {rows}")
    return rng


def inverse_cdf(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Each draw's category under the cumulative probabilities on the last
    axis of ``cdf`` (one axis more than ``draws``): the count of entries at
    or below it, ``searchsorted(row, draw, side="right")``, clipped to the
    last category for a row that ends short of the draw."""
    return np.minimum((cdf <= draws[..., None]).sum(axis=-1), cdf.shape[-1] - 1)


class DiscreteChannel:
    """Symbol-wise categorical channel given by a row-stochastic matrix:
    ``matrix.shape[0]`` input symbols to ``matrix.shape[1]`` output symbols."""

    def __init__(self, matrix, in_modality: str, out_modality: str):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or not matrix.size:
            raise ChannelError(f"transition matrix must be 2-d and non-empty, got shape {matrix.shape}")
        if np.any(matrix < 0) or not np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=_ATOL):
            raise ChannelError("transition matrix rows must be non-negative and sum to 1")
        self.matrix = matrix
        self.in_port = Port(ViewSpec("discrete", matrix.shape[0]), in_modality)
        self.out_port = Port(ViewSpec("discrete", matrix.shape[1]), out_modality)
        self._cumulative = np.cumsum(matrix, axis=1)

    def sample(self, X: np.ndarray, rng: np.random.Generator | Streams) -> np.ndarray:
        return inverse_cdf(self._cumulative[X], _streams(rng, len(X)).draw("random", X.shape[1:]))


class LinearGaussianChannel:
    """``y = W x + b + noise_sigma * eps`` with standard normal ``eps``:
    ``weight.shape[1]``-wide inputs to ``weight.shape[0]``-wide outputs."""

    def __init__(self, weight, bias, noise_sigma: float, in_modality: str, out_modality: str):
        weight, bias = _finite_array("weight", weight), _finite_array("bias", bias)
        if weight.ndim != 2 or not weight.size:
            raise ChannelError(f"weight must be 2-d and non-empty, got shape {weight.shape}")
        if bias.shape != weight.shape[:1]:
            raise ChannelError(f"bias shape {bias.shape} does not match the {weight.shape[0]} weight rows")
        self.weight = weight
        self.bias = bias
        self.noise_sigma = float(check_number("noise_sigma", noise_sigma, ChannelError, positive=True))
        self.in_port = Port(ViewSpec("vector", weight.shape[1]), in_modality)
        self.out_port = Port(ViewSpec("vector", weight.shape[0]), out_modality)

    def sample(self, X: np.ndarray, rng: np.random.Generator | Streams) -> np.ndarray:
        mean = X @ self.weight.T + self.bias
        out = _streams(rng, len(X)).draw("standard_normal", mean.shape[1:])
        out *= self.noise_sigma
        out += mean  # mean + sigma * noise, bit for bit: IEEE + commutes
        return out


class PrototypeCollapseChannel:
    """Mode-collapse channel: snap to a prototype, add isotropic jitter.

    The prototype is drawn with probability proportional to
    ``exp(-||P x - p_j||^2 / temperature)`` where ``P`` is an optional input
    projection (identity when omitted). Low temperature means hard snapping.
    Outputs are ``prototypes.shape[1]`` wide; inputs are ``projection.shape[1]``
    wide, or as wide as the outputs without a projection.
    """

    def __init__(
        self,
        prototypes,
        temperature: float,
        jitter_sigma: float,
        in_modality: str,
        out_modality: str,
        projection=None,
    ):
        prototypes = _finite_array("prototypes", prototypes)
        if prototypes.ndim != 2 or not prototypes.size:
            raise ChannelError(f"prototypes must be a non-empty 2-d array, got shape {prototypes.shape}")
        width = prototypes.shape[1]
        if projection is not None:
            projection = _finite_array("projection", projection)
            if projection.ndim != 2 or len(projection) != width or not projection.size:
                raise ChannelError(f"projection must be 2-d with {width} rows and a column, got shape {projection.shape}")
        self.prototypes = prototypes
        self.projection = projection
        self.temperature = float(check_number("temperature", temperature, ChannelError, positive=True))
        self.jitter_sigma = float(check_number("jitter_sigma", jitter_sigma, ChannelError))
        in_size = width if projection is None else projection.shape[1]
        self.in_port = Port(ViewSpec("vector", in_size), in_modality)
        self.out_port = Port(ViewSpec("vector", width), out_modality)

    def snap_probabilities(self, X: np.ndarray) -> np.ndarray:
        """Per-row prototype probabilities: ``(B, d_in)`` inputs to ``(B, k)``."""
        z = X if self.projection is None else X @ self.projection.T
        sq_dist = np.sum((z[:, None, :] - self.prototypes[None, :, :]) ** 2, axis=2)
        logits = -sq_dist / self.temperature
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)

    def sample(self, X: np.ndarray, rng: np.random.Generator | Streams) -> np.ndarray:
        # the normalised cdf, as Generator.choice draws one prototype
        streams = _streams(rng, len(X))
        cdf = np.cumsum(self.snap_probabilities(X), axis=1)
        cdf /= cdf[:, -1:]
        j = inverse_cdf(cdf, streams.draw("random"))
        out = streams.draw("standard_normal", (self.out_port.spec.size,))
        out *= self.jitter_sigma
        out += self.prototypes[j]  # prototype + sigma * jitter, bit for bit
        return out


class MixtureChannel:
    """With probability ``branch_prob`` sample branch ``a``, else ``b``."""

    def __init__(self, branch_prob: float, a, b):
        if not (is_real(branch_prob) and 0.0 <= branch_prob <= 1.0):
            raise ChannelError(f"branch_prob must be a finite number in [0, 1], got {branch_prob!r}")
        if a.in_port != b.in_port or a.out_port != b.out_port:
            raise ChannelError("mixture branches must share ports")
        self.branch_prob = float(branch_prob)
        self.a = a
        self.b = b
        self.in_port = a.in_port
        self.out_port = a.out_port

    def sample(self, X: np.ndarray, rng: np.random.Generator | Streams) -> np.ndarray:
        # one branch mask per batch, then each branch on its own rows
        streams = _streams(rng, len(X))
        take_a = streams.draw("random") < self.branch_prob
        from_a = self.a.sample(X[take_a], streams.take(take_a))
        from_b = self.b.sample(X[~take_a], streams.take(~take_a))
        out = np.empty((X.shape[0],) + from_a.shape[1:], dtype=from_a.dtype)
        out[take_a] = from_a
        out[~take_a] = from_b
        return out


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

    def sample(self, X: np.ndarray, rng: np.random.Generator | Streams) -> np.ndarray:
        for stage in self.stages:
            X = stage.sample(X, rng)
        return X


def stack_views(views: Sequence[ViewBatch]) -> ViewBatch:
    """The rows of ``views`` as one batch; they must share their kind, side and length."""
    if not views:
        raise ChannelError("cannot stack an empty view list")
    first = views[0]
    if any(view.kind != first.kind or view.modality != first.modality for view in views):
        raise ChannelError("one batch needs views of one kind on one side")
    lengths = {view.data.shape[1] for view in views}
    if len(lengths) > 1:
        raise ChannelError(f"one batch needs views of one length, got lengths {sorted(lengths)}")
    return ViewBatch(first.kind, first.modality, np.concatenate([view.data for view in views]))


def sample_channel(channel, batch: ViewBatch, rng: np.random.Generator | Streams) -> ViewBatch:
    """Draw one output view per input row with one batched ``sample`` call.

    The batch must match the channel's input port. ``rng`` is a Generator
    or :class:`Streams` covering the batch's rows. The draws depend on each
    segment as a whole: the same rows in the same order on the same stream
    give the same outputs, and an empty batch draws nothing.

    Bit contract: the products a channel computes (``W x``, a projection)
    run over the whole batch. When every weight is 0 or 1, as in the
    presets, each output row is bit-identical to sampling its segment alone.
    With arbitrary weights the matrix-product kernel may sum in a different
    order at another batch size, so a row can differ at round-off from the
    same segment sampled alone. Outputs stay a pure function of the inputs
    and streams. An output that is not finite is a ``ChannelError`` naming
    the channel and its sides.
    """
    port = channel.in_port
    if not port.accepts(batch):
        raise ChannelError(
            f"{type(channel).__name__} expects {port.modality!r}-side "
            f"{port.spec.kind} views of size {port.spec.size}, "
            f"got {batch.modality!r}-side {batch.kind} views of length {batch.data.shape[1]}"
        )
    out = channel.out_port
    data = channel.sample(batch.data, rng)
    if not np.isfinite(data).all():  # e.g. a weight large enough to overflow
        raise ChannelError(
            f"{type(channel).__name__} from the {port.modality!r} side to the {out.modality!r} side "
            "output a non-finite number"
        )
    return ViewBatch(out.spec.kind, out.modality, data)


# --- benchmark worlds -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BenchmarkWorld:
    """Ground-truth P(U | Y): Gaussian class clusters plus an entity map.

    ``entity_pairs_by_class[y]`` lists the (subject, object) pairs an
    instance of class ``y`` may carry. Pairs shared between classes keep the
    entities from giving the label away on their own. Worlds compare and hash
    by identity (a field is an array), so ``ExperimentConfig ==`` compares
    its world by identity too.
    """

    class_means: np.ndarray  # (C, d_u)
    within_class_sigma: float
    entity_vocab: int
    entity_pairs_by_class: tuple[tuple[tuple[int, int], ...], ...]
    seed: int

    def __post_init__(self):
        means = _finite_array("class_means", self.class_means, ValueError)
        object.__setattr__(self, "class_means", means)
        check_int("seed", self.seed, 0)
        check_number("within_class_sigma", self.within_class_sigma, positive=True)
        check_int("entity_vocab", self.entity_vocab, 1)
        for i in range(means.shape[0]):
            for j in range(i + 1, means.shape[0]):
                if np.array_equal(means[i], means[j]):
                    raise ValueError(f"classes {i} and {j} share a mean; means must be distinct")
        if len(self.entity_pairs_by_class) != self.class_count:
            raise ValueError("need entity pairs for every class")
        for pairs in self.entity_pairs_by_class:
            if not pairs:
                raise ValueError("every class needs at least one entity pair")
            for s, o in pairs:
                if not (0 <= s < self.entity_vocab and 0 <= o < self.entity_vocab):
                    raise ValueError("entity pair outside vocabulary")

    @property
    def class_count(self) -> int:
        return self.class_means.shape[0]

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
    by construction: instance ``i`` of class ``y`` draws from its own
    ``("world", stream, y, i)`` stream, all derived in one batch. Instances
    arrive ordered by (class, index) with ids 0..N-1, so regeneration with
    the same arguments is exact.
    """
    check_int("n_per_class", n_per_class, 1)
    schema = DatasetSchema(
        class_count=world.class_count,
        entity_vocab=world.entity_vocab,
        u_spec=ViewSpec("vector", world.u_dim),
        v_spec=v_spec,
        none_class=none_class,
    )
    cells = [(y, i) for y in range(world.class_count) for i in range(n_per_class)]
    rngs = derive_rngs(world.seed, [("world", stream, y, i) for y, i in cells])
    instances = []
    for next_id, ((y, _), rng) in enumerate(zip(cells, rngs)):
        pairs = world.entity_pairs_by_class[y]
        u = world.class_means[y] + world.within_class_sigma * rng.standard_normal(world.u_dim)
        subject, obj = pairs[int(rng.integers(len(pairs)))]
        instances.append(
            Instance(id=next_id, label=y, subject=subject, object=obj, real_view=vector_view(u, MODALITY_U))
        )
    return instances, schema


# --- presets ---------------------------------------------------------------

# Entity layout shared by the presets: 8 entities, each pair claimed by two
# adjacent classes, so the pair alone carries exactly one of the two label bits.
_PRESET_PAIRS = (
    ((0, 1), (6, 7)),
    ((0, 1), (2, 3)),
    ((2, 3), (4, 5)),
    ((4, 5), (6, 7)),
)


def _preset_world(means: np.ndarray, within_class_sigma: float, seed: int) -> BenchmarkWorld:
    return BenchmarkWorld(
        class_means=means,
        within_class_sigma=within_class_sigma,
        entity_vocab=8,
        entity_pairs_by_class=_PRESET_PAIRS,
        seed=seed,
    )


def _identity_preset(means: np.ndarray, noise_sigma: float, seed: int):
    # clean and noisy: unit within-class sigma, identity channels both ways
    d = means.shape[1]
    eye = np.eye(d)
    zero = np.zeros(d)
    g_uv = LinearGaussianChannel(eye, zero, noise_sigma, MODALITY_U, MODALITY_V)
    g_vu = LinearGaussianChannel(eye, zero, noise_sigma, MODALITY_V, MODALITY_U)
    return _preset_world(means, 1.0, seed), g_uv, g_vu


def _collapse_heavy_preset(seed: int):
    # Real views live in 32-d with 28 pure-noise coordinates, so a model fed
    # only real views must find the informative subspace from few samples.
    # The faithful channel branch projects onto that subspace with modest
    # noise; the collapse branch snaps to prototypes shared across classes.
    d_u, d_v = 32, 4
    means = np.zeros((4, d_u))
    means[:, :4] = 3.0 * np.eye(4)
    world = _preset_world(means, 1.5, seed)
    proj = np.zeros((d_v, d_u))
    proj[:, :4] = np.eye(4)
    faithful = LinearGaussianChannel(proj, np.zeros(d_v), 0.35, MODALITY_U, MODALITY_V)
    # both prototypes are equidistant from every class-mean projection, so a
    # collapsed view carries no label information at all
    prototypes = 2.2 * np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
    collapse = PrototypeCollapseChannel(
        prototypes,
        temperature=8.0,
        jitter_sigma=0.4,
        in_modality=MODALITY_U,
        out_modality=MODALITY_V,
        projection=proj,
    )
    g_uv = MixtureChannel(0.55, collapse, faithful)
    g_vu = LinearGaussianChannel(proj.T, np.zeros(d_u), 0.35, MODALITY_V, MODALITY_U)
    return world, g_uv, g_vu


# Each builder makes its means afresh, so no two worlds share an array.
_PRESETS = {
    "clean": lambda seed: _identity_preset(
        4.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), 0.4, seed
    ),
    "noisy": lambda seed: _identity_preset(3.0 * np.eye(4), 0.8, seed),
    "collapse-heavy": _collapse_heavy_preset,
}
PRESET_NAMES = tuple(_PRESETS)


def lossy_world_preset(name: str, seed: int = 0):
    """Return ``(world, g_u_to_v, g_v_to_u)`` for a named preset."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ChannelError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    return builder(seed)

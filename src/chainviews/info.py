"""Exact mutual information on small discrete spaces, and the two
diagnostics built on it: the non-increasing MI profile along a generation
chain, and the trained-classifier lower bound on I(V; Y).

Everything here is in nats. Exact quantities (:func:`exact_mi`,
:func:`entropy`, :func:`chain_mi_profile`) come from dense summation over
the joint table, which is the point: they are the oracles the stochastic
parts of the library are checked against, so they share no code with the
estimators they judge. The classifier bound is an estimator they judge, so
it runs the library's own code: the channels' ``inverse_cdf`` sampler,
``models.AdamW`` and ``nn.softmax_xent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import inverse_cdf
from .models import AdamW
from .nn import log_softmax, softmax_xent
from .rng import derive_rng

DEFAULT_CELL_CAP = 1_000_000

_ATOL = 1e-12


class InfoError(ValueError):
    pass


class DataProcessingViolation(AssertionError):
    """An exact MI profile increased along the chain; that is a bug."""


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Dense joint distribution of a pair of finite variables: ``table[i, j]``
    is P(X = i, Y = j)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", table)
        if table.ndim != 2 or table.size == 0:
            raise InfoError(f"need a non-empty 2-d joint table, got shape {table.shape}")
        if table.size > DEFAULT_CELL_CAP:
            raise InfoError(f"joint table has {table.size} cells, cap is {DEFAULT_CELL_CAP}")
        if np.any(table < -_ATOL):
            raise InfoError("joint table has negative mass")
        if abs(table.sum() - 1.0) > 1e-9:
            raise InfoError(f"joint table sums to {table.sum()}, not 1")


def _mi_from_pair_table(pij: np.ndarray) -> float:
    pij = np.asarray(pij, dtype=np.float64)
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    mask = pij > 0
    ratio = pij[mask] / (np.outer(pi, pj)[mask])
    return float(np.sum(pij[mask] * np.log(ratio)))


def exact_mi(joint: DiscreteJoint) -> float:
    """I(X; Y) in nats by direct summation over the joint table.

    Symmetric in (X, Y); zero for independent variables; equal to the
    marginal entropy when one variable determines the other. Float error
    keeps the result above -1e-12 but never meaningfully negative.
    """
    return _mi_from_pair_table(joint.table)


def entropy(p) -> float:
    """Shannon entropy in nats of a probability vector."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -_ATOL) or abs(p.sum() - 1.0) > 1e-9:
        raise InfoError("not a probability vector")
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def _as_matrix(channel) -> np.ndarray:
    matrix = getattr(channel, "matrix", channel)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or np.any(matrix < 0) or not np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        raise InfoError("chain stages must be row-stochastic matrices")
    return matrix


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Y -> Z_1 -> Z_2 -> ... as an initial law plus transition matrices.

    Stages may be :class:`~chainviews.channels.DiscreteChannel` instances or
    raw row-stochastic arrays; only the matrices matter here.
    """

    initial: np.ndarray
    stages: tuple

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=np.float64)
        if initial.ndim != 1 or np.any(initial < 0) or abs(initial.sum() - 1.0) > 1e-9:
            raise InfoError("initial law must be a probability vector")
        object.__setattr__(self, "initial", initial)
        matrices = tuple(_as_matrix(stage) for stage in self.stages)
        object.__setattr__(self, "stages", matrices)
        size = initial.shape[0]
        for k, matrix in enumerate(matrices):
            if matrix.shape[0] != size:
                raise InfoError(f"stage {k} expects {matrix.shape[0]} input symbols, chain carries {size}")
            size = matrix.shape[1]


def chain_mi_profile(spec: MarkovChainSpec, tol: float = 1e-9) -> list[float]:
    """[I(Y;Y), I(Y;Z_1), ..., I(Y;Z_n)] in nats, exactly.

    The data-processing inequality makes this sequence non-increasing; the
    function checks that as it goes and raises
    :class:`DataProcessingViolation` on any increase beyond ``tol``, since
    exact summation cannot legitimately produce one.
    """
    p0 = spec.initial
    profile = [entropy(p0)]  # I(Y; Y) = H(Y)
    forward = np.eye(p0.shape[0])
    for k, matrix in enumerate(spec.stages):
        forward = forward @ matrix
        joint = p0[:, None] * forward
        value = _mi_from_pair_table(joint)
        if value > profile[-1] + tol:
            raise DataProcessingViolation(
                f"I(Y;Z_{k + 1}) = {value:.12f} exceeds I(Y;Z_{k}) = {profile[-1]:.12f}"
            )
        profile.append(value)
    return profile


def mi_lower_bound(logits, labels) -> float:
    """The negative mean cross-entropy of ``(n, C)`` classifier ``logits``
    against ``n`` labels: a lower bound on I(V; Y) minus log(C) under
    uniform labels; see :func:`verify_classifier_bound` for the shifted,
    tight form. Never positive.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise InfoError(f"need an (n, C) logits matrix with at least one row, got shape {logits.shape}")
    if logits.shape[1] < 2:
        raise InfoError("need at least two classes")
    return -float(np.mean(softmax_xent(logits, labels)[0]))


# --- trained-classifier bound verification ----------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteLabelWorld:
    """Uniform label Y over C classes, observation V ~ channel[y] over an
    alphabet. Compares and hashes by identity (``channel`` is an array)."""

    channel: np.ndarray  # (C, A) row-stochastic
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channel", _as_matrix(self.channel))

    @property
    def class_count(self) -> int:
        return self.channel.shape[0]

    @property
    def alphabet(self) -> int:
        return self.channel.shape[1]

    def joint(self) -> DiscreteJoint:
        return DiscreteJoint(self.channel / self.class_count)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(self.class_count, size=n)
        return inverse_cdf(np.cumsum(self.channel, axis=1)[labels], rng.random(n)), labels


@dataclass(frozen=True)
class BoundReport:
    bound: float
    exact: float
    se: float
    margin: float  # exact - bound; negative only within noise
    violation: bool  # bound > exact + 3 * se


def verify_classifier_bound(world: DiscreteLabelWorld) -> BoundReport:
    """Train a softmax scorer on world samples and compare its MI bound
    against the exact value.

    The scorer takes 400 full-batch :class:`~chainviews.models.AdamW` steps
    at learning rate 0.2 on 20,000 samples and is evaluated on 20,000 more.
    The reported bound is ``log C - mean cross-entropy`` of the held-out
    samples (:func:`~chainviews.nn.softmax_xent`), valid for uniform labels.
    It must not exceed exact MI by more than sampling noise; ``violation``
    flags a breach beyond three standard errors.
    """
    train_steps, n_train, n_eval, learning_rate = 400, 20_000, 20_000, 0.2
    rng = derive_rng(world.seed, "bound-verify")
    v_train, y_train = world.sample(n_train, rng)
    v_eval, y_eval = world.sample(n_eval, rng)

    counts = np.zeros((world.alphabet, world.class_count))
    np.add.at(counts, (v_train, y_train), 1.0)
    row_total = counts.sum(axis=1, keepdims=True)

    # full-batch Adam steps on the logits W[v, y]; cheap because the mean
    # loss only depends on the (v, y) count table
    params = {"w": np.zeros((world.alphabet, world.class_count))}
    optimizer = AdamW(params)
    for _ in range(train_steps):
        optimizer.grads["w"][...] = (np.exp(log_softmax(params["w"])) * row_total - counts) / n_train
        optimizer.step(learning_rate)

    terms = math.log(world.class_count) - softmax_xent(params["w"][v_eval], y_eval)[0]
    bound = float(terms.mean())
    se = float(terms.std(ddof=1) / math.sqrt(n_eval))
    exact = exact_mi(world.joint())
    return BoundReport(
        bound=bound,
        exact=exact,
        se=se,
        margin=exact - bound,
        violation=bound > exact + 3 * se,
    )


def random_label_world(class_count: int, alphabet: int, seed: int) -> DiscreteLabelWorld:
    """A random conditional law P(V | Y), rows drawn from a flat Dirichlet."""
    rng = derive_rng(seed, "random-world")
    raw = rng.gamma(1.0, size=(class_count, alphabet))
    channel = raw / raw.sum(axis=1, keepdims=True)
    return DiscreteLabelWorld(channel=channel, seed=seed)


def binary_symmetric_world(flip: float, seed: int = 0) -> DiscreteLabelWorld:
    channel = np.array([[1 - flip, flip], [flip, 1 - flip]])
    return DiscreteLabelWorld(channel=channel, seed=seed)

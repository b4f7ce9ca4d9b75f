"""Per-instance candidate filtering.

Every policy answers the same question: given one instance's candidate
views, which ``ceil(keep_fraction * n)`` survive into the next round? Each
policy is a lower-is-better score per candidate, and :func:`rank_keep` is
the one ranking over those scores. The teacher-loss policy scores by
teacher loss (computed upstream), the similarity policy by closeness to the
real view under a fixed cross-modal embedder (:func:`similarity_scores`),
and the random / keep-all policies are the ablation controls
(:func:`random_scores`, or all-equal scores).

Ties break by ascending candidate index, so results are stable under equal
scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .datamodel import SyntheticView, View, ViewSpec
from .nn import featurize
from .rng import derive_rng

POLICY_NAMES = ("teacher_loss", "similarity", "random", "keep_all")


class SelectionError(ValueError):
    pass


def keep_count(keep_fraction: float, n: int) -> int:
    """``ceil(keep_fraction * n)`` computed exactly.

    The fraction is read back through its decimal representation so float
    artifacts (0.4 * 5 landing a hair above 2) cannot inflate the count.
    """
    if n < 0:
        raise SelectionError("negative candidate count")
    if not (0.0 < keep_fraction <= 1.0):
        raise SelectionError("keep_fraction must be in (0, 1]")
    product = Fraction(str(keep_fraction)) * n
    return -(-product.numerator // product.denominator)


def rank_keep(scores: Sequence[float], k: int) -> list[int]:
    """Indices of the ``k`` best (lowest) scores, best first.

    Ranking is by (score, index), so equal scores keep the lower index;
    callers that want the survivors in index order sort the result.
    """
    return sorted(range(len(scores)), key=lambda i: (scores[i], i))[:k]


class RandomLinearEmbedder:
    """Fixed random linear maps into a shared space, one per modality.

    A deterministic stand-in for a pretrained joint embedding model: it
    preserves geometry in expectation but learns nothing, which is the point
    of the similarity-selection ablation.
    """

    def __init__(self, u_spec: ViewSpec, v_spec: ViewSpec, dim: int = 8, seed: int = 0):
        rng = derive_rng(seed, "embedder")
        self.u_spec = u_spec
        self.v_spec = v_spec
        self.w_u = rng.normal(0.0, 1.0 / np.sqrt(u_spec.size), size=(dim, u_spec.size))
        self.w_v = rng.normal(0.0, 1.0 / np.sqrt(v_spec.size), size=(dim, v_spec.size))

    def embed(self, view: View) -> np.ndarray:
        if view.modality == "u":
            return self.w_u @ featurize(view, self.u_spec.size)
        return self.w_v @ featurize(view, self.v_spec.size)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(a @ b) / (na * nb)


def similarity_scores(
    views: Sequence[SyntheticView | View], real_view: View, embedder
) -> list[float]:
    """Lower-is-better scores: negated cosine against the real view."""
    anchor = embedder.embed(real_view)
    unwrapped = [v.view if isinstance(v, SyntheticView) else v for v in views]
    return [-cosine_similarity(embedder.embed(v), anchor) for v in unwrapped]


def random_scores(n: int, seed: int, *stream: int | str) -> list[float]:
    rng = derive_rng(seed, "random-selection", *stream)
    return list(rng.random(n))


@dataclass(frozen=True)
class SelectionPolicy:
    """A validated policy name plus its keep fraction and, for the
    similarity policy, the embedding width."""

    name: str
    keep_fraction: float = 0.6
    embed_dim: int = 8

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise SelectionError(f"unknown policy {self.name!r}; choose one of {POLICY_NAMES}")
        if self.name != "keep_all" and not (0.0 < self.keep_fraction <= 1.0):
            raise SelectionError("keep_fraction must be in (0, 1]")

    @property
    def needs_teacher(self) -> bool:
        return self.name == "teacher_loss"

"""Per-instance candidate filtering.

Every policy answers the same question: given one instance's candidate
views, which ``ceil(keep_fraction * n)`` survive into the next round? Each
policy is a lower-is-better score per candidate, one row per instance, and
:func:`rank_rows` ranks every row at once. The teacher-loss policy scores by
teacher loss (computed upstream), the similarity policy by closeness to the
real view under a fixed cross-modal embedder (:func:`similarity_scores`),
and the random / keep-all policies are the ablation controls
(:func:`random_scores`, or all-equal scores).

Ties break by ascending candidate index, so results are stable under equal
scores, and NaN (a view no teacher scored) ranks last.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .datamodel import ViewBatch, ViewSpec
from .nn import featurize_rows
from .rng import derive_rng, derive_rngs

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


def rank_rows(scores: np.ndarray) -> np.ndarray:
    """Each row's column positions, best (lowest score) first.

    ``scores`` holds one row of candidates per instance. One stable sort
    along the rows orders each by (score, index), so equal scores keep the
    lower index; NaN ranks last.
    """
    return np.argsort(scores, axis=1, kind="stable")


class RandomLinearEmbedder:
    """Fixed random linear maps into a shared 8-d space, one per modality.

    A deterministic stand-in for a pretrained joint embedding model: it
    preserves geometry in expectation but learns nothing, which is the point
    of the similarity-selection ablation.
    """

    def __init__(self, u_spec: ViewSpec, v_spec: ViewSpec, seed: int = 0):
        dim = 8
        rng = derive_rng(seed, "embedder")
        self.u_spec = u_spec
        self.v_spec = v_spec
        self.w_u = rng.normal(0.0, 1.0 / np.sqrt(u_spec.size), size=(dim, u_spec.size))
        self.w_v = rng.normal(0.0, 1.0 / np.sqrt(v_spec.size), size=(dim, v_spec.size))

    def embed(self, views: ViewBatch) -> np.ndarray:
        """``(B, 8)`` embeddings of a batch of one side. A stack of
        matrix-vector products, so each row has the bits of ``weight @ row``."""
        weight, spec = (self.w_u, self.u_spec) if views.modality == "u" else (self.w_v, self.v_spec)
        return np.matmul(weight, featurize_rows(views.kind, views.data, spec.size)[..., None])[..., 0]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row ``i``, each its own dot product (so with its bits)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def similarity_scores(views: ViewBatch, anchors: ViewBatch, embedder) -> np.ndarray:
    """Lower-is-better scores: the negated cosine between each row of
    ``views`` and the same row of ``anchors`` (the real views) under
    ``embedder``. A zero embedding on either side has cosine -1."""
    e, a = embedder.embed(views), embedder.embed(anchors)
    norm_e, norm_a = np.sqrt(_row_dots(e, e)), np.sqrt(_row_dots(a, a))
    nonzero = (norm_e != 0) & (norm_a != 0)
    return -np.divide(_row_dots(e, a), norm_e * norm_a, out=np.full(len(e), -1.0), where=nonzero)


def random_scores(n: int, seed: int, streams: Sequence[Sequence[int | str]]) -> np.ndarray:
    """One row of ``n`` uniform scores per entry of ``streams``: row ``k``
    draws from the ``("random-selection", *streams[k])`` stream, and all the
    streams are derived in one batch."""
    out = np.empty((len(streams), n))
    for row, rng in zip(out, derive_rngs(seed, [("random-selection", *stream) for stream in streams])):
        rng.random(out=row)
    return out

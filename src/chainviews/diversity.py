"""Diversity measurement for view populations.

The statistic is the generalized variance: project views to a low PCA
dimension, fit a diagonal-covariance Gaussian mixture by EM, and take the
determinant of the mixture's total covariance (law of total variance:
within-component plus between-component parts). EM works on the centred
squares ``(x - m)²``, so its accuracy does not hang on where the data lie.
Comparing the statistic across pipeline stages (kept round-0 views, raw
round-1 views, ...) shows whether chained generation spreads the
population out.

The PCA basis is always fit on the union of the stages under comparison, so
per-stage numbers live in one shared coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .datamodel import check_int
from .rng import derive_rng


class DiversityError(ValueError):
    pass


def _check_finite(data: np.ndarray) -> None:
    """A DiversityError naming the first row of ``data`` that holds a NaN or an infinity."""
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise DiversityError(f"row {int(np.argmax(bad))} holds a non-finite number")


def pca_reduce(data: np.ndarray, n_components: int):
    """Center ``data`` and project onto the top principal directions.

    Returns ``(projection, reduced, explained_variance)`` where
    ``projection`` is (d, n_components) with orthonormal columns ordered by
    descending eigenvalue and ``explained_variance`` holds the
    corresponding covariance eigenvalues. A row holding a NaN or an
    infinity is a DiversityError.
    """
    check_int("n_components", n_components, 1, DiversityError)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DiversityError("data must be (n, d)")
    n, d = data.shape
    if n < 2:
        raise DiversityError("need at least two points")
    if not (1 <= n_components <= d):
        raise DiversityError(f"n_components must be in [1, {d}]")
    _check_finite(data)
    mean = data.mean(axis=0)
    centered = data - mean
    # SVD of the centered matrix; right singular vectors are the principal axes
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = (singular**2) / (n - 1)
    projection = vt[:n_components].T
    reduced = centered @ projection
    return projection, reduced, eigenvalues[:n_components]


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Diagonal-covariance Gaussian mixture."""

    weights: np.ndarray  # (N,)
    means: np.ndarray  # (N, d)
    diag_covs: np.ndarray  # (N, d)
    log_likelihoods: tuple[float, ...] = ()  # per-EM-iteration trace

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


def _farthest_point_indices(data_t: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Farthest-point seeding over the points of ``data_t`` (d, n). Squared
    distances add coordinate by coordinate, the order in which numpy sums a
    row shorter than 8, so the picks equal those made on the (n, d) rows."""
    chosen, dist = [int(rng.integers(data_t.shape[1]))], np.inf
    while True:
        diff = data_t - data_t[:, chosen[-1], None]
        dist = np.minimum(dist, np.sum(diff * diff, axis=0))
        if len(chosen) == k:
            return chosen
        chosen.append(int(np.argmax(dist)))


def fit_gmm(data: np.ndarray, n_components: int, seed: int = 0) -> GmmModel:
    """EM for a diagonal-covariance mixture.

    Initialization is farthest-point seeding from a derived stream, so fits
    are reproducible. EM runs at most 200 iterations and stops once the mean
    log-likelihood moves by less than 1e-7. The trace is monotone
    non-decreasing up to 1e-8 per iteration; a larger drop raises, because
    EM cannot legitimately do that. Component variances are floored at 1e-6.
    Each fit keeps the centred squares ``(x - m)²`` of every point under
    every component: the M-step refreshes them and sums the variances
    ``Σ r·(x - m)²`` from them, and the next E-step's log densities are
    their product with ``-1/2v``. Fits are deterministic but not bit-equal
    to earlier versions' fits. A row holding a NaN or an infinity is a
    DiversityError.
    """
    max_iters, tol, cov_floor = 200, 1e-7, 1e-6
    check_int("n_components", n_components, 1, DiversityError)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DiversityError("need an (n >= 2, d) data matrix")
    n = data.shape[0]
    if n_components > n:
        raise DiversityError("n_components must be in [1, n]")
    _check_finite(data)

    data_t = np.ascontiguousarray(data.T)  # (d, n): each coordinate is one contiguous row
    means = data[_farthest_point_indices(data_t, n_components, derive_rng(seed, "gmm-init"))]
    variances = np.tile(np.maximum(data.var(axis=0), cov_floor), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)
    squares = data_t - means[:, :, None]  # (N, d, n): (x - m_j)², refreshed by each M-step
    np.square(squares, out=squares)

    trace: list[float] = []
    for _ in range(max_iters):
        # log w + log N(x; m, v) = log w - Σ_k ((x_k - m_k)²/v_k + log 2πv_k) / 2
        resp = ((-0.5 / variances)[:, None, :] @ squares)[:, 0]  # (N, n) log parts
        resp += (np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances).sum(axis=1))[:, None]
        top = resp.max(axis=0)
        np.exp(np.subtract(resp, top, out=resp), out=resp)
        total = resp.sum(axis=0)
        loglik = float(np.mean(top + np.log(total)))
        if trace and loglik < trace[-1] - 1e-8:
            raise DiversityError(f"EM log-likelihood decreased: {trace[-1]} -> {loglik}")
        converged = bool(trace and abs(loglik - trace[-1]) < tol)
        trace.append(loglik)
        if converged:
            break
        resp /= total
        mass = np.maximum(resp.sum(axis=1), 1e-12)
        weights = mass / n
        means = (resp @ data) / mass[:, None]
        np.square(np.subtract(data_t, means[:, :, None], out=squares), out=squares)
        variances = np.maximum((squares @ resp[:, :, None])[:, :, 0] / mass[:, None], cov_floor)

    return GmmModel(
        weights=weights,
        means=means,
        diag_covs=variances,
        log_likelihoods=tuple(trace),
    )


def total_covariance(gmm: GmmModel) -> np.ndarray:
    """Law of total variance: sum of weighted component covariances plus the
    covariance of the component means."""
    offsets = gmm.means - gmm.weights @ gmm.means
    return np.diag(gmm.weights @ gmm.diag_covs) + (gmm.weights * offsets.T) @ offsets


def generalized_variance(gmm: GmmModel) -> float:
    """Determinant of the mixture's total covariance."""
    return float(np.linalg.det(total_covariance(gmm)))


def sample_gmm(gmm: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the mixture; used by the Monte-Carlo cross-checks."""
    components = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    noise = rng.standard_normal((n, gmm.means.shape[1]))
    return gmm.means[components] + noise * np.sqrt(gmm.diag_covs[components])


@dataclass(frozen=True)
class StageDiversity:
    stage: str
    n_views: int
    pca_dim: int
    n_components: int
    statistic: float  # generalized variance in the shared PCA basis


def diversity_report(
    stages: Mapping[str, np.ndarray],
    pca_dim: int,
    n_components: int = 3,
    seed: int = 0,
) -> list[StageDiversity]:
    """Generalized variance per stage in one shared PCA basis.

    ``stages`` maps stage name to an (n_i, d) feature matrix with n_i >= 2;
    the basis is fit on the concatenation of all stages. Stage order is
    preserved.
    """
    check_int("pca_dim", pca_dim, 1, DiversityError)  # fit_gmm checks n_components
    if not stages:
        raise DiversityError("no stages to compare")
    matrices = {}
    feature_dim = None
    for name, matrix in stages.items():
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DiversityError(f"stage {name!r} is not a matrix")
        if len(matrix) < 2:  # before the first fit, which would blame n_components
            raise DiversityError(f"stage {name!r} has {len(matrix)} views; a stage needs at least 2")
        if feature_dim is None:
            feature_dim = matrix.shape[1]
        elif matrix.shape[1] != feature_dim:
            raise DiversityError("stages must share a feature dimension")
        matrices[name] = matrix

    union = np.concatenate(list(matrices.values()), axis=0)
    _, reduced_union, _ = pca_reduce(union, pca_dim)
    ends = np.cumsum([len(matrix) for matrix in matrices.values()])

    report = []
    for name, reduced in zip(matrices, np.split(reduced_union, ends[:-1])):
        components = min(n_components, reduced.shape[0])
        gmm = fit_gmm(reduced, components, seed=seed)
        report.append(
            StageDiversity(
                stage=name,
                n_views=reduced.shape[0],
                pca_dim=pca_dim,
                n_components=components,
                statistic=generalized_variance(gmm),
            )
        )
    return report

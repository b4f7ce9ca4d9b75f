"""PCA, the diagonal-covariance GMM, and the generalized-variance statistic."""

import numpy as np
import pytest
from scipy import linalg

from chainviews.diversity import (
    DiversityError,
    GmmModel,
    diversity_report,
    fit_gmm,
    generalized_variance,
    pca_reduce,
    sample_gmm,
    total_covariance,
)
from chainviews.diversity import _farthest_point_indices
from chainviews.rng import derive_rng


# --- PCA -----------------------------------------------------------------------


def test_pca_on_collinear_data_explains_everything():
    rng = derive_rng(0, "line")
    t = rng.normal(size=40)
    data = np.outer(t, [1.0, -2.0, 0.5])  # exact line in R^3
    _, reduced, eigenvalues = pca_reduce(data, 1)
    total = np.var(data - data.mean(axis=0), axis=0, ddof=1).sum()
    assert eigenvalues[0] / total >= 0.999
    assert reduced.shape == (40, 1)


def test_pca_full_basis_reconstructs():
    rng = derive_rng(1, "full")
    data = rng.normal(size=(30, 5))
    projection, reduced, _ = pca_reduce(data, 5)
    rebuilt = reduced @ projection.T + data.mean(axis=0)
    assert np.max(np.abs(rebuilt - data)) < 1e-10


def test_pca_matches_dense_eigendecomposition():
    rng = derive_rng(2, "eig")
    data = rng.normal(size=(50, 8))
    projection, _, eigenvalues = pca_reduce(data, 8)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (data.shape[0] - 1)
    ref_values, ref_vectors = linalg.eigh(cov)
    ref_values = ref_values[::-1]
    ref_vectors = ref_vectors[:, ::-1]
    np.testing.assert_allclose(eigenvalues, ref_values, atol=1e-8)
    for k in range(8):
        # eigenvectors match up to sign
        assert abs(abs(projection[:, k] @ ref_vectors[:, k]) - 1.0) < 1e-8


def test_pca_projection_is_orthonormal_and_sorted():
    rng = derive_rng(3, "ortho")
    data = rng.normal(size=(40, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    projection, _, eigenvalues = pca_reduce(data, 4)
    np.testing.assert_allclose(projection.T @ projection, np.eye(4), atol=1e-10)
    assert all(a >= b for a, b in zip(eigenvalues, eigenvalues[1:]))


def test_pca_dimension_validation():
    data = np.zeros((10, 3))
    with pytest.raises(DiversityError):
        pca_reduce(data, 0)
    with pytest.raises(DiversityError):
        pca_reduce(data, 4)
    with pytest.raises(DiversityError):
        pca_reduce(data[:1], 1)


# --- GMM -----------------------------------------------------------------------------


def test_single_component_closed_form():
    rng = derive_rng(4, "n1")
    data = rng.normal(size=(60, 3)) * [1.0, 2.0, 0.5] + [4.0, -1.0, 0.0]
    gmm = fit_gmm(data, 1, seed=0)
    np.testing.assert_allclose(gmm.means[0], data.mean(axis=0), atol=1e-10)
    np.testing.assert_allclose(gmm.diag_covs[0], data.var(axis=0), atol=1e-10)
    np.testing.assert_allclose(gmm.weights, [1.0], atol=1e-12)


def test_two_separated_blobs_are_recovered():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 0.4, size=(150, 2)) + [3.0, 0.0]
    b = rng.normal(0, 0.4, size=(150, 2)) + [-3.0, 0.0]
    gmm = fit_gmm(np.vstack([a, b]), 2, seed=1)
    means = gmm.means[np.argsort(gmm.means[:, 0])]
    assert np.linalg.norm(means[0] - [-3.0, 0.0]) < 0.1
    assert np.linalg.norm(means[1] - [3.0, 0.0]) < 0.1
    np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)


def test_em_log_likelihood_is_monotone():
    rng = derive_rng(6, "mono")
    for trial in range(50):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, n) + 1))
        data = rng.normal(size=(n, d)) * (1.0 + rng.random(d))
        gmm = fit_gmm(data, k, seed=trial)
        trace = gmm.log_likelihoods
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_gmm_requires_enough_points():
    with pytest.raises(DiversityError):
        fit_gmm(np.zeros((2, 2)), 3, seed=0)


def test_covariance_floor_applies_to_collapsed_data():
    data = np.tile([1.0, 2.0], (20, 1))  # zero variance everywhere
    data[0] += 1e-9
    gmm = fit_gmm(data, 1, seed=0)
    assert np.all(gmm.diag_covs >= 1e-6)


# --- generalized variance ---------------------------------------------------------------


def test_identity_covariance_has_unit_generalized_variance():
    gmm = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), diag_covs=np.ones((1, 2)))
    assert abs(generalized_variance(gmm) - 1.0) < 1e-12


def test_law_of_total_variance_closed_form():
    # two equal-weight components at -1 and +1 with unit variance: total = 2
    gmm = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-1.0], [1.0]]),
        diag_covs=np.ones((2, 1)),
    )
    assert abs(generalized_variance(gmm) - 2.0) < 1e-12


def test_generalized_variance_matches_monte_carlo():
    rng = derive_rng(7, "mc")
    gmm = GmmModel(
        weights=np.array([0.5, 0.3, 0.2]),
        means=rng.normal(size=(3, 3)) * 2.0,
        diag_covs=0.5 + rng.random((3, 3)),
    )
    exact = generalized_variance(gmm)
    draws = sample_gmm(gmm, 1_000_000, derive_rng(8, "mc-draws"))
    mc = float(np.linalg.det(np.cov(draws.T)))
    assert abs(mc - exact) / exact < 0.05


def test_generalized_variance_component_permutation_invariant():
    rng = derive_rng(9, "perm")
    weights = np.array([0.2, 0.5, 0.3])
    means = rng.normal(size=(3, 2))
    covs = 0.1 + rng.random((3, 2))
    base = generalized_variance(GmmModel(weights=weights, means=means, diag_covs=covs))
    order = [2, 0, 1]
    shuffled = generalized_variance(
        GmmModel(weights=weights[order], means=means[order], diag_covs=covs[order])
    )
    assert abs(base - shuffled) < 1e-12


def test_total_covariance_is_symmetric_psd():
    rng = derive_rng(10, "psd")
    for trial in range(10):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(k))
        gmm = GmmModel(weights=w, means=rng.normal(size=(k, d)), diag_covs=0.01 + rng.random((k, d)))
        cov = total_covariance(gmm)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10
        assert generalized_variance(gmm) >= 0.0


# --- stage report -----------------------------------------------------------------------


def test_identical_stages_have_identical_statistics():
    rng = derive_rng(11, "same")
    data = rng.normal(size=(40, 5))
    report = diversity_report({"V0": data, "V1'": data.copy()}, pca_dim=2, n_components=2, seed=0)
    assert [row.stage for row in report] == ["V0", "V1'"]
    assert abs(report[0].statistic - report[1].statistic) < 1e-8


def test_added_noise_inflates_the_statistic():
    rng = derive_rng(12, "noise")
    base = rng.normal(size=(80, 4))
    noisy = base + rng.normal(0.0, 1.0, size=base.shape)
    report = diversity_report({"A": base, "B": noisy}, pca_dim=2, n_components=2, seed=0)
    by_stage = {row.stage: row.statistic for row in report}
    assert by_stage["B"] > by_stage["A"]


def test_report_rows_carry_the_table_fields():
    rng = derive_rng(13, "fields")
    report = diversity_report({"V0": rng.normal(size=(12, 3))}, pca_dim=2, n_components=3, seed=0)
    row = report[0]
    assert (row.stage, row.n_views, row.pca_dim, row.n_components) == ("V0", 12, 2, 3)
    assert row.statistic >= 0.0


def test_stage_feature_dims_must_agree():
    with pytest.raises(DiversityError):
        diversity_report({"A": np.zeros((10, 3)), "B": np.zeros((10, 4))}, pca_dim=2)


def test_empty_report_is_an_error():
    with pytest.raises(DiversityError):
        diversity_report({}, pca_dim=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_refused_naming_the_row(bad):
    # unchecked, a NaN made the SVD fail to converge and the EM trace NaN
    data = derive_rng(4, "non-finite").standard_normal((50, 3))
    data[17, 1] = bad
    message = r"^row 17 holds a non-finite number$"
    with pytest.raises(DiversityError, match=message):
        pca_reduce(data, 2)
    with pytest.raises(DiversityError, match=message):
        fit_gmm(data, 2)
    with pytest.raises(DiversityError, match=message):
        diversity_report({"V0": data}, pca_dim=2)


# --- the EM layout against its reference ---------------------------------------------


def reference_farthest_points(data, k, rng):
    """Farthest-point seeding on the (n, d) layout, each squared distance
    summed along its point's row."""
    chosen = [int(rng.integers(data.shape[0]))]
    dist = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.sum((data - data[chosen[-1]]) ** 2, axis=1))
    return chosen


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_farthest_points_on_the_transposed_layout_match_the_row_layout(d, ties):
    # rounded to a coarse grid, many points share a distance and argmax
    # must break every tie as the row layout does
    for trial in range(20):
        rng = derive_rng(trial, f"farthest-{d}")
        n, k = int(rng.integers(2, 400)), int(rng.integers(1, 7))
        data = rng.normal(size=(n, d)) * rng.uniform(0.01, 1e3, size=d)
        data = np.round(data / 300.0) if ties else data
        k = min(k, n)
        want = reference_farthest_points(data, k, derive_rng(trial, "seed"))
        assert _farthest_point_indices(np.ascontiguousarray(data.T), k, derive_rng(trial, "seed")) == want


def reference_fit_gmm(data, n_components, seed=0, max_iters=200, tol=1e-7, cov_floor=1e-6):
    """EM on the (n, d) layout, one row per point, each log density summed
    from centred squares along the point's row: the independent oracle that
    fit_gmm's matrix products must match to round-off."""
    n, d = data.shape
    means = data[reference_farthest_points(data, n_components, derive_rng(seed, "gmm-init"))]
    variances = np.tile(np.maximum(data.var(axis=0), cov_floor), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)
    trace = []
    for _ in range(max_iters):
        parts = []
        for j in range(n_components):
            diff = data - means[j]
            log_density = -0.5 * np.sum(diff * diff / variances[j] + np.log(2.0 * np.pi * variances[j]), axis=1)
            parts.append(np.log(weights[j]) + log_density)
        log_parts = np.stack(parts)
        top = log_parts.max(axis=0)
        log_norm = top + np.log(np.exp(log_parts - top).sum(axis=0))
        loglik = float(log_norm.mean())
        converged = bool(trace and abs(loglik - trace[-1]) < tol)
        trace.append(loglik)
        if converged:
            break
        resp = np.exp(log_parts - log_norm)
        mass = np.maximum(resp.sum(axis=1), 1e-12)
        weights = mass / n
        means = (resp @ data) / mass[:, None]
        for j in range(n_components):
            diff = data - means[j]
            variances[j] = np.maximum((resp[j][:, None] * diff * diff).sum(axis=0) / mass[j], cov_floor)
    return trace, weights, means, variances


@pytest.mark.parametrize("n, d, components", [(7, 1, 2), (300, 2, 3), (2000, 4, 2), (4000, 3, 3)])
def test_em_on_the_transposed_layout_matches_the_row_layout_bit_for_bit(n, d, components):
    # the id is kept, but fit_gmm's batched products over the centred squares
    # round differently from the oracle's row sums: the fits agree to
    # round-off, not bit for bit
    rng = derive_rng(n, "layout")
    data = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d) + rng.integers(-3, 3, size=(n, 1))
    trace, weights, means, variances = reference_fit_gmm(data, components, seed=d)
    gmm = fit_gmm(data, components, seed=d)
    assert len(gmm.log_likelihoods) == len(trace)
    np.testing.assert_allclose(gmm.log_likelihoods, trace, rtol=1e-13)
    for got, want in ((gmm.weights, weights), (gmm.means, means), (gmm.diag_covs, variances)):
        np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("components", [2, 3])
@pytest.mark.parametrize("spread", [1e-3, 1e-2])
def test_em_keeps_its_accuracy_on_a_tight_cluster_far_from_the_origin(spread, components):
    # mean²/var is 10^12 or 10^10 on the far cluster, where log densities
    # expanded as -x²/2v + x·m/v + const put the trace off by ~4e-5 relative;
    # both EM steps read the centred squares and match the oracle to round-off
    rng = derive_rng(components, "far")
    data = np.vstack([rng.normal(size=(2000, 2)), rng.normal(1e3, spread, size=(500, 2))])
    trace, weights, means, variances = reference_fit_gmm(data, components, seed=0)
    gmm = fit_gmm(data, components, seed=0)
    assert len(gmm.log_likelihoods) == len(trace)
    want = generalized_variance(GmmModel(weights, means, variances))
    assert generalized_variance(gmm) == pytest.approx(want, rel=1e-8)
    np.testing.assert_allclose(gmm.log_likelihoods, trace, rtol=1e-13)
    np.testing.assert_allclose(gmm.diag_covs, variances, rtol=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_em_on_a_tight_cluster_far_from_the_origin_is_monotone(seed):
    # one cluster of spread 1e-3 at 1e3: m²/v is ~10^12 for both components
    data = 1e3 + 1e-3 * np.random.default_rng(seed).standard_normal((500, 2))
    trace, _, _, _ = reference_fit_gmm(data, 2)
    gmm = fit_gmm(data, 2)
    assert len(gmm.log_likelihoods) == len(trace)
    assert np.all(np.diff(gmm.log_likelihoods) >= 0.0)
    np.testing.assert_allclose(gmm.log_likelihoods, trace, rtol=1e-11)


@pytest.mark.parametrize("value", [2.5, True, 2.0])
def test_component_and_pca_counts_must_be_integers(value):
    data = derive_rng(14, "counts").normal(size=(20, 3))
    with pytest.raises(DiversityError, match="^n_components must be a positive integer"):
        fit_gmm(data, value)
    with pytest.raises(DiversityError, match="^n_components must be a positive integer"):
        pca_reduce(data, value)
    with pytest.raises(DiversityError, match="^n_components must be a positive integer"):
        diversity_report({"V0": data}, pca_dim=2, n_components=value)
    with pytest.raises(DiversityError, match="^pca_dim must be a positive integer"):
        diversity_report({"V0": data}, pca_dim=value, n_components=2)

"""The registered invariant checks and their harness."""

import json

import pytest

import chainviews.nn
from chainviews.verification import CHECKS, CheckResult, all_passed, run_checks

EXPECTED_NAMES = [
    "dpi_chains",
    "classifier_bound",
    "gradient_linear",
    "gradient_mlp",
    "gradient_attention",
    "gradient_teacher",
    "gradient_student",
    "permutation_invariance",
    "gmm_monotonic",
    "selection_arithmetic",
]


@pytest.fixture(scope="module")
def full_results():
    return run_checks()


def test_one_record_per_registered_check(full_results):
    assert list(CHECKS) == EXPECTED_NAMES
    assert [r.name for r in full_results] == EXPECTED_NAMES
    assert all(isinstance(r, CheckResult) for r in full_results)


def test_pristine_build_passes_everything(full_results):
    assert all_passed(full_results)
    for result in full_results:
        assert result.passed
        assert result.statistic == result.statistic  # finite, not NaN
        assert result.runtime_seconds >= 0.0
        assert result.detail


def test_results_serialize_to_plain_json(full_results):
    for result in full_results:
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert isinstance(payload["passed"], bool)
        assert isinstance(payload["statistic"], float)
        assert isinstance(payload["threshold"], float)
        assert set(payload) == {"name", "passed", "statistic", "threshold", "detail", "runtime_seconds"}


def test_subset_selection_keeps_request_order():
    results = run_checks(["gmm_monotonic", "selection_arithmetic"])
    assert [r.name for r in results] == ["gmm_monotonic", "selection_arithmetic"]


def test_unknown_check_name_is_rejected():
    with pytest.raises(KeyError, match="unknown checks"):
        run_checks(["gradient_linear", "phlogiston"])


def test_checks_are_seed_deterministic():
    first = run_checks(["selection_arithmetic", "gradient_linear"], seed=3)
    second = run_checks(["selection_arithmetic", "gradient_linear"], seed=3)
    assert [(r.name, r.passed, r.statistic) for r in first] == [
        (r.name, r.passed, r.statistic) for r in second
    ]


def test_all_passed_logic():
    good = CheckResult("a", True, 0.0, 1.0, "", 0.0)
    bad = CheckResult("b", False, 2.0, 1.0, "", 0.0)
    assert all_passed([])
    assert all_passed([good])
    assert not all_passed([good, bad])


def test_sign_flipped_attention_gradient_is_caught(monkeypatch):
    real = chainviews.nn.cross_attention_backward

    def flipped(params, cache, upstream, grads):
        dq, dmemory = real(params, cache, upstream, grads)
        return -dq, dmemory

    monkeypatch.setattr(chainviews.nn, "cross_attention_backward", flipped)
    (result,) = run_checks(["gradient_attention"])
    assert not result.passed
    assert result.statistic > result.threshold

"""Self-contained invariant checks behind the ``verify`` subcommand.

Each check is registered under a short name and returns a record with the
observed statistic and its threshold, so failures are diagnosable from the
emitted report alone. The suite covers the information-theoretic guarantees
(chain profiles never increase; the trained-classifier bound stays below
exact MI), the hand-written gradients, set invariance of the student,
GMM fit monotonicity, and the keep-count arithmetic. The teacher and
student gradient checks build their models at the small width ``_WIDTH``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import nn
from .datamodel import DatasetSchema, ViewBatch, ViewSpec
from .diversity import fit_gmm
from .info import (
    MarkovChainSpec,
    chain_mi_profile,
    random_label_world,
    verify_classifier_bound,
)
from .models import StudentModel, TeacherModel, grad_check
from .rng import derive_rng
from .selection import keep_count


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str
    runtime_seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "detail": self.detail,
            "runtime_seconds": float(self.runtime_seconds),
        }


CHECKS: dict[str, Callable[..., CheckResult]] = {}


def _check(name: str, threshold: float, detail: str, strict: bool = False):
    """Register ``statistic(seed)`` as the check ``name``, in definition order:
    it passes when the statistic is at most ``threshold`` (below it when
    ``strict``), and ``detail`` is formatted with the raw statistic."""
    def register(statistic: Callable[[int], float]) -> Callable[..., CheckResult]:
        def check(seed: int = 0) -> CheckResult:
            start = time.perf_counter()
            value = statistic(seed)
            return CheckResult(
                name=name,
                passed=value < threshold if strict else value <= threshold,
                statistic=float(value),
                threshold=threshold,
                detail=detail.format(value),
                runtime_seconds=time.perf_counter() - start,
            )

        check.__doc__ = statistic.__doc__
        CHECKS[name] = check
        return check

    return register


def _worst(seed: int, stream: str, n: int, case, worst: float = 0.0) -> float:
    """The largest ``case(rng, i)`` over ``n`` cases, case ``i`` drawing from
    its own stream ``(seed, stream, i)``; ``worst`` is the floor."""
    for i in range(n):
        worst = max(worst, case(derive_rng(seed, stream, i), i))
    return worst


@_check("dpi_chains", 1e-9, "max profile increase over 100 random chains")
def check_dpi_chains(seed: int) -> float:
    """Exact MI along random discrete chains never increases."""
    def max_increase(rng, i) -> float:
        length = int(rng.integers(1, 7))
        sizes = [int(rng.integers(2, 9)) for _ in range(length + 1)]
        initial = rng.dirichlet(np.ones(sizes[0]))
        stages = [
            rng.dirichlet(np.ones(sizes[k + 1]), size=sizes[k]) for k in range(length)
        ]
        spec = MarkovChainSpec(initial=initial, stages=stages)
        profile = chain_mi_profile(spec, tol=float("inf"))  # collect raw increases ourselves
        return max((b - a for a, b in zip(profile, profile[1:])), default=-float("inf"))

    return _worst(seed, "verify-dpi", 100, max_increase, -float("inf"))


@_check("classifier_bound", 1.0, "bound > exact + 3·SE in {} of 20 worlds")
def check_classifier_bound(seed: int) -> int:
    """Trained-classifier bound stays at or below exact MI + 3 SEs in all but
    at most one random world."""
    violations = 0
    for i in range(20):
        rng = derive_rng(seed, "verify-bound", i)
        class_count = int(rng.integers(2, 7))
        alphabet = int(rng.integers(2, 9))
        world = random_label_world(class_count, alphabet, seed=int(rng.integers(0, 2**32)))
        report = verify_classifier_bound(world)
        if report.violation:
            violations += 1
    return violations


_SCHEMA = DatasetSchema(
    class_count=3,
    entity_vocab=5,
    u_spec=ViewSpec("vector", 3),
    v_spec=ViewSpec("vector", 4),
)
_WIDTH = 6


def _layer_error(init, forward, backward, sizes: tuple[int, ...]):
    """A case for ``_worst``: one layer of ``sizes`` under softmax
    cross-entropy, its backward against central differences."""
    def case(rng, i) -> float:
        params: dict = {}
        init(params, rng, "layer", *sizes)
        x = rng.normal(size=(1, sizes[0]))
        label = [int(rng.integers(0, sizes[-1]))]

        def loss_fn():
            return float(nn.softmax_xent(forward(params, "layer", x)[0], label)[0][0])

        out, cache = forward(params, "layer", x)
        _, dout = nn.softmax_xent(out, label)
        grads: dict = {}
        backward(params, cache, dout, grads)
        return nn.finite_difference_check(params, loss_fn, grads)

    return case


@_check("gradient_linear", 1e-6, "max relative error over 10 random cases", strict=True)
def check_gradient_linear(seed: int) -> float:
    case = _layer_error(nn.linear_init, nn.linear_forward, nn.linear_backward, (5, 3))
    return _worst(seed, "verify-grad-linear", 10, case)


@_check("gradient_mlp", 1e-4, "max relative error over 10 random cases", strict=True)
def check_gradient_mlp(seed: int) -> float:
    case = _layer_error(nn.mlp_init, nn.mlp_forward, nn.mlp_backward, (4, 6, 3))
    return _worst(seed, "verify-grad-mlp", 10, case)


@_check("gradient_attention", 1e-4, "max relative error over 10 random cases", strict=True)
def check_gradient_attention(seed: int) -> float:
    """Cross-attention gradients, including those w.r.t. the two queries
    (as the student uses it) and the memory."""
    def case(rng, i) -> float:
        d_q, d_m, d_k, d_o, rows = 4, 5, 3, 4, 6
        params: dict = {}
        nn.attention_init(params, rng, "attn", d_q, d_m, d_k, d_o)
        params["attn.query"] = rng.normal(size=(1, 2, d_q))
        params["attn.memory"] = rng.normal(size=(1, rows, d_m))
        probe = rng.normal(size=(1, 2, d_o))

        def loss_fn():
            out, _ = nn.cross_attention(params, "attn", params["attn.query"], params["attn.memory"])
            return float(np.sum(probe * out))

        out, cache = nn.cross_attention(params, "attn", params["attn.query"], params["attn.memory"])
        grads: dict = {}
        inputs = nn.cross_attention_backward(params, cache, probe, grads)
        grads["attn.query"], grads["attn.memory"] = inputs
        return nn.finite_difference_check(params, loss_fn, grads)

    return _worst(seed, "verify-grad-attn", 10, case)


def _random_instance(rng, n_views: int):
    """Label, subject, object, real u view and ``n_views`` synthetic v views
    of one random instance, as model inputs."""
    label = int(rng.integers(0, _SCHEMA.class_count))
    subject = int(rng.integers(0, _SCHEMA.entity_vocab))
    obj = int(rng.integers(0, _SCHEMA.entity_vocab))
    real = ViewBatch("vector", "u", rng.normal(size=(1, _SCHEMA.u_spec.size)))
    synth = ViewBatch("vector", "v", rng.normal(size=(n_views, _SCHEMA.v_spec.size)))
    return [label], subject, obj, real, synth


@_check("gradient_teacher", 1e-4, "max relative error over 10 random models", strict=True)
def check_gradient_teacher(seed: int) -> float:
    def case(rng, i) -> float:
        model = TeacherModel(rng, _SCHEMA, _WIDTH)
        label, subject, obj, _, views = _random_instance(rng, 1)
        return grad_check(model, model.inputs(views, subject, obj), label)

    return _worst(seed, "verify-grad-teacher", 10, case)


@_check("gradient_student", 1e-4, "max relative error over 10 random models", strict=True)
def check_gradient_student(seed: int) -> float:
    def case(rng, i) -> float:
        model = StudentModel(rng, _SCHEMA, _WIDTH)
        label, subject, obj, real, synth = _random_instance(rng, 3)
        return grad_check(model, model.inputs(real, synth, subject, obj), label)

    return _worst(seed, "verify-grad-student", 10, case)


@_check("permutation_invariance", 1e-9, "max |logit delta| over 100 permutations", strict=True)
def check_permutation_invariance(seed: int) -> float:
    """Student logits must ignore the ordering of its synthetic-view set."""
    rng = derive_rng(seed, "verify-perm")
    model = StudentModel(rng, _SCHEMA)
    _, subject, obj, real, synth = _random_instance(rng, 6)
    x_u, x_v, subj, obj = model.inputs(real, synth, subject, obj)
    (base,) = model.logits((x_u, x_v, subj, obj))
    worst = 0.0
    for _ in range(100):
        perm = rng.permutation(x_v.shape[1])
        (logits,) = model.logits((x_u, x_v[:, perm], subj, obj))
        worst = max(worst, float(np.max(np.abs(logits - base))))
    return worst


@_check("gmm_monotonic", 1e-8, "worst log-likelihood drop over 10 fits")
def check_gmm_monotonic(seed: int) -> float:
    """EM log-likelihood never decreases during any recorded fit."""
    def drop(rng, i) -> float:
        centers = rng.normal(scale=3.0, size=(3, 2))
        data = np.concatenate(
            [c + rng.normal(scale=0.7, size=(40, 2)) for c in centers], axis=0
        )
        logliks = np.asarray(fit_gmm(data, n_components=3, seed=i).log_likelihoods)
        return float(np.max(logliks[:-1] - logliks[1:])) if len(logliks) > 1 else 0.0

    return _worst(seed, "verify-gmm", 10, drop)


@_check("selection_arithmetic", 0.0, "exact-ceiling, monotonicity and bound violations")
def check_selection_arithmetic(seed: int) -> int:
    """keep_count is the exact ceiling of fraction*n, decimal semantics."""
    violations = 0
    fractions = [i / 20 for i in range(1, 21)]
    for rho in fractions:
        exact = Fraction(str(rho))
        last = 0
        for n in range(1, 61):
            k = keep_count(rho, n)
            target = exact * n
            if not (k - 1 < target <= k):
                violations += 1
            if k < last or k < 1 or k > n:
                violations += 1
            last = k
    for rho, n, expected in [(0.4, 5, 2), (0.6, 30, 18), (0.6, 90, 54), (0.3, 10, 3), (1.0, 7, 7)]:
        if keep_count(rho, n) != expected:
            violations += 1
    return violations


def run_checks(names: Sequence[str] | None = None, seed: int = 0) -> list[CheckResult]:
    chosen = list(CHECKS) if names is None else list(names)
    unknown = [n for n in chosen if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks {unknown}; registered: {', '.join(CHECKS)}")
    return [CHECKS[name](seed=seed) for name in chosen]


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in results)

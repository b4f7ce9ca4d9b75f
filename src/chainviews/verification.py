"""Self-contained invariant checks behind the ``verify`` subcommand.

Each check is registered under a short name and returns a record with the
observed statistic and its threshold, so failures are diagnosable from the
emitted report alone. The suite covers the information-theoretic guarantees
(chain profiles never increase; the trained-classifier bound stays below
exact MI), the hand-written gradients, set invariance of the student,
GMM fit monotonicity, and the keep-count arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import nn
from .datamodel import DatasetSchema, EntityPair, Instance, Label, ViewBatch, ViewSpec, vector_view
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


def _random_chain_profile(rng) -> list[float]:
    length = int(rng.integers(1, 7))
    sizes = [int(rng.integers(2, 9)) for _ in range(length + 1)]
    initial = rng.dirichlet(np.ones(sizes[0]))
    stages = [
        rng.dirichlet(np.ones(sizes[i + 1]), size=sizes[i]) for i in range(length)
    ]
    spec = MarkovChainSpec(initial=initial, stages=stages)
    return chain_mi_profile(spec, tol=float("inf"))  # collect raw increases ourselves


def check_dpi_chains(seed: int = 0, n_chains: int = 100) -> CheckResult:
    """Exact MI along random discrete chains never increases."""
    start = time.perf_counter()
    worst = -float("inf")
    for i in range(n_chains):
        rng = derive_rng(seed, "verify-dpi", i)
        profile = _random_chain_profile(rng)
        increases = [b - a for a, b in zip(profile, profile[1:])]
        if increases:
            worst = max(worst, max(increases))
    threshold = 1e-9
    return CheckResult(
        name="dpi_chains",
        passed=worst <= threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max profile increase over {n_chains} random chains",
        runtime_seconds=time.perf_counter() - start,
    )


def check_classifier_bound(seed: int = 0, n_worlds: int = 20) -> CheckResult:
    """Trained-classifier bound stays at or below exact MI + 3 SEs in all but
    at most one random world."""
    start = time.perf_counter()
    violations = 0
    for i in range(n_worlds):
        rng = derive_rng(seed, "verify-bound", i)
        class_count = int(rng.integers(2, 7))
        alphabet = int(rng.integers(2, 9))
        world = random_label_world(class_count, alphabet, seed=int(rng.integers(0, 2**32)))
        report = verify_classifier_bound(world)
        if report.violation:
            violations += 1
    allowed = 1.0
    return CheckResult(
        name="classifier_bound",
        passed=violations <= allowed,
        statistic=float(violations),
        threshold=allowed,
        detail=f"bound > exact + 3·SE in {violations} of {n_worlds} worlds",
        runtime_seconds=time.perf_counter() - start,
    )


def _tiny_schema() -> DatasetSchema:
    return DatasetSchema(
        class_count=3,
        entity_vocab=5,
        u_spec=ViewSpec("vector", 3),
        v_spec=ViewSpec("vector", 4),
    )


def _random_instance(rng, schema: DatasetSchema) -> Instance:
    return Instance(
        id=0,
        label=Label(int(rng.integers(0, schema.class_count))),
        entities=EntityPair(
            int(rng.integers(0, schema.entity_vocab)), int(rng.integers(0, schema.entity_vocab))
        ),
        real_view=vector_view(rng.normal(size=schema.u_spec.size), modality="u"),
    )


def check_gradient_linear(seed: int = 0, n_cases: int = 10) -> CheckResult:
    start = time.perf_counter()
    worst = 0.0
    for i in range(n_cases):
        rng = derive_rng(seed, "verify-grad-linear", i)
        params: dict = {}
        nn.linear_init(params, rng, "lin", 5, 3)
        x = rng.normal(size=(1, 5))
        label = [int(rng.integers(0, 3))]

        def loss_fn():
            return float(nn.softmax_xent(nn.linear_forward(params, "lin", x)[0], label)[0][0])

        logits, cache = nn.linear_forward(params, "lin", x)
        _, dlogits = nn.softmax_xent(logits, label)
        grads: dict = {}
        nn.linear_backward(params, cache, dlogits, grads)
        worst = max(worst, nn.finite_difference_check(params, loss_fn, grads))
    threshold = 1e-6
    return CheckResult(
        name="gradient_linear",
        passed=worst < threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max relative error over {n_cases} random cases",
        runtime_seconds=time.perf_counter() - start,
    )


def check_gradient_mlp(seed: int = 0, n_cases: int = 10) -> CheckResult:
    start = time.perf_counter()
    worst = 0.0
    for i in range(n_cases):
        rng = derive_rng(seed, "verify-grad-mlp", i)
        params: dict = {}
        nn.mlp_init(params, rng, "enc", 4, 6, 3)
        x = rng.normal(size=(1, 4))
        label = [int(rng.integers(0, 3))]

        def loss_fn():
            out, _ = nn.mlp_forward(params, "enc", x)
            return float(nn.softmax_xent(out, label)[0][0])

        out, cache = nn.mlp_forward(params, "enc", x)
        _, dout = nn.softmax_xent(out, label)
        grads: dict = {}
        nn.mlp_backward(params, cache, dout, grads)
        worst = max(worst, nn.finite_difference_check(params, loss_fn, grads))
    threshold = 1e-4
    return CheckResult(
        name="gradient_mlp",
        passed=worst < threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max relative error over {n_cases} random cases",
        runtime_seconds=time.perf_counter() - start,
    )


def check_gradient_attention(seed: int = 0, n_cases: int = 10) -> CheckResult:
    """Cross-attention gradients, including those w.r.t. the two queries
    (as the student uses it) and the memory."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(n_cases):
        rng = derive_rng(seed, "verify-grad-attn", i)
        d_q, d_m, d_k, d_o, rows = 4, 5, 3, 4, 6
        params: dict = {}
        nn.attention_init(params, rng, "attn", d_q, d_m, d_k, d_o)
        params["attn.query"] = rng.normal(size=(1, 2, d_q))
        params["attn.keys"] = rng.normal(size=(1, rows, d_m))
        params["attn.values"] = rng.normal(size=(1, rows, d_m))
        probe = rng.normal(size=(1, 2, d_o))

        def loss_fn():
            out, _ = nn.cross_attention(
                params, "attn", params["attn.query"], params["attn.keys"], params["attn.values"]
            )
            return float(np.sum(probe * out))

        out, cache = nn.cross_attention(
            params, "attn", params["attn.query"], params["attn.keys"], params["attn.values"]
        )
        grads: dict = {}
        dq, dk, dv = nn.cross_attention_backward(params, cache, probe, grads)
        grads["attn.query"] = dq
        grads["attn.keys"] = dk
        grads["attn.values"] = dv
        worst = max(worst, nn.finite_difference_check(params, loss_fn, grads))
    threshold = 1e-4
    return CheckResult(
        name="gradient_attention",
        passed=worst < threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max relative error over {n_cases} random cases",
        runtime_seconds=time.perf_counter() - start,
    )


def _teacher_sample(model, rng):
    inst = _random_instance(rng, model.schema)
    e = inst.entities
    views = ViewBatch("vector", "v", rng.normal(size=(1, model.schema.v_spec.size)))
    return model.inputs(views, e.subject, e.object), [inst.label.value]


def _student_sample(model, rng, n_views=3):
    inst = _random_instance(rng, model.schema)
    e = inst.entities
    synth = ViewBatch("vector", "v", rng.normal(size=(n_views, model.schema.v_spec.size)))
    real = ViewBatch("vector", "u", inst.real_view.data[None])
    return model.inputs(real, [synth], e.subject, e.object), [inst.label.value]


def check_gradient_teacher(seed: int = 0, n_cases: int = 10) -> CheckResult:
    start = time.perf_counter()
    schema = _tiny_schema()
    worst = 0.0
    for i in range(n_cases):
        rng = derive_rng(seed, "verify-grad-teacher", i)
        model = TeacherModel(rng, schema, emb_dim=3, enc_hidden=5, enc_dim=4, fuse_hidden=6, fuse_dim=5)
        worst = max(worst, grad_check(model, *_teacher_sample(model, rng)))
    threshold = 1e-4
    return CheckResult(
        name="gradient_teacher",
        passed=worst < threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max relative error over {n_cases} random models",
        runtime_seconds=time.perf_counter() - start,
    )


def check_gradient_student(seed: int = 0, n_cases: int = 10) -> CheckResult:
    start = time.perf_counter()
    schema = _tiny_schema()
    worst = 0.0
    for i in range(n_cases):
        rng = derive_rng(seed, "verify-grad-student", i)
        model = StudentModel(
            rng,
            schema,
            emb_dim=3,
            real_hidden=5,
            real_dim=4,
            synth_hidden=5,
            synth_dim=4,
            query_dim=4,
            key_dim=3,
            value_dim=4,
            ff_hidden=6,
            ff_dim=5,
        )
        worst = max(worst, grad_check(model, *_student_sample(model, rng)))
    threshold = 1e-4
    return CheckResult(
        name="gradient_student",
        passed=worst < threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max relative error over {n_cases} random models",
        runtime_seconds=time.perf_counter() - start,
    )


def check_permutation_invariance(seed: int = 0, n_permutations: int = 100) -> CheckResult:
    """Student logits must ignore the ordering of its synthetic-view set."""
    start = time.perf_counter()
    schema = _tiny_schema()
    rng = derive_rng(seed, "verify-perm")
    model = StudentModel(rng, schema)
    (x_u, x_v, subj, obj), _ = _student_sample(model, rng, n_views=6)
    (base,) = model.logits((x_u, x_v, subj, obj))
    worst = 0.0
    for _ in range(n_permutations):
        perm = rng.permutation(x_v.shape[1])
        (logits,) = model.logits((x_u, x_v[:, perm], subj, obj))
        worst = max(worst, float(np.max(np.abs(logits - base))))
    threshold = 1e-9
    return CheckResult(
        name="permutation_invariance",
        passed=worst < threshold,
        statistic=float(worst),
        threshold=threshold,
        detail=f"max |logit delta| over {n_permutations} permutations",
        runtime_seconds=time.perf_counter() - start,
    )


def check_gmm_monotonic(seed: int = 0, n_fits: int = 10) -> CheckResult:
    """EM log-likelihood never decreases during any recorded fit."""
    start = time.perf_counter()
    worst_drop = 0.0
    for i in range(n_fits):
        rng = derive_rng(seed, "verify-gmm", i)
        centers = rng.normal(scale=3.0, size=(3, 2))
        data = np.concatenate(
            [c + rng.normal(scale=0.7, size=(40, 2)) for c in centers], axis=0
        )
        gmm = fit_gmm(data, n_components=3, seed=i)
        logliks = np.asarray(gmm.log_likelihoods)
        if len(logliks) > 1:
            worst_drop = max(worst_drop, float(np.max(logliks[:-1] - logliks[1:])))
    threshold = 1e-8
    return CheckResult(
        name="gmm_monotonic",
        passed=worst_drop <= threshold,
        statistic=float(worst_drop),
        threshold=threshold,
        detail=f"worst log-likelihood drop over {n_fits} fits",
        runtime_seconds=time.perf_counter() - start,
    )


def check_selection_arithmetic(seed: int = 0) -> CheckResult:
    """keep_count is the exact ceiling of fraction*n, decimal semantics."""
    start = time.perf_counter()
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
    return CheckResult(
        name="selection_arithmetic",
        passed=violations == 0,
        statistic=float(violations),
        threshold=0.0,
        detail="exact-ceiling, monotonicity and bound violations",
        runtime_seconds=time.perf_counter() - start,
    )


CHECKS: dict[str, Callable[..., CheckResult]] = {
    "dpi_chains": check_dpi_chains,
    "classifier_bound": check_classifier_bound,
    "gradient_linear": check_gradient_linear,
    "gradient_mlp": check_gradient_mlp,
    "gradient_attention": check_gradient_attention,
    "gradient_teacher": check_gradient_teacher,
    "gradient_student": check_gradient_student,
    "permutation_invariance": check_permutation_invariance,
    "gmm_monotonic": check_gmm_monotonic,
    "selection_arithmetic": check_selection_arithmetic,
}


def run_checks(names: Sequence[str] | None = None, seed: int = 0) -> list[CheckResult]:
    chosen = list(CHECKS) if names is None else list(names)
    unknown = [n for n in chosen if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks {unknown}; registered: {', '.join(CHECKS)}")
    return [CHECKS[name](seed=seed) for name in chosen]


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in results)

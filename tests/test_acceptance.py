"""End-to-end acceptance checks.

Each test records one ``criterion N: PASS/FAIL`` line (replayed in the
terminal summary, printed live under ``-s``) and then asserts, so a red run
still reports every verdict. The heavyweight ablation study (criterion 7)
takes about ten seconds; everything else is seconds.
"""

import math
import time

import conftest

import numpy as np
import pytest
import yaml
from scipy.stats import binomtest

from chainviews.channels import generate_benchmark, lossy_world_preset
from chainviews.cli import main
from chainviews.datamodel import DatasetSchema, ViewSpec
from chainviews.diversity import (
    GmmModel,
    diversity_report,
    fit_gmm,
    generalized_variance,
    sample_gmm,
)
from chainviews.info import (
    MarkovChainSpec,
    binary_symmetric_world,
    chain_mi_profile,
    exact_mi,
    random_label_world,
    verify_classifier_bound,
)
from chainviews.models import TrainConfig
from chainviews.pipeline import (
    PipelineConfig,
    Scorer,
    compute_metrics,
    curate,
    extract_stages,
    run_ablation,
    run_pipeline,
)
from chainviews.rng import derive_rng
from chainviews.verification import run_checks


def _report(n: int, passed: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


# --- criterion 5/6 share one real run --------------------------------------


@pytest.fixture(scope="module")
def schedule_run():
    world, g_uv, g_vu = lossy_world_preset("clean", seed=0)
    v_spec = g_uv.out_port.spec
    train, schema = generate_benchmark(world, 2, v_spec)
    test, _ = generate_benchmark(world, 2, v_spec, stream="test")
    config = PipelineConfig(
        seed=0,
        ccg_rounds=2,
        initial_views=30,
        keep_fraction=0.6,
        spawn_per_kept=(4, 1),
        train_views=6,
        infer_views=6,
        teacher=TrainConfig(learning_rate=0.05, steps=25, batch_size=32),
        student=TrainConfig(learning_rate=0.05, steps=25, batch_size=32),
    )
    return run_pipeline(train, test, schema, g_uv, g_vu, config, "full"), schema


def test_criterion_1_mi_never_increases_along_chains():
    start = time.perf_counter()
    violations = 0
    worst = -math.inf
    for i in range(100):
        rng = derive_rng(2026, "acceptance-dpi", i)
        length = int(rng.integers(1, 7))
        sizes = [int(rng.integers(2, 9)) for _ in range(length + 1)]
        initial = rng.dirichlet(np.ones(sizes[0]))
        stages = [rng.dirichlet(np.ones(sizes[k + 1]), size=sizes[k]) for k in range(length)]
        profile = chain_mi_profile(MarkovChainSpec(initial=initial, stages=stages), tol=math.inf)
        increases = [b - a for a, b in zip(profile, profile[1:])]
        worst = max(worst, max(increases))
        violations += sum(inc > 1e-9 for inc in increases)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(1, ok, f"{violations} violations over 100 chains, worst increase {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_trained_bound_stays_below_exact_mi():
    start = time.perf_counter()
    clean = 0
    for i in range(20):
        rng = derive_rng(2026, "acceptance-bound", i)
        class_count = int(rng.integers(2, 7))
        alphabet = int(rng.integers(2, 9))
        world = random_label_world(class_count, alphabet, seed=int(rng.integers(0, 2**32)))
        report = verify_classifier_bound(world)
        clean += not report.violation
    elapsed = time.perf_counter() - start
    ok = clean >= 19 and elapsed < 120.0
    _report(2, ok, f"bound ≤ exact + 3·SE in {clean}/20 random worlds, {elapsed:.1f}s")


def test_criterion_3_analytic_gradients_match_finite_differences():
    names = [
        "gradient_linear",
        "gradient_mlp",
        "gradient_attention",
        "gradient_teacher",
        "gradient_student",
    ]
    results = run_checks(names)
    worst = max(r.statistic for r in results)
    ok = all(r.passed for r in results) and worst < 1e-4
    _report(3, ok, f"5 model kinds x 10 cases, worst relative error {worst:.2e}")


def test_criterion_4_student_is_permutation_invariant():
    (result,) = run_checks(["permutation_invariance"])
    ok = result.passed and result.statistic < 1e-9
    _report(4, ok, f"100 permutations, max |Δlogit| {result.statistic:.2e}")


def test_criterion_5_generation_schedule_counts(schedule_run):
    report = schedule_run[0].report
    rounds = [(r.selection_index, r.pool_size, r.kept_size, r.spawned) for r in report.rounds]
    chain = [rounds[0][1], rounds[0][2], rounds[1][1], rounds[1][2], report.final_pool_size]
    ok = rounds == [(0, 30, 18, 4), (1, 90, 54, 1)] and chain == [30, 18, 90, 54, 108]
    _report(5, ok, "pool/kept counts " + "→".join(str(c) for c in chain))


def test_criterion_6_kept_views_never_score_below_discarded(schedule_run):
    result, schema = schedule_run
    ln_c = math.log(schema.class_count)
    checked = 0
    ok = True
    for round_record in result.report.rounds:
        for record in round_record.per_instance:
            losses = dict(zip(record.candidate_ids, record.scores))
            kept = [losses[i] for i in record.kept_ids]
            discarded = [losses[i] for i in record.candidate_ids if i not in set(record.kept_ids)]
            if not discarded:
                continue
            checked += 1
            kept_bound = ln_c - float(np.mean(kept))
            discarded_bound = ln_c - float(np.mean(discarded))
            ok = ok and kept_bound >= discarded_bound
    ok = ok and checked > 0
    _report(6, ok, f"kept-subset bound ≥ discarded-subset bound in all {checked} instance-rounds")


def test_criterion_7_ablation_reproduces_the_method_ordering():
    start = time.perf_counter()
    base = PipelineConfig(
        seed=0,
        ccg_rounds=1,
        initial_views=30,
        spawn_per_kept=(4,),
        keep_fraction=0.5,
        train_views=10,
        infer_views=6,
        teacher=TrainConfig(learning_rate=0.02, steps=260, batch_size=48),
        student=TrainConfig(learning_rate=0.01, steps=450, batch_size=32),
        pca_dim=2,
        gmm_components=2,
    )
    conditions = ("full", "no_ccg", "no_teacher", "unimodal")
    seeds = tuple(range(10))

    def make_data(seed):
        world, g_uv, g_vu = lossy_world_preset("collapse-heavy", seed=seed)
        train, schema = generate_benchmark(world, 20, g_uv.out_port.spec, stream="train")
        test, _ = generate_benchmark(world, 150, g_uv.out_port.spec, stream="test")
        return train, test, schema, g_uv, g_vu

    reports = run_ablation(make_data, base, seeds, conditions)
    f1 = {}
    for report in reports:
        f1.setdefault(report.seed, {})[report.condition] = report.metrics["f1"]
    teacher_wins = sum(f1[s]["full"] > f1[s]["no_teacher"] for s in seeds)
    unimodal_wins = sum(f1[s]["full"] > f1[s]["unimodal"] for s in seeds)
    p_teacher = binomtest(teacher_wins, len(seeds), 0.5, alternative="greater").pvalue
    p_unimodal = binomtest(unimodal_wins, len(seeds), 0.5, alternative="greater").pvalue
    means = {c: float(np.mean([f1[s][c] for s in seeds])) for c in conditions}
    elapsed = time.perf_counter() - start
    ok = (
        p_teacher < 0.05
        and p_unimodal < 0.05
        and means["full"] >= means["no_ccg"]
        and elapsed < 900.0
    )
    _report(
        7,
        ok,
        f"full>no_teacher {teacher_wins}/10 (p={p_teacher:.4f}), "
        f"full>unimodal {unimodal_wins}/10 (p={p_unimodal:.4f}), "
        f"mean F1 full {means['full']:.4f} vs no_ccg {means['no_ccg']:.4f}, {elapsed:.0f}s",
    )


def test_criterion_8_chained_generation_increases_spread():
    start = time.perf_counter()
    wins = {2: 0, 4: 0}
    for seed in range(20):
        world, g_uv, g_vu = lossy_world_preset("noisy", seed=seed)
        instances, schema = generate_benchmark(world, 3, g_uv.out_port.spec)
        config = PipelineConfig(
            seed=seed,
            ccg_rounds=1,
            initial_views=12,
            spawn_per_kept=(2,),
            keep_fraction=0.6,
            train_views=2,
            infer_views=2,
            teacher=TrainConfig(learning_rate=0.02, steps=60, batch_size=24),
        )
        stages = extract_stages(curate(instances, g_uv, g_vu, Scorer(config, schema)), schema)
        for d in (2, 4):
            by_name = {r.stage: r.statistic for r in diversity_report(stages, pca_dim=d, n_components=3, seed=seed)}
            wins[d] += by_name["V1'"] > by_name["V0"]
    elapsed = time.perf_counter() - start
    ok = wins[2] >= 16 and wins[4] >= 16
    _report(8, ok, f"raw round-1 spread beats kept round-0 in {wins[2]}/20 (D=2) and {wins[4]}/20 (D=4) runs, {elapsed:.1f}s")


def test_criterion_9_cli_runs_are_byte_deterministic(tmp_path):
    mapping = {
        "seed": 11,
        "world": {"preset": "clean"},
        "data": {"train_per_class": 2, "test_per_class": 2},
        "pipeline": {
            "initial_views": 4,
            "ccg_rounds": 1,
            "spawn_per_kept": [1],
            "keep_fraction": 0.5,
            "train_views": 2,
            "infer_views": 2,
            "teacher": {"steps": 12, "batch_size": 8, "learning_rate": 0.05},
            "student": {"steps": 15, "batch_size": 8, "learning_rate": 0.05},
        },
    }
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(mapping))
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 8)):
        out_dir = tmp_path / name
        code = main(["run", "--config", str(config_path), "--out", str(out_dir), "--workers", str(workers)])
        assert code == 0
        outputs.append((out_dir / "metrics.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(9, ok, "metric tables byte-identical across reruns and workers 1 vs 8")


def test_criterion_10_estimators_match_independent_oracles():
    rng = derive_rng(2026, "acceptance-oracles")

    # micro metrics against a brute-force confusion matrix
    schema = DatasetSchema(5, 4, ViewSpec("vector", 2), ViewSpec("vector", 2), none_class=0)
    predictions = rng.integers(5, size=200).tolist()
    labels = rng.integers(5, size=200).tolist()
    got = compute_metrics(predictions, labels, schema)
    confusion = np.zeros((5, 5))
    for p, t in zip(predictions, labels):
        confusion[t, p] += 1
    mask = np.arange(5) != schema.none_class
    tp = float(sum(confusion[k, k] for k in range(5) if mask[k]))
    pred_pos = float(confusion[:, mask].sum())
    true_pos = float(confusion[mask, :].sum())
    oracle_precision = tp / pred_pos if pred_pos else 0.0
    oracle_recall = tp / true_pos if true_pos else 0.0
    denom = oracle_precision + oracle_recall
    oracle_f1 = 2 * oracle_precision * oracle_recall / denom if denom else 0.0
    metrics_exact = (
        got["accuracy"] == float(np.mean([p == t for p, t in zip(predictions, labels)]))
        and got["precision"] == oracle_precision
        and got["recall"] == oracle_recall
        and got["f1"] == oracle_f1
    )

    # single-component mixture fit against the closed-form mean and variance
    data = rng.normal(2.0, 1.5, size=(400, 3))
    gmm = fit_gmm(data, 1, seed=3)
    mean_err = float(np.abs(gmm.means[0] - data.mean(axis=0)).max())
    var_err = float(np.abs(gmm.diag_covs[0] - data.var(axis=0)).max())
    gv_err = abs(generalized_variance(gmm) - float(np.prod(data.var(axis=0))))
    gmm_exact = mean_err < 1e-10 and var_err < 1e-10 and gv_err < 1e-10

    # law-of-total-variance determinant against brute-force Monte Carlo
    mixture = GmmModel(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.5]]),
        diag_covs=np.array([[1.0, 0.5], [0.7, 1.2], [0.4, 0.9]]),
        log_likelihoods=(),
    )
    draws = sample_gmm(mixture, 1_000_000, rng)
    mc_det = float(np.linalg.det(np.cov(draws.T)))
    analytic = generalized_variance(mixture)
    mc_rel_err = abs(analytic - mc_det) / mc_det
    mc_ok = mc_rel_err < 0.05

    # exact MI of a binary symmetric channel against direct summation
    world = binary_symmetric_world(0.1)
    got_mi = exact_mi(world.joint())
    direct = 0.0
    for y in (0, 1):
        for v in (0, 1):
            joint = 0.5 * (0.9 if y == v else 0.1)
            direct += joint * math.log(joint / (0.5 * 0.5))
    bsc_ok = abs(got_mi - direct) < 1e-6 and abs(got_mi - 0.3681) < 5e-5

    ok = metrics_exact and gmm_exact and mc_ok and bsc_ok
    _report(
        10,
        ok,
        f"metrics exact={metrics_exact}, one-component fit exact={gmm_exact}, "
        f"MC determinant rel err {mc_rel_err:.3%}, binary channel MI {got_mi:.6f}",
    )

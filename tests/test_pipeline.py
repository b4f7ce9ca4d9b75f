"""Pipeline orchestration: metrics, the selection loop, curate's parity with a run, ablation."""

import io
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainviews.pipeline as pipeline_module
from chainviews.channels import DiscreteChannel, LinearGaussianChannel, generate_benchmark, sample_channel, stack_views
from chainviews.datamodel import (
    EMPTY_POOL,
    MODALITY_U,
    MODALITY_V,
    REAL_PARENT,
    STEP_U_TO_V,
    DatasetSchema,
    Instance,
    Pool,
    ViewBatch,
    ViewSpec,
    dataset_to_string,
    discrete_view,
    read_dataset,
)
from chainviews.models import TeacherModel
from chainviews.nn import log_softmax, softmax_xent
from chainviews.pipeline import (
    CONDITIONS,
    METRIC_COLUMNS,
    PipelineConfig,
    PipelineError,
    Scorer,
    ablation_table,
    compute_metrics,
    condition_config,
    condition_name,
    config_hash,
    curate,
    extract_stages,
    infer,
    metrics_table_text,
    report_to_dict,
    run_ablation,
    run_pipeline,
    save_report,
)
from chainviews.rng import derive_rng
from chainviews.selection import POLICY_NAMES, keep_count, similarity_scores

from conftest import tiny_benchmark, tiny_config, tiny_world


# --- metrics --------------------------------------------------------------------


def confusion_counts(predictions, labels, classes):
    tp = fp = fn = 0
    for c in classes:
        for p, y in zip(predictions, labels):
            tp += p == c and y == c
            fp += p == c and y != c
            fn += y == c and p != c
    return tp, fp, fn


def test_metrics_match_confusion_oracle():
    rng = np.random.default_rng(3)
    schema = DatasetSchema(4, 8, ViewSpec("vector", 2), ViewSpec("vector", 2), none_class=3)
    for _ in range(20):
        preds = rng.integers(0, 4, size=200).tolist()
        labels = rng.integers(0, 4, size=200).tolist()
        got = compute_metrics(preds, labels, schema)
        tp, fp, fn = confusion_counts(preds, labels, [0, 1, 2])
        assert got["accuracy"] == pytest.approx(np.mean(np.array(preds) == np.array(labels)))
        assert got["precision"] == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
        assert got["recall"] == pytest.approx(tp / (tp + fn) if tp + fn else 0.0)
        p, r = got["precision"], got["recall"]
        assert got["f1"] == pytest.approx(2 * p * r / (p + r) if p + r else 0.0)
        assert got["count"] == 200


def test_metrics_perfect_predictions():
    schema = DatasetSchema(3, 6, ViewSpec("vector", 2), ViewSpec("vector", 2))
    got = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], schema)
    assert got["accuracy"] == got["precision"] == got["recall"] == got["f1"] == 1.0


def test_metrics_none_class_excluded_by_default():
    schema = DatasetSchema(3, 6, ViewSpec("vector", 2), ViewSpec("vector", 2), none_class=2)
    preds = [0, 2, 2, 1, 0]
    labels = [0, 1, 2, 2, 0]
    got = compute_metrics(preds, labels, schema)
    assert got["accuracy"] == pytest.approx(0.6)
    assert got["precision"] == pytest.approx(2 / 3)
    assert got["recall"] == pytest.approx(2 / 3)
    assert got["f1"] == pytest.approx(2 / 3)


def test_metrics_all_none_predictions_score_zero():
    schema = DatasetSchema(3, 6, ViewSpec("vector", 2), ViewSpec("vector", 2), none_class=2)
    got = compute_metrics([2, 2, 2, 2], [0, 1, 2, 0], schema)
    assert got["precision"] == 0.0
    assert got["recall"] == 0.0
    assert got["f1"] == 0.0
    assert got["accuracy"] == pytest.approx(0.25)


def test_metrics_without_none_class_micro_equals_accuracy():
    rng = np.random.default_rng(11)
    schema = DatasetSchema(5, 10, ViewSpec("vector", 2), ViewSpec("vector", 2))
    preds = rng.integers(0, 5, size=40).tolist()
    labels = rng.integers(0, 5, size=40).tolist()
    got = compute_metrics(preds, labels, schema)
    assert got["precision"] == pytest.approx(got["accuracy"])
    assert got["recall"] == pytest.approx(got["accuracy"])


def test_metrics_rejects_bad_shapes():
    schema = DatasetSchema(3, 6, ViewSpec("vector", 2), ViewSpec("vector", 2))
    with pytest.raises(ValueError):
        compute_metrics([0, 1], [0], schema)
    with pytest.raises(ValueError):
        compute_metrics([], [], schema)


def test_metrics_reject_predictions_and_labels_that_are_not_integers():
    # truncated, [0.9, 2.7] against [0.2, 2.5] would score accuracy and F1 1.0
    schema = DatasetSchema(3, 6, ViewSpec("vector", 2), ViewSpec("vector", 2))
    with pytest.raises(ValueError, match="prediction 0.9 at row 0 is not an integer class index"):
        compute_metrics([0.9, 2.7], [0.2, 2.5], schema)
    with pytest.raises(ValueError, match="label 0.2 at row 0 is not an integer class index"):
        compute_metrics([0, 2], [0.2, 2.5], schema)
    with pytest.raises(ValueError, match="label True at row 1 is not an integer"):
        compute_metrics([0, 1], [0, True], schema)
    assert compute_metrics(np.array([0, 2]), [0, 2], schema)["f1"] == 1.0


@pytest.mark.parametrize(
    "predictions, labels, message",
    [
        ([0, 1, 9], [0, 7, 2], "prediction 9 at row 2"),  # counted as they stand: F1 0.5
        ([0, 1, 2], [0, 7, 2], "label 7 at row 1"),
        (np.array([0, -1]), np.array([0, 1]), "prediction -1 at row 1"),  # counted as they stand: F1 0.667
    ],
)
def test_metrics_reject_values_outside_the_classes(predictions, labels, message):
    schema = DatasetSchema(4, 6, ViewSpec("vector", 2), ViewSpec("vector", 2))
    with pytest.raises(ValueError, match=rf"^{message} is outside \[0, 4\)$"):
        compute_metrics(predictions, labels, schema)
    assert compute_metrics([0, 3], [0, 3], schema)["f1"] == 1.0


def test_default_config_matches_published_schedule():
    config = PipelineConfig()
    assert config.initial_views == 30
    assert config.keep_fraction == 0.6
    assert config.ccg_rounds == 2
    assert config.spawn_per_kept == (4, 1)
    assert config.train_views == 6
    assert config.infer_views == 6


# --- one shared tiny run ----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run():
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark(seed=0, n_train=4, n_test=6)
    config = tiny_config()
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config)
    return SimpleNamespace(
        result=result,
        train=train_inst,
        test=test_inst,
        schema=schema,
        g_uv=g_uv,
        g_vu=g_vu,
        config=config,
    )


def test_report_schedule_follows_keep_and_spawn(tiny_run):
    # m0=5, keep 0.6, spawn (2, 1): 5 -> keep 3 -> +6 children -> 9 -> keep 6 -> +6 -> 12
    report = tiny_run.result.report
    assert report.ccg_rounds == 2
    assert [(r.selection_index, r.pool_size, r.kept_size, r.spawned) for r in report.rounds] == [
        (0, 5, 3, 2),
        (1, 9, 6, 1),
    ]
    assert report.final_pool_size == 12
    for prev, nxt in zip(report.rounds, report.rounds[1:]):
        assert nxt.pool_size == prev.kept_size * (1 + prev.spawned)
    for record in report.rounds:
        assert record.kept_size == keep_count(tiny_run.config.keep_fraction, record.pool_size)


def test_per_instance_records_are_consistent(tiny_run):
    for record in tiny_run.result.report.rounds:
        assert len(record.per_instance) == len(tiny_run.train)
        for entry in record.per_instance:
            assert len(entry.scores) == len(entry.candidate_ids)
            assert set(entry.kept_ids) <= set(entry.candidate_ids)
            assert len(entry.kept_ids) == record.kept_size


def test_kept_views_have_lower_loss_than_discarded(tiny_run):
    for record in tiny_run.result.report.rounds:
        for entry in record.per_instance:
            kept = set(entry.kept_ids)
            by_id = dict(zip(entry.candidate_ids, entry.scores))
            kept_losses = [by_id[c] for c in entry.candidate_ids if c in kept]
            dropped = [by_id[c] for c in entry.candidate_ids if c not in kept]
            assert max(kept_losses) <= min(dropped)
            assert np.mean(kept_losses) <= np.mean(dropped)


def test_final_pool_views_carry_scores_and_provenance(tiny_run):
    for instance in tiny_run.result.instances:
        pool = instance.synthetic_pool
        assert len(pool) == 5 + 6 * 2 + 6 * 2  # initial + 2 rounds of (u, v) pairs
        losses = pool.teacher_loss[pool.is_v]
        assert not np.isnan(losses).any()  # trailing views get the final teacher's score
        assert np.all(losses >= 0.0)
        assert np.isnan(pool.teacher_loss[~pool.is_v]).all()


def test_fresh_teacher_initialization_differs_per_round(tiny_run):
    schema = tiny_run.schema
    seed = tiny_run.config.seed
    first = TeacherModel(derive_rng(seed, "teacher-init", 0), schema)
    second = TeacherModel(derive_rng(seed, "teacher-init", 1), schema)
    assert any(not np.array_equal(first.params[k], second.params[k]) for k in first.params)


# --- stage extraction -------------------------------------------------------------


def test_extract_stages_counts_and_order(tiny_run):
    stages = extract_stages(tiny_run.result.instances, tiny_run.schema)
    assert list(stages) == ["V0", "V1'", "V1", "V2'"]
    n = len(tiny_run.train)
    assert stages["V0"].shape == (3 * n, 2)  # kept at the first selection
    assert stages["V1'"].shape == (6 * n, 2)  # their children
    assert stages["V1"].shape == (6 * n, 2)  # kept at the second selection
    assert stages["V2'"].shape == (6 * n, 2)


def test_extract_stages_empty_pools():
    train_inst, _, schema, _, _ = tiny_benchmark()
    assert extract_stages(train_inst, schema) == {}


def test_zero_rounds_runs_one_selection_only_pass():
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark()
    config = tiny_config(ccg_rounds=0, spawn_per_kept=())
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config)
    report = result.report
    assert report.ccg_rounds == 0
    assert [(r.pool_size, r.kept_size, r.spawned) for r in report.rounds] == [(5, 3, 0)]
    assert report.final_pool_size == 3
    stages = extract_stages(result.instances, schema)
    assert list(stages) == ["V0"]
    assert stages["V0"].shape == (3 * len(train_inst), 2)


def test_zero_spawn_middle_round_keeps_its_stage():
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark()
    config = tiny_config(ccg_rounds=3, spawn_per_kept=(2, 0, 1))
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config)
    assert [(r.pool_size, r.kept_size, r.spawned) for r in result.report.rounds] == [(5, 3, 2), (9, 6, 0), (6, 4, 1)]
    stages = extract_stages(result.instances, schema)
    n = len(train_inst)
    # selection 1 spawned nothing, so no later view points at what it kept
    assert {name: m.shape[0] for name, m in stages.items()} == {
        "V0": 3 * n, "V1'": 6 * n, "V1": 6 * n, "V2": 4 * n, "V3'": 4 * n
    }
    assert list(stages) == ["V0", "V1'", "V1", "V2", "V3'"]


def test_survival_counts_record_every_verdict(tiny_run):
    # a view faced selection s iff round <= s <= round + survived, and was kept iff s < round + survived
    for record in tiny_run.result.report.rounds:
        s = record.selection_index
        for instance, entry in zip(tiny_run.result.instances, record.per_instance):
            pool = instance.synthetic_pool
            faced = np.flatnonzero(pool.is_v & (pool.round <= s) & (s <= pool.round + pool.survived))
            assert entry.candidate_ids == tuple(faced.tolist())
            assert entry.kept_ids == tuple(i for i in faced.tolist() if s < pool.round[i] + pool.survived[i])


def test_null_round_keeps_everything_and_spawns_nothing():
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark()
    config = tiny_config(ccg_rounds=1, spawn_per_kept=(0,), keep_fraction=1.0, train_views=5)
    report = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config).report
    assert [(r.pool_size, r.kept_size, r.spawned) for r in report.rounds] == [(5, 5, 0)]
    assert report.final_pool_size == 5


def test_keep_all_condition_never_discards():
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark()
    config = condition_config(tiny_config(), "no_teacher")
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config, condition="no_teacher")
    report = result.report
    assert [(r.pool_size, r.kept_size) for r in report.rounds] == [(5, 5), (15, 15)]
    assert report.final_pool_size == 30
    assert report.condition == "no_teacher"
    # no teacher ever trains under this policy, so no view carries a loss
    assert all(np.isnan(inst.synthetic_pool.teacher_loss).all() for inst in result.instances)


def assert_reads_back(instances, schema):
    """The dataset text of ``instances`` passes every check ``read_dataset`` makes."""
    text = dataset_to_string(instances, schema)
    loaded, loaded_schema = read_dataset(io.BytesIO(text.encode("utf-8")))
    assert dataset_to_string(loaded, loaded_schema) == text


@pytest.mark.parametrize("condition", CONDITIONS)
def test_every_condition_writes_valid_pools(tiny_run, condition):
    config = condition_config(tiny_run.config, condition)
    result = run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, config, condition)
    assert_reads_back(result.instances, tiny_run.schema)


# --- edge schedules ------------------------------------------------------------------


def test_keeping_every_view_under_the_teacher():
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark()
    config = tiny_config(keep_fraction=1.0)
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config)
    # 5 -> keep 5 -> +10 -> 15 -> keep 15 -> +15 -> 30, every view scored
    assert [(r.pool_size, r.kept_size) for r in result.report.rounds] == [(5, 5), (15, 15)]
    assert result.report.final_pool_size == 30
    for instance in result.instances:
        pool = instance.synthetic_pool
        assert not np.isnan(pool.teacher_loss[pool.is_v]).any()
        assert pool.survived[pool.round == 0].tolist() == [2] * 5
    assert_reads_back(result.instances, schema)


def test_student_takes_the_whole_live_pool():
    # 5 -> keep 3 -> +6 -> 9 -> keep 6 -> +6: twelve live candidates, all of them picked
    train_inst, test_inst, schema, g_uv, g_vu = tiny_benchmark()
    config = tiny_config(train_views=12)
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config)
    assert result.report.final_pool_size == 12
    with pytest.raises(ValueError, match=r"train_views \(13\) exceeds the 12 candidate views per instance"):
        replace(config, train_views=13)


def test_none_class_is_left_out_of_the_run_metrics():
    world, g_uv, g_vu, v_spec = tiny_world()
    train_inst, schema = generate_benchmark(world, 4, v_spec, stream="train", none_class=0)
    test_inst, _ = generate_benchmark(world, 6, v_spec, stream="test", none_class=0)
    config = tiny_config()
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, config)
    scorer = Scorer(config, schema)
    scorer.teacher = result.teacher
    predictions = infer(result.student, test_inst, g_uv, g_vu, scorer).tolist()
    labels = [inst.label for inst in test_inst]
    assert result.report.metrics == compute_metrics(predictions, labels, schema)
    tp, fp, fn = confusion_counts(predictions, labels, classes=(1, 2))
    precision = tp / (tp + fp) if tp + fp else 0.0
    assert result.report.metrics["precision"] == pytest.approx(precision)
    assert result.report.metrics["recall"] == pytest.approx(tp / (tp + fn))


# --- determinism -------------------------------------------------------------------


def report_sans_timing(report):
    payload = report_to_dict(report)
    payload.pop("timing")
    return payload


def test_reruns_and_worker_counts_agree(tiny_run):
    args = (tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu)
    again = run_pipeline(*args, tiny_run.config)
    threaded = run_pipeline(*args, replace(tiny_run.config, workers=3))
    base = report_sans_timing(tiny_run.result.report)
    assert report_sans_timing(again.report) == base
    assert report_sans_timing(threaded.report) == base
    text = dataset_to_string(tiny_run.result.instances, tiny_run.schema)
    assert dataset_to_string(again.instances, tiny_run.schema) == text
    assert dataset_to_string(threaded.instances, tiny_run.schema) == text


def test_config_digest_ignores_workers():
    # workers, pca_dim and gmm_components are accepted, never read or digested
    one = config_hash({"pipeline": tiny_config(workers=1).to_dict()})
    for inert in ({"workers": 8}, {"pca_dim": 9}, {"gmm_components": 0}, {"pca_dim": "x", "workers": None}):
        assert config_hash({"pipeline": tiny_config(**inert).to_dict()}) == one
        assert not set(inert) & set(tiny_config(**inert).to_dict())
    assert config_hash({"pipeline": tiny_config(seed=8).to_dict()}) != one


# --- curate ----------------------------------------------------------------------


def assert_curate_reproduces_the_run(data, config):
    # curate's pools and last teacher are the run's, and its pools record the
    # report's rounds: the candidates each selection faced, kept and dropped
    schema, g_uv, g_vu = data.schema, data.g_uv, data.g_vu
    run = run_pipeline(data.train, data.test, schema, g_uv, g_vu, config)
    scorer = Scorer(config, schema)
    curated = curate(data.train, g_uv, g_vu, scorer)
    assert dataset_to_string(curated, schema) == dataset_to_string(run.instances, schema)
    teacher = scorer.teacher
    assert (teacher is None) == (run.teacher is None) == (config.policy_name != "teacher_loss")
    if teacher is not None:
        assert all(np.array_equal(teacher.params[k], run.teacher.params[k]) for k in teacher.params)
    pool_size = config.initial_views
    for s, record in enumerate(run.report.rounds):
        # the schedule from keep/spawn arithmetic alone
        kept = pool_size if config.policy_name == "keep_all" else keep_count(config.keep_fraction, pool_size)
        assert (record.selection_index, record.pool_size, record.kept_size) == (s, pool_size, kept)
        for instance, entry in zip(curated, record.per_instance, strict=True):
            pool = instance.synthetic_pool
            faced = pool.is_v & (pool.round <= s) & (s <= pool.round + pool.survived)
            survived = faced & (s < pool.round + pool.survived)
            assert entry.instance_id == instance.id
            assert list(entry.candidate_ids) == np.flatnonzero(faced).tolist()
            assert list(entry.kept_ids) == np.flatnonzero(survived).tolist()
            # a dropped view keeps the loss of the selection that dropped it
            scores, dropped = dict(zip(entry.candidate_ids, entry.scores)), faced & ~survived
            if teacher is not None:
                assert [scores[i] for i in np.flatnonzero(dropped)] == pool.teacher_loss[dropped].tolist()
        pool_size = kept * (1 + record.spawned)
    assert run.report.final_pool_size == pool_size
    # curate's scorer classifies the test split as the run did
    predictions = infer(run.student, data.test, g_uv, g_vu, scorer)
    assert compute_metrics(predictions, [inst.label for inst in data.test], schema) == run.report.metrics


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"policy_name": "similarity"},
        {"policy_name": "random"},
        {"policy_name": "keep_all"},
        {"ccg_rounds": 0, "spawn_per_kept": ()},
        {"infer_full_chain": True},
    ],
    ids=["teacher_loss", "similarity", "random", "keep_all", "no_ccg", "full_chain"],
)
def test_curate_reproduces_the_run(tiny_run, overrides):
    assert_curate_reproduces_the_run(tiny_run, replace(tiny_run.config, **overrides))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spawns=st.lists(st.integers(0, 3), max_size=3),
    keep_fraction=st.sampled_from((0.2, 0.5, 0.6, 1.0)),
    policy_name=st.sampled_from(POLICY_NAMES),
    full_chain=st.booleans(),
    train_views=st.integers(1, 4),
)
def test_curate_reproduces_random_schedules(tiny_run, spawns, keep_fraction, policy_name, full_chain, train_views):
    # every live candidate is scored at the student's pick, so the last
    # selection's survivors and their children bound train_views
    live = tiny_run.config.initial_views
    for spawn in spawns or [0]:
        live = (live if policy_name == "keep_all" else keep_count(keep_fraction, live)) * (1 + spawn)
    config = replace(
        tiny_run.config,
        ccg_rounds=len(spawns),
        spawn_per_kept=tuple(spawns),
        keep_fraction=keep_fraction,
        policy_name=policy_name,
        infer_full_chain=full_chain,
        train_views=min(train_views, live),
    )
    assert_curate_reproduces_the_run(tiny_run, config)


def test_a_run_builds_one_scorer(tiny_run, monkeypatch):
    built = []

    class CountingScorer(Scorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(pipeline_module, "Scorer", CountingScorer)
    run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, tiny_run.config)
    assert len(built) == 1


def instance_lines(instances, schema):
    """Each instance's dataset line, by instance id."""
    lines = dataset_to_string(instances, schema).splitlines()[1:]
    return {inst.id: line for inst, line in zip(instances, lines)}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    train_order=st.permutations(range(12)),
    train_size=st.integers(1, 12),
    test_order=st.permutations(range(18)),
    test_size=st.integers(1, 18),
    spawns=st.lists(st.integers(0, 2), max_size=2),
    policy_name=st.sampled_from(("random", "keep_all")),
    full_chain=st.booleans(),
)
def test_generation_depends_only_on_the_instance_and_round(
    tiny_run, train_order, train_size, test_order, test_size, spawns, policy_name, full_chain
):
    # under policies that score each instance on its own, curating or
    # classifying a shuffled subset reproduces every instance's views
    config = replace(
        tiny_run.config,
        ccg_rounds=len(spawns),
        spawn_per_kept=tuple(spawns),
        policy_name=policy_name,
        infer_full_chain=full_chain,
        initial_views=4,
        infer_views=4,
        train_views=1,  # generation never reads it; a schedule may leave fewer views than the default
    )

    def curated(instances):
        curated = curate(instances, tiny_run.g_uv, tiny_run.g_vu, Scorer(config, tiny_run.schema))
        return instance_lines(curated, tiny_run.schema)

    def generated(instances):
        student = RecordingStudent(tiny_run.schema)
        infer(student, instances, tiny_run.g_uv, tiny_run.g_vu, Scorer(config, tiny_run.schema))
        (call,) = student.calls
        return {inst.id: [row.tobytes() for row in views.data] for inst, views in zip(instances, call)}

    full = curated(tiny_run.train)
    subset = curated([tiny_run.train[i] for i in train_order[:train_size]])
    assert subset == {i: full[i] for i in subset}
    full = generated(tiny_run.test)
    subset = generated([tiny_run.test[i] for i in test_order[:test_size]])
    assert subset == {i: full[i] for i in subset}


def test_children_come_from_one_batch_per_channel_on_the_round_stream(tiny_run):
    # round 0 is the real view's copies through g_uv on ("gen", id, 0); then
    # kept parents parent-major, each repeated spawn times, through g_vu and
    # then g_uv on ("gen", id, 1); (u, v) pairs appended in that order
    config = tiny_config(ccg_rounds=1, spawn_per_kept=(2,), policy_name="random")
    n = config.initial_views
    curated = curate(tiny_run.train[:2], tiny_run.g_uv, tiny_run.g_vu, Scorer(config, tiny_run.schema))
    for new in curated:
        pool = new.synthetic_pool
        round0 = sample_channel(tiny_run.g_uv, stack_views([new.real_view] * n), derive_rng(config.seed, "gen", new.id, 0))
        assert np.array_equal(pool.v.data[:n], round0.data)
        kept = np.flatnonzero(pool.survived[:n]).tolist()
        sources = [i for i in kept for _ in range(2)]
        rng = derive_rng(config.seed, "gen", new.id, 1)
        u_views = sample_channel(tiny_run.g_vu, pool.v_rows(sources), rng)
        v_views = sample_channel(tiny_run.g_uv, u_views, rng)
        assert pool.parent_id[n::2].tolist() == sources
        assert pool.parent_id[n + 1 :: 2].tolist() == list(range(n, len(pool), 2))
        assert pool.step[n:].tolist() == ["v_to_u", "u_to_v"] * len(sources)
        assert np.array_equal(pool.u.data, u_views.data)
        assert np.array_equal(pool.v.data[n:], v_views.data)


def test_one_instance_per_class_with_single_views():
    train, test, schema, g_uv, g_vu = tiny_benchmark(seed=3, n_train=1, n_test=2)
    config = tiny_config(ccg_rounds=1, initial_views=1, spawn_per_kept=(1,), train_views=1, infer_views=1)
    result = run_pipeline(train, test, schema, g_uv, g_vu, config)
    (record,) = result.report.rounds
    assert (record.pool_size, record.kept_size, record.spawned) == (1, 1, 1)
    assert result.report.final_pool_size == 2
    assert [len(inst.synthetic_pool) for inst in result.instances] == [3] * schema.class_count
    assert result.report.metrics["count"] == len(test)


def test_round0_view_counts_and_provenance(tiny_run):
    for m0 in (30, 1):
        config = tiny_config(initial_views=m0, infer_views=1)
        step = pipeline_module._round0(tiny_run.train, tiny_run.g_uv, config).instances_out()
        for instance in step:
            pool = instance.synthetic_pool
            assert len(pool) == m0 and len(pool.v) == m0 and pool.u is None
            assert np.all(pool.round == 0) and np.all(pool.step == STEP_U_TO_V) and np.all(pool.parent_id == REAL_PARENT)
            assert np.isnan(pool.teacher_loss).all() and not pool.survived.any()


def test_single_view_fusion_still_trains(tiny_run):
    config = tiny_config(ccg_rounds=0, spawn_per_kept=(), train_views=1, student=replace(tiny_config().student, steps=10))
    result = run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, config)
    student, instance = result.student, tiny_run.train[0]
    real, synth = stack_views([instance.real_view]), result.instances[0].synthetic_pool.v_rows([0])
    logits = student.logits(student.inputs(real, synth, instance.subject, instance.object))
    assert logits.shape == (1, tiny_run.schema.class_count)


def test_curate_rejects_occupied_pools(tiny_run):
    curated = curate(tiny_run.train, tiny_run.g_uv, tiny_run.g_vu, Scorer(tiny_run.config, tiny_run.schema))
    with pytest.raises(PipelineError, match="already hold"):
        curate(curated, tiny_run.g_uv, tiny_run.g_vu, Scorer(tiny_run.config, tiny_run.schema))


def test_curate_refuses_an_empty_split(tiny_run):
    with pytest.raises(PipelineError, match="a split needs at least one instance"):
        curate([], tiny_run.g_uv, tiny_run.g_vu, Scorer(tiny_run.config, tiny_run.schema))


POOL_COLUMNS = ("round", "step", "parent_id", "teacher_loss", "survived")


def same_pool(a, b):
    """Whether pools ``a`` and ``b`` hold equal columns and view matrices."""
    sides = [(x.data, y.data) for x, y in ((a.v, b.v), (a.u, b.u)) if x is not None or y is not None]
    columns = [(getattr(a, name), getattr(b, name)) for name in POOL_COLUMNS]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in columns + sides)


def test_pool_verdicts_are_copies(tiny_run):
    # the store leaves the instances it was built from as they were, and the
    # pools it hands out are read-only row views of one split-wide array per
    # column, never per-instance copies
    config = tiny_run.config
    after = curate(tiny_run.train, tiny_run.g_uv, tiny_run.g_vu, Scorer(config, tiny_run.schema))
    n = config.initial_views
    for old, new in zip(tiny_run.train, after):
        assert old.synthetic_pool is EMPTY_POOL and (new.id, new.real_view) == (old.id, old.real_view)
        pool = new.synthetic_pool
        assert not np.isnan(pool.teacher_loss[:n]).any() and pool.survived[:n].any()
        for array in [getattr(pool, name) for name in POOL_COLUMNS] + [pool.v.data, pool.u.data]:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            pool.survived[0] = 1
    first, second = (inst.synthetic_pool for inst in after[:2])
    assert first.round is second.round and first.step is second.step  # one layout, shared
    for name in ("parent_id", "teacher_loss", "survived"):
        assert getattr(first, name).base is getattr(second, name).base is not None
    assert first.v.data.base is second.v.data.base is not None


def test_a_run_builds_one_pool_per_train_instance(tiny_run, monkeypatch):
    built, post_init = [], Pool.__post_init__
    monkeypatch.setattr(Pool, "__post_init__", lambda self: built.append(self) or post_init(self))
    result = run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, tiny_run.config)
    assert len(built) == len(tiny_run.train) and [inst.synthetic_pool for inst in result.instances] == built


def test_run_pipeline_refuses_an_empty_split(tiny_run):
    args = (tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, tiny_run.config)
    for condition in ("full", "unimodal"):
        with pytest.raises(PipelineError, match="the train split holds no instances"):
            run_pipeline([], tiny_run.test, *args, condition)
        with pytest.raises(PipelineError, match="the test split holds no instances"):
            run_pipeline(tiny_run.train, [], *args, condition)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("spawns", [(2, 1), (), (2, 0)], ids=["default", "no_ccg", "last_spawns_none"])
def test_only_the_teacher_policy_scores_every_live_candidate(tiny_run, policy_name, spawns):
    # under teacher_loss the rounds leave every v-side view, and so every
    # candidate of the student's pick, with a finite loss; other policies store none
    config = replace(tiny_run.config, policy_name=policy_name, ccg_rounds=len(spawns), spawn_per_kept=spawns)
    for instance in curate(tiny_run.train, tiny_run.g_uv, tiny_run.g_vu, Scorer(config, tiny_run.schema)):
        pool = instance.synthetic_pool
        live = pool.is_v & (pool.round + pool.survived == len(spawns or (0,)))
        if policy_name == "teacher_loss":
            assert live.any() and np.isfinite(pool.teacher_loss[pool.is_v]).all()
        else:
            assert np.isnan(pool.teacher_loss).all()


@pytest.mark.parametrize("policy_name, instance", [("teacher_loss", 2), ("similarity", 0)])
def test_a_channel_that_overflows_leaves_the_student_too_few_scored_views(tiny_run, policy_name, instance):
    # a finite channel whose outputs overflow to inf or NaN: such a view
    # scores NaN under both policies that score views, so the last selection's
    # 3 keepers are an instance's only scored candidates
    huge_vu = LinearGaussianChannel(np.full((2, 2), 1e308), np.zeros(2), 0.3, MODALITY_V, MODALITY_U)
    config = tiny_config(ccg_rounds=1, spawn_per_kept=(2,), train_views=4, policy_name=policy_name)
    with pytest.raises(PipelineError, match=rf"^instance {instance} has 3 scored candidate views, needs 4$"):
        run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, huge_vu, config)


def test_student_pick_skips_views_discarded_by_a_last_selection_that_spawned_nothing(tiny_run, monkeypatch):
    # under the random policy the student is the run's one trained model
    config = tiny_config(
        policy_name="random", spawn_per_kept=(2, 0), train_views=6, student=replace(tiny_config().student, steps=2)
    )
    picked = []
    real_train = pipeline_module.train

    def recording_train(model, inputs, *args, **kwargs):
        picked.extend(inputs[1])
        return real_train(model, inputs, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "train", recording_train)
    result = run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, config)
    rounds = result.report.rounds
    assert [(r.pool_size, r.kept_size, r.spawned) for r in rounds] == [(5, 3, 2), (9, 6, 0)]
    assert len(picked) == len(tiny_run.train)
    for instance, views, entry in zip(result.instances, picked, rounds[-1].per_instance):
        kept = instance.synthetic_pool.v_rows(list(entry.kept_ids)).data
        assert sorted(v.tobytes() for v in views) == sorted(row.tobytes() for row in kept)


# --- identity channels -------------------------------------------------------------


def identity_world():
    spec = ViewSpec("discrete", 4)
    eye = np.eye(4)
    g_uv = DiscreteChannel(eye, "u", "v")
    g_vu = DiscreteChannel(eye, "v", "u")
    schema = DatasetSchema(2, 4, spec, spec)
    instances = [
        Instance(id=i, label=i % 2, subject=i % 4, object=(i + 1) % 4, real_view=discrete_view([i % 2] * 3, "u"))
        for i in range(4)
    ]
    return instances, schema, g_uv, g_vu


def test_identity_channels_copy_the_real_view_everywhere():
    instances, schema, g_uv, g_vu = identity_world()
    config = tiny_config(
        initial_views=3,
        ccg_rounds=1,
        spawn_per_kept=(1,),
        keep_fraction=0.5,
        train_views=2,
        infer_views=2,
        teacher=replace(tiny_config().teacher, steps=10),
        student=replace(tiny_config().student, steps=10),
    )
    result = run_pipeline(instances, instances, schema, g_uv, g_vu, config)
    scorer = Scorer(config, schema)
    scorer.teacher = result.teacher
    for instance in result.instances:
        for side in (instance.synthetic_pool.v, instance.synthetic_pool.u):
            assert np.all(side.data == instance.real_view.data)
    # identical inputs at train and test time give the training-time prediction
    predicted = infer(result.student, instances, g_uv, g_vu, scorer)
    for instance, label in zip(instances, predicted, strict=True):
        synthetic = stack_views([ViewBatch("discrete", "v", instance.real_view.data)] * config.infer_views)
        inputs = result.student.inputs(instance.real_view, synthetic, instance.subject, instance.object)
        train_time = int(np.argmax(result.student.logits(inputs)))
        assert label == train_time


# --- inference ---------------------------------------------------------------------


def per_instance(real, synth):
    """A student's flat batch ``synth`` cut into one batch per real view."""
    n = len(synth) // len(real)
    assert len(synth) == n * len(real) and n > 0
    return [synth.take(np.arange(k * n, (k + 1) * n)) for k in range(len(real))]


class RecordingStudent:
    """Records each classify call's chosen view batches, one per instance,
    and predicts class 1 for every instance."""

    def __init__(self, schema):
        self.schema = schema
        self.calls = []

    def inputs(self, real, synth, subj, obj):
        assert len(real) == len(subj) == len(obj)
        self.calls.append(per_instance(real, synth))
        return (len(real),)

    def logits(self, inputs):
        (n,) = inputs
        return np.tile([0.0, 1.0, 0.0], (n, 1))


def generated_views(instance, g_uv, config):
    rng = derive_rng(config.seed, "infer-gen", instance.id)
    return sample_channel(g_uv, stack_views([instance.real_view] * config.initial_views), rng)


def test_infer_without_teacher_takes_the_first_views(tiny_run):
    config = tiny_config(initial_views=5, infer_views=2)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[0]
    labels = infer(student, [instance], tiny_run.g_uv, None, Scorer(config, tiny_run.schema))
    assert labels.tolist() == [1]
    expected = generated_views(instance, tiny_run.g_uv, config).data[:2]
    ((got,),) = student.calls
    assert len(got) == 2
    assert got.modality == "v"
    for row, want in zip(got.data, expected):
        assert np.array_equal(row, want)


def test_infer_with_teacher_keeps_most_confident_views(tiny_run):
    config = tiny_config(initial_views=6, infer_views=3)
    teacher = TeacherModel(derive_rng(99, "probe"), tiny_run.schema)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[1]
    scorer = Scorer(config, tiny_run.schema)
    scorer.teacher = teacher
    infer(student, [instance], tiny_run.g_uv, None, scorer)
    views = generated_views(instance, tiny_run.g_uv, config)
    logits = teacher.logits(teacher.inputs(views, instance.subject, instance.object))
    scores = list(-np.max(log_softmax(logits), axis=1))
    order = sorted(range(len(views)), key=lambda i: (scores[i], i))
    ((got,),) = student.calls
    assert len(got) == 3
    for row, want_idx in zip(got.data, order[:3]):
        assert np.array_equal(row, views.data[want_idx])


def test_infer_full_chain_round_trips_each_view(tiny_run):
    config = tiny_config(initial_views=3, infer_views=3, infer_full_chain=True)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[3]
    infer(student, [instance], tiny_run.g_uv, tiny_run.g_vu, Scorer(config, tiny_run.schema))
    rng = derive_rng(config.seed, "infer-gen", instance.id)
    expected = sample_channel(tiny_run.g_uv, stack_views([instance.real_view] * 3), rng)
    for _ in range(config.ccg_rounds):
        expected = sample_channel(tiny_run.g_uv, sample_channel(tiny_run.g_vu, expected, rng), rng)
    ((got,),) = student.calls
    for row, want in zip(got.data, expected.data):
        assert np.array_equal(row, want)
    plain = generated_views(instance, tiny_run.g_uv, config)
    assert not np.array_equal(got.data[0], plain.data[0])


def test_infer_full_chain_needs_the_return_channel(tiny_run):
    config = tiny_config(infer_full_chain=True)
    student = RecordingStudent(tiny_run.schema)
    with pytest.raises(PipelineError, match="g_vu"):
        infer(student, tiny_run.test[:1], tiny_run.g_uv, None, Scorer(config, tiny_run.schema))
    assert student.calls == []


def best_first(scores, k):
    """Reference ranking in plain Python: the indices of the ``k`` lowest
    scores, best first, equal scores by index."""
    return sorted(range(len(scores)), key=lambda i: (scores[i], i))[:k]


def reference_infer(student, instance, g_uv, g_vu, scorer):
    """One test instance on its own: its stream, ``best_first`` over its
    scores and a batch-of-one student. Returns the label and the chosen
    views' bytes."""
    config = scorer.config
    rng = derive_rng(config.seed, "infer-gen", instance.id)
    views = sample_channel(g_uv, stack_views([instance.real_view] * config.initial_views), rng)
    if config.infer_full_chain:
        for _ in range(config.ccg_rounds):
            views = sample_channel(g_uv, sample_channel(g_vu, views, rng), rng)
    if config.policy_name == "teacher_loss" and scorer.teacher is not None:
        logits = scorer.teacher.logits(scorer.teacher.inputs(views, instance.subject, instance.object))
        scores = (-np.max(log_softmax(logits), axis=1)).tolist()
    elif config.policy_name == "teacher_loss":
        scores = [0.0] * len(views)  # no teacher yet: the views tie
    elif config.policy_name == "similarity":
        scores = similarity_scores(views, stack_views([instance.real_view] * len(views)), scorer.embedder)
    else:  # random, and keep_all, which picks as random does
        scores = derive_rng(config.seed, "random-selection", "infer-pick", instance.id).random(len(views))
    chosen = views.take(best_first(scores, config.infer_views))
    (logits,) = student.logits(student.inputs(instance.real_view, chosen, instance.subject, instance.object))
    return int(np.argmax(logits)), chosen.data.tobytes()


class SpyStudent:
    """A real student that also records the chosen views of each call."""

    def __init__(self, student):
        self.student = student
        self.chosen = []

    def inputs(self, real, synth, subj, obj):
        self.chosen.extend(views.data.tobytes() for views in per_instance(real, synth))
        return self.student.inputs(real, synth, subj, obj)

    def logits(self, inputs):
        return self.student.logits(inputs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    order=st.permutations(range(18)),
    size=st.integers(1, 18),
    policy_name=st.sampled_from(POLICY_NAMES),
    with_teacher=st.booleans(),
    full_chain=st.booleans(),
)
def test_batched_infer_matches_one_instance_at_a_time(tiny_run, order, size, policy_name, with_teacher, full_chain):
    config = replace(tiny_run.config, policy_name=policy_name, infer_full_chain=full_chain)
    scorer = Scorer(config, tiny_run.schema)
    scorer.teacher = tiny_run.result.teacher if with_teacher else None
    split = [tiny_run.test[i] for i in order[:size]]
    args = (tiny_run.g_uv, tiny_run.g_vu, scorer)
    expected = [reference_infer(tiny_run.result.student, instance, *args) for instance in split]
    spy = SpyStudent(tiny_run.result.student)
    assert infer(spy, split, *args).tolist() == [label for label, _ in expected]
    assert spy.chosen == [chosen for _, chosen in expected]


def test_infer_labels_do_not_depend_on_the_teacher_chunks(tiny_run):
    # at 8 views per instance a chunk holds a whole number of instances; the
    # first instances' labels and views stay put as the split crosses a
    # chunk boundary, and match the one-at-a-time reference there
    config = replace(tiny_run.config, initial_views=8)
    per_chunk, rest = divmod(pipeline_module.SCORE_CHUNK_ROWS, config.initial_views)
    assert rest == 0 and per_chunk > 1
    world, g_uv, g_vu, v_spec = tiny_world()
    split, _ = generate_benchmark(world, per_chunk // tiny_run.schema.class_count + 1, v_spec, stream="test")
    scorer = Scorer(config, tiny_run.schema)
    scorer.teacher = tiny_run.result.teacher
    spy = SpyStudent(tiny_run.result.student)
    labels = infer(spy, split[: per_chunk + 1], g_uv, g_vu, scorer).tolist()
    chosen = spy.chosen
    assert len(labels) == len(chosen) == per_chunk + 1
    for n in (1, per_chunk - 1, per_chunk):
        spy.chosen = []
        assert infer(spy, split[:n], g_uv, g_vu, scorer).tolist() == labels[:n]
        assert spy.chosen == chosen[:n]
    for i in (0, per_chunk - 2, per_chunk - 1, per_chunk):
        assert (labels[i], chosen[i]) == reference_infer(tiny_run.result.student, split[i], g_uv, g_vu, scorer)


@pytest.mark.parametrize("chunk_rows", [1, 7, 2048])
def test_every_generated_view_is_scored_whatever_the_chunk(tiny_run, monkeypatch, chunk_rows):
    monkeypatch.setattr(pipeline_module, "SCORE_CHUNK_ROWS", chunk_rows)
    config = replace(tiny_run.config, initial_views=6)
    scorer = Scorer(config, tiny_run.schema)
    scorer.teacher = tiny_run.result.teacher
    args = (tiny_run.g_uv, tiny_run.g_vu, scorer)
    expected = [reference_infer(tiny_run.result.student, instance, *args) for instance in tiny_run.test]
    spy = SpyStudent(tiny_run.result.student)
    assert infer(spy, tiny_run.test, *args).tolist() == [label for label, _ in expected]
    assert spy.chosen == [chosen for _, chosen in expected]


def test_infer_of_no_instances_is_empty(tiny_run):
    student = RecordingStudent(tiny_run.schema)
    labels = infer(student, [], tiny_run.g_uv, None, Scorer(tiny_run.config, tiny_run.schema))
    assert labels.dtype == np.int64 and labels.shape == (0,)
    assert student.calls == []


def test_run_pipeline_rejects_occupied_pools(tiny_run):
    with pytest.raises(PipelineError, match="already hold"):
        run_pipeline(
            tiny_run.result.instances, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, tiny_run.config
        )


def test_confidence_loss_is_best_case_over_labels(tiny_run):
    teacher = TeacherModel(derive_rng(5, "probe"), tiny_run.schema)
    scorer = Scorer(tiny_config(initial_views=10, infer_views=4), tiny_run.schema)
    scorer.teacher = teacher
    instance = tiny_run.test[0]
    views = sample_channel(tiny_run.g_uv, stack_views([instance.real_view] * 10), derive_rng(50, "aux"))
    logits = teacher.logits(teacher.inputs(views, instance.subject, instance.object))
    confidence = -np.max(log_softmax(logits), axis=1)
    losses, _ = softmax_xent(logits, [instance.label] * len(views))
    assert np.all(confidence <= losses + 1e-12)
    (picked,) = scorer.pick([instance], views)
    assert picked.tolist() == best_first(confidence.tolist(), 4)


def test_trailing_scores_are_one_teacher_call_matching_each_instance_alone(tiny_run, monkeypatch):
    # after the last teacher trains, one logits call scores the children of
    # the last selection, every instance's rows at once; each row's loss is
    # that of its instance scored alone
    events, logits, train = [], TeacherModel.logits, pipeline_module.train

    def recording_train(*args, **kwargs):
        trained = train(*args, **kwargs)
        events.append("trained")
        return trained

    monkeypatch.setattr(pipeline_module, "train", recording_train)
    monkeypatch.setattr(TeacherModel, "logits", lambda self, inputs: events.append(len(inputs[0])) or logits(self, inputs))
    scorer = Scorer(tiny_run.config, tiny_run.schema)
    curated = curate(tiny_run.train, tiny_run.g_uv, tiny_run.g_vu, scorer)
    pools = [instance.synthetic_pool for instance in curated]
    ids = [np.flatnonzero(pool.is_v & (pool.round == tiny_run.config.ccg_rounds)) for pool in pools]
    last = len(events) - 1 - events[::-1].index("trained")
    assert events[last + 1 :] == [sum(map(len, ids))] and len(ids[0])
    teacher = scorer.teacher
    for instance, trailing in zip(curated, ids):
        pool = instance.synthetic_pool
        alone = logits(teacher, teacher.inputs(pool.v_rows(trailing), instance.subject, instance.object))
        expected, _ = softmax_xent(alone, [instance.label] * len(trailing))
        np.testing.assert_allclose(pool.teacher_loss[trailing], expected, rtol=1e-12, atol=0)


# --- conditions and ablation --------------------------------------------------------


def test_condition_config_mapping():
    base = tiny_config()
    assert condition_config(base, "full") is base
    assert condition_config(base, "unimodal") is base
    no_ccg = condition_config(base, "no_ccg")
    assert no_ccg.ccg_rounds == 0 and no_ccg.spawn_per_kept == ()
    assert condition_config(base, "similarity_teacher").policy_name == "similarity"
    assert condition_config(base, "random_teacher").policy_name == "random"
    assert condition_config(base, "no_teacher").policy_name == "keep_all"
    with pytest.raises(PipelineError, match="unknown condition"):
        condition_config(base, "mystery")


def test_condition_name_inverts_condition_config():
    base = tiny_config()
    for condition in CONDITIONS:
        if condition != "unimodal":
            assert condition_name(condition_config(base, condition)) == condition
    # a policy's condition wins over no_ccg, as a plain run with no rounds names it
    no_rounds = condition_config(base, "no_ccg")
    assert condition_name(condition_config(no_rounds, "random_teacher")) == "random_teacher"


def test_run_pipeline_rejects_unknown_condition(tiny_run):
    with pytest.raises(PipelineError, match="unknown condition"):
        run_pipeline(
            tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, tiny_run.config, "bogus"
        )


def test_unimodal_condition_ignores_the_channels(tiny_run):
    result = run_pipeline(
        tiny_run.train, tiny_run.test, tiny_run.schema, None, None, tiny_run.config, "unimodal"
    )
    assert result.report.condition == "unimodal"
    assert result.report.final_pool_size == 0
    assert result.report.rounds == ()
    assert all(not inst.synthetic_pool for inst in result.instances)
    assert 0.0 <= result.report.metrics["accuracy"] <= 1.0


def ablation_setup():
    def make_data(seed):
        return tiny_benchmark(seed=seed, n_train=2, n_test=2)

    base = tiny_config(
        initial_views=4,
        ccg_rounds=1,
        spawn_per_kept=(1,),
        train_views=3,
        infer_views=2,
        teacher=replace(tiny_config().teacher, steps=10),
        student=replace(tiny_config().student, steps=15),
    )
    return make_data, base


def test_run_ablation_rows_and_means():
    make_data, base = ablation_setup()
    reports = run_ablation(make_data, base, seeds=(0, 1), conditions=("no_teacher", "unimodal"))
    assert [(r.condition, r.seed) for r in reports] == [
        ("no_teacher", 0),
        ("unimodal", 0),
        ("no_teacher", 1),
        ("unimodal", 1),
    ]
    train, test, schema, g_uv, g_vu = make_data(1)
    config = condition_config(replace(base, seed=1), "no_teacher")
    alone = run_pipeline(train, test, schema, g_uv, g_vu, config, "no_teacher")
    assert report_sans_timing(reports[2]) == report_sans_timing(alone.report)

    table = ablation_table(reports)
    assert [row["condition"] for row in table] == [
        "no_teacher",
        "unimodal",
        "no_teacher",
        "unimodal",
        "no_teacher_mean",
        "unimodal_mean",
    ]
    for condition in ("no_teacher", "unimodal"):
        group = [r.metrics for r in reports if r.condition == condition]
        mean_row = next(row for row in table if row["condition"] == f"{condition}_mean")
        for column in ("accuracy", "precision", "recall", "f1"):
            assert mean_row[column] == pytest.approx(np.mean([m[column] for m in group]))


def test_run_ablation_rejects_unknown_condition():
    make_data, base = ablation_setup()
    with pytest.raises(PipelineError, match="unknown condition"):
        run_ablation(make_data, base, seeds=(0,), conditions=("full", "bogus"))


def test_conditions_tuple_is_the_closed_set():
    assert CONDITIONS == ("full", "no_ccg", "similarity_teacher", "random_teacher", "no_teacher", "unimodal")


# --- tables and serialization ---------------------------------------------------------


def test_metrics_table_text_is_pinned():
    rows = [
        {"condition": "full", "accuracy": 0.5, "precision": 1 / 3, "recall": 1.0, "f1": 0.5},
        {"condition": "full_mean", "accuracy": 1.0, "precision": 0.25, "recall": 0.75, "f1": 0.875},
    ]
    text = metrics_table_text(rows)
    assert text == (
        "condition,accuracy,precision,recall,f1\n"
        "full,0.5,0.3333333333333333,1.0,0.5\n"
        "full_mean,1.0,0.25,0.75,0.875\n"
    )
    assert ",".join(METRIC_COLUMNS) == text.splitlines()[0]


REPORT_KEYS = ["condition", "config_digest", "seed", "ccg_rounds", "final_pool_size", "metrics", "rounds", "timing"]


def test_report_keys_keep_the_report_json_order(tiny_run):
    payload = report_to_dict(tiny_run.result.report)
    assert list(payload) == REPORT_KEYS
    assert len(payload["rounds"]) == tiny_run.config.ccg_rounds
    for record in payload["rounds"]:
        assert list(record) == ["selection_index", "pool_size", "kept_size", "spawned", "per_instance"]
        for selection in record["per_instance"]:
            assert list(selection) == ["instance_id", "candidate_ids", "scores", "kept_ids"]
            assert all(type(selection[key]) is list for key in ("candidate_ids", "scores", "kept_ids"))
    unimodal = run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, None, None, tiny_run.config, "unimodal")
    payload = report_to_dict(unimodal.report)
    assert list(payload) == REPORT_KEYS
    assert payload["rounds"] == []


def test_report_round_trips_through_json(tiny_run, tmp_path):
    path = tmp_path / "report.json"
    save_report(tiny_run.result.report, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1  # one line
    assert json.loads(text) == report_to_dict(tiny_run.result.report)
    payload = json.loads(text)
    assert payload["condition"] == "full"
    assert payload["metrics"]["count"] == len(tiny_run.test)
    assert {r["selection_index"] for r in payload["rounds"]} == {0, 1}


# --- end-to-end quality on the easy preset ----------------------------------------------


def test_clean_preset_reaches_high_accuracy_with_default_budgets():
    from chainviews.channels import generate_benchmark, lossy_world_preset

    world, g_uv, g_vu = lossy_world_preset("clean", seed=5)
    v_spec = g_uv.out_port.spec
    train_inst, schema = generate_benchmark(world, 10, v_spec, stream="train")
    test_inst, _ = generate_benchmark(world, 15, v_spec, stream="test")
    result = run_pipeline(train_inst, test_inst, schema, g_uv, g_vu, PipelineConfig(seed=5))
    assert result.report.metrics["accuracy"] > 0.9  # pilot on this fixture measured 1.0


# --- config validation ----------------------------------------------------------------


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match=r"spawn_per_kept must be a tuple .*\(ccg_rounds=1\), got tuple \(2, 1\)"):
        tiny_config(ccg_rounds=1)
    with pytest.raises(ValueError, match=r"spawn_per_kept must be a tuple .*\(ccg_rounds=2\), got list \[2, 1\]"):
        tiny_config(spawn_per_kept=[2, 1])
    with pytest.raises(ValueError, match="non-negative"):
        tiny_config(ccg_rounds=1, spawn_per_kept=(-1,))
    with pytest.raises(ValueError, match="ccg_rounds"):
        tiny_config(ccg_rounds=-1, spawn_per_kept=())
    with pytest.raises(ValueError, match="initial_views must be a positive integer"):
        tiny_config(initial_views=0)
    with pytest.raises(ValueError, match=r"infer_views \(8\) must not exceed initial_views \(5\)"):
        tiny_config(initial_views=5, infer_views=8)
    assert tiny_config(initial_views=5, infer_views=5).infer_views == 5
    # the student picks from what the schedule leaves: 5 -> keep 3 with no
    # rounds; 5 -> 15 -> 30 when keep_all keeps every view
    with pytest.raises(ValueError, match=r"^train_views \(4\) exceeds the 3 candidate views per instance"):
        tiny_config(ccg_rounds=0, spawn_per_kept=(), train_views=4)
    assert tiny_config(ccg_rounds=0, spawn_per_kept=(), train_views=3).train_views == 3
    with pytest.raises(ValueError, match=r"^train_views \(31\) exceeds the 30 candidate views per instance"):
        tiny_config(policy_name="keep_all", keep_fraction=0.1, train_views=31)
    assert tiny_config(policy_name="keep_all", keep_fraction=0.1, train_views=30).train_views == 30
    with pytest.raises(ValueError):
        tiny_config(policy_name="mystery")
    with pytest.raises(ValueError):
        tiny_config(keep_fraction=0.0)

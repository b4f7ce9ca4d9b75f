"""Pipeline orchestration: metrics, the selection loop, stepwise parity, ablation."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chainviews.channels import DiscreteChannel, Port, sample_channel
from chainviews.datamodel import (
    REAL_PARENT,
    STEP_U_TO_V,
    DatasetSchema,
    EntityPair,
    Instance,
    Label,
    ViewSpec,
    dataset_to_string,
    discrete_view,
    vector_view,
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
    config_hash,
    extract_stages,
    infer,
    metrics_table_text,
    report_to_dict,
    run_ablation,
    run_ccg_round,
    run_pipeline,
    run_round0,
    save_report,
    score_trailing,
    stage_diversity,
    train_student,
)
from chainviews.rng import derive_rng
from chainviews.selection import keep_count

from conftest import tiny_benchmark, tiny_config


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
    # counting the none class turns micro precision/recall into plain accuracy
    full = compute_metrics(preds, labels, schema, include_none=True)
    assert full["precision"] == pytest.approx(0.6)
    assert full["recall"] == pytest.approx(0.6)
    assert full["f1"] == pytest.approx(0.6)


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
        assert len(instance.synthetic_pool) == 5 + 6 * 2 + 6 * 2  # initial + 2 rounds of (u, v) pairs
        for sv in instance.synthetic_pool:
            if sv.step == STEP_U_TO_V:
                assert sv.teacher_loss is not None  # trailing views get the final teacher's score
                assert sv.teacher_loss >= 0.0


def test_fresh_teacher_initialization_differs_per_round(tiny_run):
    schema = tiny_run.schema
    seed = tiny_run.config.seed
    first = TeacherModel(derive_rng(seed, "teacher-init", 0), schema)
    second = TeacherModel(derive_rng(seed, "teacher-init", 1), schema)
    assert any(not np.array_equal(first.params[k], second.params[k]) for k in first.params)


def test_warm_start_changes_later_rounds_only(tiny_run):
    config = replace(tiny_run.config, teacher_warm_start=True)
    warm = run_pipeline(tiny_run.train, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, config)
    cold_rounds = tiny_run.result.report.rounds
    warm_rounds = warm.report.rounds
    for cold_entry, warm_entry in zip(cold_rounds[0].per_instance, warm_rounds[0].per_instance):
        assert cold_entry.scores == warm_entry.scores
    assert any(
        cold_entry.scores != warm_entry.scores
        for cold_entry, warm_entry in zip(cold_rounds[1].per_instance, warm_rounds[1].per_instance)
    )


# --- stage extraction -------------------------------------------------------------


def test_extract_stages_counts_and_order(tiny_run):
    stages = extract_stages(tiny_run.result.instances, tiny_run.schema)
    assert list(stages) == ["V0", "V1'", "V1", "V2'"]
    n = len(tiny_run.train)
    assert stages["V0"].shape == (3 * n, 2)  # kept at the first selection
    assert stages["V1'"].shape == (6 * n, 2)  # their children
    assert stages["V1"].shape == (6 * n, 2)  # kept at the second selection
    assert stages["V2'"].shape == (6 * n, 2)
    names = [d.stage for d in tiny_run.result.report.diversity]
    assert names == ["V0", "V1'", "V1", "V2'"]


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
    assert [d.stage for d in report.diversity] == ["V0"]


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
    assert all(
        sv.teacher_loss is None for inst in result.instances for sv in inst.synthetic_pool
    )


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
    one = config_hash({"pipeline": tiny_config(workers=1).to_dict()})
    eight = config_hash({"pipeline": tiny_config(workers=8).to_dict()})
    assert one == eight
    assert config_hash({"pipeline": tiny_config(seed=8).to_dict()}) != one


# --- stepwise building blocks ------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"policy_name": "similarity"},
        {"policy_name": "random"},
        {"policy_name": "keep_all"},
        {"ccg_rounds": 0, "spawn_per_kept": ()},
        {"teacher_warm_start": True, "infer_full_chain": True},
    ],
    ids=["teacher_loss", "similarity", "random", "keep_all", "no_ccg", "warm_full_chain"],
)
def test_stepwise_calls_reproduce_the_orchestrated_run(tiny_run, overrides):
    config = replace(tiny_run.config, **overrides)
    schema, g_uv, g_vu = tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu
    orchestrated = run_pipeline(tiny_run.train, tiny_run.test, schema, g_uv, g_vu, config)

    scorer = Scorer(config.policy_name, schema, config.seed, warm_start=config.teacher_warm_start)
    rounds = []
    step = run_round0(tiny_run.train, g_uv, config)
    assert all(len(inst.synthetic_pool) == config.initial_views for inst in step)
    for round_index, spawn in enumerate(config.spawn_per_kept or (0,), start=1):
        step = run_ccg_round(
            step, round_index, g_vu, g_uv, spawn, config.teacher, config.keep_fraction, schema,
            seed=config.seed, scorer=scorer, rounds=rounds,
        )
    # the schedule from keep/spawn arithmetic alone
    pool_size = config.initial_views
    for record in rounds:
        kept = pool_size if config.policy_name == "keep_all" else keep_count(config.keep_fraction, pool_size)
        assert (record.pool_size, record.kept_size) == (pool_size, kept)
        pool_size = kept * (1 + record.spawned)
    teacher = scorer.teacher
    assert (teacher is None) == (orchestrated.teacher is None) == (config.policy_name != "teacher_loss")
    if teacher is not None:
        assert all(np.array_equal(teacher.params[k], orchestrated.teacher.params[k]) for k in teacher.params)
        # scoring the trailing views on the fly trains the same student
        on_the_fly = train_student(step, config.train_views, config.student, schema, seed=config.seed, teacher=teacher)
        assert all(np.array_equal(on_the_fly.params[k], orchestrated.student.params[k]) for k in on_the_fly.params)
        step = score_trailing(step, teacher)
    student = train_student(
        step, config.train_views, config.student, schema, seed=config.seed,
        policy_name=config.policy_name, fresh_round=len(rounds),
    )
    assert all(np.array_equal(student.params[k], orchestrated.student.params[k]) for k in student.params)
    predictions = [infer(student, teacher, inst, g_uv, config, g_vu=g_vu).value for inst in tiny_run.test]
    stepwise = replace(
        orchestrated.report,
        rounds=tuple(rounds),
        final_pool_size=pool_size,
        metrics=compute_metrics(predictions, [inst.label.value for inst in tiny_run.test], schema),
        diversity=stage_diversity(step, schema, config),
    )
    assert report_sans_timing(stepwise) == report_sans_timing(orchestrated.report)
    assert dataset_to_string(step, schema) == dataset_to_string(orchestrated.instances, schema)


def test_round0_view_counts_and_provenance(tiny_run):
    for m0 in (30, 1):
        config = tiny_config(initial_views=m0)
        step = run_round0(tiny_run.train, tiny_run.g_uv, config)
        for instance in step:
            assert len(instance.synthetic_pool) == m0
            for sv in instance.synthetic_pool:
                assert (sv.round, sv.step, sv.parent_id) == (0, STEP_U_TO_V, REAL_PARENT)
                assert sv.teacher_loss is None and not sv.selected


def test_single_view_fusion_still_trains(tiny_run):
    config = tiny_config()
    step = run_round0(tiny_run.train, tiny_run.g_uv, config)
    step = run_ccg_round(
        step, 1, tiny_run.g_vu, tiny_run.g_uv, 0, config.teacher, config.keep_fraction, tiny_run.schema, seed=7
    )
    student = train_student(step, 1, replace(config.student, steps=10), tiny_run.schema, seed=7)
    logits = student.logits(
        [(tiny_run.train[0].real_view, (step[0].synthetic_pool[0].view,), tiny_run.train[0].entities)]
    )
    assert logits.shape == (1, tiny_run.schema.class_count)


def test_round0_rejects_occupied_pools(tiny_run):
    step = run_round0(tiny_run.train, tiny_run.g_uv, tiny_run.config)
    with pytest.raises(PipelineError, match="already hold"):
        run_round0(step, tiny_run.g_uv, tiny_run.config)


def test_ccg_round_argument_validation(tiny_run):
    config = tiny_run.config
    step = run_round0(tiny_run.train, tiny_run.g_uv, config)
    args = (tiny_run.g_vu, tiny_run.g_uv, 1, config.teacher, config.keep_fraction, tiny_run.schema)
    with pytest.raises(PipelineError, match="1-based"):
        run_ccg_round(step, 0, *args)
    with pytest.raises(PipelineError, match="non-negative"):
        run_ccg_round(step, 1, tiny_run.g_vu, tiny_run.g_uv, -1, config.teacher, 0.6, tiny_run.schema)
    with pytest.raises(PipelineError, match="live candidate"):
        run_ccg_round(tiny_run.train, 1, *args)


def test_train_student_needs_enough_scored_views(tiny_run):
    step = run_round0(tiny_run.train, tiny_run.g_uv, tiny_run.config)
    with pytest.raises(PipelineError, match="scored candidate"):
        train_student(step, 3, tiny_run.config.student, tiny_run.schema, seed=7)


def test_train_student_without_teacher_ranks_stored_losses_only(tiny_run):
    # after the final round the unscored children are invisible to the ranking,
    # so the pick comes from the six selected views alone
    config = tiny_run.config
    step = run_round0(tiny_run.train, tiny_run.g_uv, config)
    for round_index, spawn in ((1, 2), (2, 1)):
        step = run_ccg_round(
            step,
            round_index,
            tiny_run.g_vu,
            tiny_run.g_uv,
            spawn,
            config.teacher,
            config.keep_fraction,
            tiny_run.schema,
            seed=config.seed,
        )
    student = train_student(step, config.train_views, config.student, tiny_run.schema, seed=config.seed)
    assert student is not None
    scored = [
        sum(sv.teacher_loss is not None for sv in inst.synthetic_pool if sv.step == STEP_U_TO_V)
        for inst in step
    ]
    assert all(n >= config.train_views for n in scored)


# --- identity channels -------------------------------------------------------------


def identity_world():
    spec = ViewSpec("discrete", 4)
    u_port = Port(spec, "u")
    v_port = Port(spec, "v")
    eye = np.eye(4)
    g_uv = DiscreteChannel(eye, u_port, v_port)
    g_vu = DiscreteChannel(eye, v_port, u_port)
    schema = DatasetSchema(2, 4, spec, spec)
    instances = [
        Instance(
            id=i,
            label=Label(i % 2),
            entities=EntityPair(i % 4, (i + 1) % 4),
            real_view=discrete_view([i % 2] * 3, "u"),
        )
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
    for instance in result.instances:
        for sv in instance.synthetic_pool:
            assert np.array_equal(sv.view.data, instance.real_view.data)
    # identical inputs at train and test time give the training-time prediction
    for instance in instances:
        synthetic = tuple(
            discrete_view(instance.real_view.data, "v") for _ in range(config.infer_views)
        )
        train_time = int(np.argmax(result.student.logits([(instance.real_view, synthetic, instance.entities)])))
        predicted = infer(result.student, result.teacher, instance, g_uv, config, g_vu=g_vu)
        assert predicted == Label(train_time)


# --- inference ---------------------------------------------------------------------


class RecordingStudent:
    def __init__(self, schema):
        self.schema = schema
        self.calls = []

    def logits(self, inputs):
        ((real, synth, entities),) = inputs
        self.calls.append(synth)
        return np.array([[0.0, 1.0, 0.0]])


def generated_views(instance, g_uv, config):
    n_gen = config.infer_generate or config.initial_views
    views = []
    for j in range(n_gen):
        rng = derive_rng(config.seed, "infer-gen", instance.id, j)
        views.append(sample_channel(g_uv, instance.real_view, rng))
    return views


def test_infer_without_teacher_takes_the_first_views(tiny_run):
    config = tiny_config(infer_generate=5, infer_views=2)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[0]
    label = infer(student, None, instance, tiny_run.g_uv, config)
    assert label == Label(1)
    expected = generated_views(instance, tiny_run.g_uv, config)[:2]
    (got,) = student.calls
    assert len(got) == 2
    for view, want in zip(got, expected):
        assert view.equals(want)


def test_infer_with_teacher_keeps_most_confident_views(tiny_run):
    config = tiny_config(infer_generate=6, infer_views=3)
    teacher = TeacherModel(derive_rng(99, "probe"), tiny_run.schema)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[1]
    infer(student, teacher, instance, tiny_run.g_uv, config)
    views = generated_views(instance, tiny_run.g_uv, config)
    logits = teacher.logits([(v, instance.entities) for v in views])
    scores = list(-np.max(log_softmax(logits), axis=1))
    order = sorted(range(len(views)), key=lambda i: (scores[i], i))
    (got,) = student.calls
    assert len(got) == 3
    for view, want_idx in zip(got, order[:3]):
        assert view.equals(views[want_idx])


def test_infer_appends_real_view_unscored(tiny_run):
    config = tiny_config(infer_generate=4, infer_views=1)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[2]
    real_v = sample_channel(tiny_run.g_uv, instance.real_view, derive_rng(123, "aux"))
    infer(student, None, instance, tiny_run.g_uv, config, real_v=real_v)
    (got,) = student.calls
    assert len(got) == 2
    assert got[-1].equals(real_v)


def test_infer_rejects_mismatched_real_view(tiny_run):
    config = tiny_config()
    student = RecordingStudent(tiny_run.schema)
    with pytest.raises(PipelineError, match="does not match"):
        # right shape, wrong side
        infer(student, None, tiny_run.test[0], tiny_run.g_uv, config, real_v=tiny_run.test[0].real_view)
    with pytest.raises(PipelineError, match="does not match"):
        infer(student, None, tiny_run.test[0], tiny_run.g_uv, config, real_v=vector_view([0.0, 0.0, 0.0], "v"))


def test_infer_full_chain_round_trips_each_view(tiny_run):
    config = tiny_config(infer_generate=3, infer_views=3, infer_full_chain=True)
    student = RecordingStudent(tiny_run.schema)
    instance = tiny_run.test[3]
    infer(student, None, instance, tiny_run.g_uv, config, g_vu=tiny_run.g_vu)
    expected = []
    for j in range(3):
        rng = derive_rng(config.seed, "infer-gen", instance.id, j)
        view = sample_channel(tiny_run.g_uv, instance.real_view, rng)
        for _ in range(config.ccg_rounds):
            view = sample_channel(tiny_run.g_uv, sample_channel(tiny_run.g_vu, view, rng), rng)
        expected.append(view)
    (got,) = student.calls
    for view, want in zip(got, expected):
        assert view.equals(want)
    plain = generated_views(instance, tiny_run.g_uv, config)
    assert not got[0].equals(plain[0])


def test_infer_full_chain_needs_the_return_channel(tiny_run):
    config = tiny_config(infer_full_chain=True)
    student = RecordingStudent(tiny_run.schema)
    with pytest.raises(PipelineError, match="g_vu"):
        infer(student, None, tiny_run.test[0], tiny_run.g_uv, config)
    assert student.calls == []


def test_run_pipeline_rejects_occupied_pools(tiny_run):
    with pytest.raises(PipelineError, match="already hold"):
        run_pipeline(
            tiny_run.result.instances, tiny_run.test, tiny_run.schema, tiny_run.g_uv, tiny_run.g_vu, tiny_run.config
        )


def test_confidence_loss_is_best_case_over_labels(tiny_run):
    teacher = TeacherModel(derive_rng(5, "probe"), tiny_run.schema)
    scorer = Scorer("teacher_loss", tiny_run.schema, 0, teacher=teacher)
    instance = tiny_run.test[0]
    views = [sample_channel(tiny_run.g_uv, instance.real_view, derive_rng(50, "aux", j)) for j in range(10)]
    confidence = scorer.scores(instance, views, "infer-pick")
    logits = teacher.logits([(v, instance.entities) for v in views])
    losses, _ = softmax_xent(logits, [instance.label.value] * len(views))
    assert np.all(np.array(confidence) <= losses + 1e-12)


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
    def make_world(seed):
        from conftest import tiny_world

        return tiny_world(seed=seed)

    base = tiny_config(
        initial_views=4,
        ccg_rounds=1,
        spawn_per_kept=(1,),
        train_views=3,
        infer_views=2,
        teacher=replace(tiny_config().teacher, steps=10),
        student=replace(tiny_config().student, steps=15),
    )
    return make_world, base


def test_run_ablation_rows_and_means():
    make_world, base = ablation_setup()
    rows, reports = run_ablation(
        make_world, base, seeds=(0, 1), conditions=("no_teacher", "unimodal"), n_train_per_class=2, n_test_per_class=2
    )
    assert [(r.condition, r.seed) for r in rows] == [
        ("no_teacher", 0),
        ("unimodal", 0),
        ("no_teacher", 1),
        ("unimodal", 1),
    ]
    assert len(reports) == len(rows)
    assert all(report.seed == row.seed for report, row in zip(reports, rows))

    table = ablation_table(rows)
    assert [row["condition"] for row in table] == [
        "no_teacher",
        "unimodal",
        "no_teacher",
        "unimodal",
        "no_teacher_mean",
        "unimodal_mean",
    ]
    for condition in ("no_teacher", "unimodal"):
        group = [r for r in rows if r.condition == condition]
        mean_row = next(row for row in table if row["condition"] == f"{condition}_mean")
        for column in ("accuracy", "precision", "recall", "f1"):
            assert mean_row[column] == pytest.approx(np.mean([getattr(r, column) for r in group]))


def test_run_ablation_rejects_unknown_condition():
    make_world, base = ablation_setup()
    with pytest.raises(PipelineError, match="unknown condition"):
        run_ablation(make_world, base, seeds=(0,), conditions=("full", "bogus"))


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


def test_report_round_trips_through_json(tiny_run, tmp_path):
    path = tmp_path / "report.json"
    save_report(tiny_run.result.report, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
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
    with pytest.raises(ValueError, match="spawn_per_kept"):
        tiny_config(ccg_rounds=1)
    with pytest.raises(ValueError, match="non-negative"):
        tiny_config(ccg_rounds=1, spawn_per_kept=(-1,))
    with pytest.raises(ValueError, match="ccg_rounds"):
        tiny_config(ccg_rounds=-1, spawn_per_kept=())
    with pytest.raises(ValueError, match="view counts"):
        tiny_config(initial_views=0)
    with pytest.raises(ValueError, match="workers"):
        tiny_config(workers=0)
    with pytest.raises(ValueError):
        tiny_config(policy_name="mystery")
    with pytest.raises(ValueError):
        tiny_config(keep_fraction=0.0)

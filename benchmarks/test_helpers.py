"""Unit tests for the benchmark's own helpers (not part of the library suite).

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


def span(name, start, end, parent=None, thread=1):
    return [name, None, start, end, parent, thread, 0]


# --- self time ------------------------------------------------------------------


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("pipeline.run_pipeline", 0.0, 10.0),
        span("models.train", 1.0, 4.0, parent=0),
        span("models.AdamW.step", 2.0, 3.0, parent=1),
        span("rng.derive_rng", 5.0, 6.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_of_threaded_children_uses_the_union_of_their_intervals():
    spans = [
        span("pipeline.parallel_map", 0.0, 10.0),
        span("channels.sample_channel", 1.0, 6.0, parent=0, thread=2),
        span("channels.sample_channel", 3.0, 8.0, parent=0, thread=3),
        span("channels.sample_channel", 9.0, 12.0, parent=0, thread=2),  # clipped to the parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[1:] == pytest.approx([5.0, 5.0, 3.0])


def test_outermost_counts_a_recursive_boundary_once():
    spans = [
        span("datamodel.write_dataset", 0.0, 2.0),
        span("datamodel.write_dataset", 0.1, 1.9, parent=0),
        span("rng.derive_rng", 0.2, 0.3, parent=1),
    ]
    assert tracing.outermost(spans) == [True, False, True]


def test_fan_out_spans_nest_under_parallel_map_on_every_thread():
    tracer = tracing.Tracer()
    tracer.enabled = True

    def parallel_map(fn, items, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    def leaf(x):
        return x * 2

    fan_out = tracing._wrap_fan_out(tracer, parallel_map, "pipeline.parallel_map")
    traced_leaf = tracing._wrap(tracer, leaf, "rng.derive_rng")
    assert fan_out(traced_leaf, range(8), 2) == [2 * x for x in range(8)]
    root, leaves = tracer.spans[0], tracer.spans[1:]
    assert root[tracing.PARENT] is None and len(leaves) == 8
    assert all(s[tracing.PARENT] == 0 for s in leaves)
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)
    assert tracer.stack() == []


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer()
    wrapped = tracing._wrap(tracer, lambda: 3, "rng.derive_rng")
    assert wrapped() == 3 and tracer.spans == []


def test_tracer_stacks_are_per_thread():
    tracer = tracing.Tracer()
    seen = []
    sid = tracer.open("pipeline.run_pipeline", None)
    thread = threading.Thread(target=lambda: seen.append(list(tracer.stack())))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [[]] and tracer.stack() == [sid]


def test_layer_metrics_split_train_time_by_model_and_find_the_frozen_pass():
    spans = [
        ["models.train", "TeacherModel", 0.0, 4.0, None, 1, 0],
        ["models.TeacherModel.loss_and_grads", None, 0.0, 1.0, 0, 1, 0],
        ["models.AdamW.step", None, 1.0, 1.5, 0, 1, 0],
        ["models.TeacherModel.logits", None, 3.0, 4.0, 0, 1, 0],
        ["models.TeacherModel.logits", None, 5.0, 5.5, None, 1, 0],
        ["models.train", "StudentModel", 6.0, 7.0, None, 1, 0],
    ]
    m, layer_self = tracing.layer_metrics(spans, wall_s=8.0, timing={"rounds": 4.0}, dataset_bytes=10)
    assert m["models.teacher_train_s"] == 4.0 and m["models.student_train_s"] == 1.0
    assert m["models.unimodal_train_s"] == 0.0 and m["models.train_calls"] == 2
    assert m["models.frozen_pass_s"] == 1.0
    assert (m["models.score_calls"], m["models.score_s"]) == (1, 0.5)
    assert m["pipeline.rounds_s"] == 4.0 and m["datamodel.bytes"] == 10
    assert layer_self["models"] == pytest.approx(5.5)
    assert m["trace.coverage"] == pytest.approx(5.5 / 8.0)


# --- statistics -------------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = run.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert run.spread(values) == pytest.approx((q3 - q1) / median)


def test_quartiles_of_one_value_have_no_spread():
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert run.spread([2.5]) == 0.0
    with pytest.raises(ValueError):
        run.quartiles([])


# --- output checks ----------------------------------------------------------------

REPORT = {
    "condition": "full",
    "metrics": {"f1": 0.75, "count": 600},
    "rounds": [{"pool_size": 30, "kept_size": 18}],
    "diversity": [{"stage": "V0", "statistic": 1.5}],
    "timing": {"rounds": 4.0, "evaluate": 3.0},
}


def test_digest_ignores_timing():
    base = workload.output_digest(["data"], [REPORT])
    other_timing = dict(REPORT, timing={"rounds": 9.9})
    no_timing = {k: v for k, v in REPORT.items() if k != "timing"}
    assert workload.output_digest(["data"], [other_timing]) == base
    assert workload.output_digest(["data"], [no_timing]) == base


@pytest.mark.parametrize(
    "change",
    [
        {"condition": "no_ccg"},
        {"metrics": {"f1": 0.7500000000000001, "count": 600}},
        {"rounds": [{"pool_size": 30, "kept_size": 17}]},
        {"diversity": [{"stage": "V0", "statistic": 1.5000001}]},
        {"extra_field": 0},
    ],
)
def test_digest_covers_every_other_report_field(change):
    assert workload.output_digest(["data"], [dict(REPORT, **change)]) != workload.output_digest(["data"], [REPORT])


def test_digest_covers_dataset_text_and_extra_outputs():
    base = workload.output_digest(["data"], [REPORT], extra=[[2, 3, 1.0]])
    assert workload.output_digest(["data\n"], [REPORT], extra=[[2, 3, 1.0]]) != base
    assert workload.output_digest(["data"], [REPORT], extra=[[2, 3, 1.1]]) != base


def test_expected_schedule_of_the_stock_deep_chain():
    config = types.SimpleNamespace(policy_name="teacher_loss", keep_fraction=0.6, ccg_rounds=2,
                                   spawn_per_kept=(4, 1), initial_views=30)
    assert workload.expected_schedule(config) == ([(30, 18), (90, 54)], 108, 282)
    no_ccg = types.SimpleNamespace(policy_name="teacher_loss", keep_fraction=0.5, ccg_rounds=0,
                                   spawn_per_kept=(), initial_views=30)
    assert workload.expected_schedule(no_ccg) == ([(30, 15)], 15, 30)
    keep_all = types.SimpleNamespace(policy_name="keep_all", keep_fraction=0.5, ccg_rounds=1,
                                     spawn_per_kept=(4,), initial_views=30)
    assert workload.expected_schedule(keep_all) == ([(30, 30)], 150, 270)


def test_count_ops_charges_crashes_check_failures_and_digest_mismatches():
    ok = {"failures": {}, "digest": "a"}
    bad_check = {"failures": {"round_trip": "differs"}, "digest": "a"}
    crashed = {"error": "exited with 1"}
    attempted, failures = run.count_ops("chain_deep", [ok, bad_check, crashed], ["a", "a", "b"])
    n = len(workload.operations("chain_deep"))
    assert attempted == 3 * n + 2
    assert len(failures) == 1 + n + 1
    assert "rep1:round_trip" in failures and "digest2" in failures


def test_count_ops_does_not_charge_repetitions_cut_by_the_time_limit():
    ok = {"failures": {}, "digest": "a"}
    cut = {"error": "exceeded the time limit", "timed_out": True}
    attempted, failures = run.count_ops("ablation", [ok, cut], ["a"])
    assert attempted == len(workload.operations("ablation"))
    assert failures == {}


# --- the boundary table against the library -----------------------------------------


def _in_library_process(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]; import tracing\n"
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120)


def test_every_boundary_in_the_table_exists_and_nothing_is_left_untraced():
    proc = _in_library_process("tracing.install(tracing.Tracer()); print('installed')")
    assert proc.returncode == 0, proc.stderr
    assert "installed" in proc.stdout


@pytest.mark.parametrize(
    "table, named",
    [
        ((("models", "TeacherModel.forward_batch", "models", ()),), "TeacherModel.forward_batch"),
        ((("selection", "rank_keep", "selection", ("pipeline",)),), "rank_keep"),
        ((("selection", "random_scores", "selection", ()),), "chainviews.pipeline.random_scores"),
    ],
)
def test_a_missing_or_unlisted_boundary_fails_by_name(table, named):
    proc = _in_library_process(f"tracing.BOUNDARIES = {table!r}\ntracing.install(tracing.Tracer())")
    assert proc.returncode != 0
    assert "BoundaryError" in proc.stderr and named in proc.stderr

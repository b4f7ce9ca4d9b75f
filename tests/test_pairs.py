"""The pairs command's arithmetic: quartiles, wins and the verdicts.

Nothing here runs the benchmark; ``tools/pairs.py`` is loaded as a module.
"""

import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
SPEC = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

PARENT = [float(v) for v in range(10, 20)]  # q1 11.75, median 14.5, q3 17.25: IQR 5.5


def test_quartiles_follow_statistics_quantiles():
    assert pairs.quartiles(PARENT) == (11.75, 14.5, 17.25)
    assert pairs.quartiles(PARENT) == tuple(statistics.quantiles(PARENT, n=4))
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        pairs.quartiles([])


def test_wins_count_ties_for_neither_side():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 1.0]
    assert pairs.wins(parent, change, "lower") == {"change": 2, "parent": 1, "pairs": 4}
    assert pairs.wins(parent, change, "higher") == {"change": 1, "parent": 2, "pairs": 4}
    with pytest.raises(ValueError):
        pairs.wins(parent, change[:3], "lower")


def test_verdict_needs_nine_wins_and_a_median_gap_beyond_the_parent_iqr():
    # ten wins, but a gain of 5.0 is inside the parent's IQR of 5.5
    close = pairs.compare(PARENT, [v - 5.0 for v in PARENT], "lower")
    assert close["wins"]["change"] == 10 and close["parent_iqr"] == 5.5 and close["median_gain"] == 5.0
    assert not close["change_is_better"]
    assert pairs.compare(PARENT, [v - 6.0 for v in PARENT], "lower")["change_is_better"]

    # a large gain from only eight wins in ten is not enough; nine is
    eight = [v - 20.0 for v in PARENT[:8]] + PARENT[8:]
    assert pairs.compare(PARENT, eight, "lower")["wins"]["change"] == 8
    assert not pairs.compare(PARENT, eight, "lower")["change_is_better"]
    nine = [v - 20.0 for v in PARENT[:9]] + PARENT[9:]
    assert pairs.compare(PARENT, nine, "lower")["change_is_better"]

    # for a higher-is-better metric the gain is the change's excess
    higher = pairs.compare(PARENT, [v + 6.0 for v in PARENT], "higher")
    assert higher["median_gain"] == 6.0 and higher["change_is_better"]
    assert not pairs.compare(PARENT, [v + 6.0 for v in PARENT], "lower")["change_is_better"]
    with pytest.raises(ValueError, match="better"):
        pairs.compare(PARENT, PARENT, "faster")


def test_summarize_compares_every_metric_across_the_pairs():
    rows = [{"parent": {"wall_s": p, "f1": 0.8}, "change": {"wall_s": p - 6.0, "f1": 0.8}} for p in PARENT]
    summary = pairs.summarize(rows, {"wall_s": "lower", "f1": "higher"})
    assert summary["wall_s"]["change_is_better"]
    assert summary["wall_s"]["change"]["median"] == 8.5
    assert summary["f1"]["wins"] == {"change": 0, "parent": 0, "pairs": 10}
    assert not summary["f1"]["change_is_better"]


def test_bound_verdict_reads_the_bound_as_a_fraction_of_the_parent_median():
    # bound 0.25 of the parent median 14.5 allows 3.625 worse; the parent's
    # IQR of 5.5 is wider than that, so the metric is unresolved
    slower = pairs.bound_verdict(pairs.compare(PARENT, [v + 3.0 for v in PARENT], "lower"), 0.25)
    assert slower == {"bound": 0.25, "allowed": 3.625, "within_bound": True, "unresolved": True}
    assert not pairs.bound_verdict(pairs.compare(PARENT, [v + 4.0 for v in PARENT], "lower"), 0.25)["within_bound"]
    # a faster change is always within bound; a wider bound resolves the spread
    faster = pairs.bound_verdict(pairs.compare(PARENT, [v - 4.0 for v in PARENT], "lower"), 0.5)
    assert faster == {"bound": 0.5, "allowed": 7.25, "within_bound": True, "unresolved": False}

    # for a higher-is-better metric the change is worse when its median is lower
    assert pairs.bound_verdict(pairs.compare(PARENT, [v - 3.0 for v in PARENT], "higher"), 0.25)["within_bound"]
    assert not pairs.bound_verdict(pairs.compare(PARENT, [v - 4.0 for v in PARENT], "higher"), 0.25)["within_bound"]
    assert pairs.bound_verdict(pairs.compare(PARENT, [v + 9.0 for v in PARENT], "higher"), 0.25)["within_bound"]


def test_digests_equal_needs_one_digest_on_both_sides():
    assert pairs.digests_equal({"parent": ["abc"], "change": ["abc"]})
    assert not pairs.digests_equal({"parent": ["abc"], "change": ["abd"]})
    assert not pairs.digests_equal({"parent": ["abc"], "change": ["abc", "abd"]})  # a side disagrees with itself
    assert not pairs.digests_equal({"parent": ["None"], "change": ["None"]})  # no run wrote one


def test_src_lines_counts_like_wc(tmp_path):
    package = tmp_path / "src" / "chainviews"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nno newline at the end")
    (package / "notes.txt").write_text("not counted\n")
    assert pairs.src_lines(tmp_path) == 3


def test_operation_totals_sum_each_side_over_the_pairs():
    rows = [
        {"parent_attempted": 9, "parent_failed": 0, "change_attempted": 9, "change_failed": 1},
        {"parent_attempted": 7, "parent_failed": 2, "change_attempted": 8, "change_failed": 0},
    ]
    assert pairs.operation_totals(rows) == {
        "parent": {"attempted": 16, "failed": 2},
        "change": {"attempted": 17, "failed": 1},
    }
    assert pairs.operation_totals([]) == {side: {"attempted": 0, "failed": 0} for side in pairs.SIDES}


def test_measure_records_both_counts_per_pair_and_their_totals(monkeypatch):
    counts = {"parent": (5, 0), "change": (5, 1)}

    def fake_run(tree, workload, seed, seconds):
        attempted, failed = counts[tree]
        return {"metrics": {"wall_s": 1.0}, "attempted": attempted, "failed": failed, "digest": "d", "machine": {}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    spec = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    run, _ = pairs.measure({side: side for side in pairs.SIDES}, "w", 0, 3, 1.0, spec, log=lambda line: None)
    assert all((row["parent_attempted"], row["parent_failed"], row["change_attempted"], row["change_failed"]) == (5, 0, 5, 1)
               for row in run["pairs"])
    assert run["operations"] == {"parent": {"attempted": 15, "failed": 0}, "change": {"attempted": 15, "failed": 3}}


def test_cli_differences_skip_timing_and_the_dataset_path_only(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, seconds, dataset in ((parent, 1.0, "/a/dataset.jsonl"), (change, 2.5, "/b/dataset.jsonl")):
        side.mkdir()
        (side / "metrics.csv").write_text("condition,f1\nfull,0.5\n")
        (side / "report.json").write_text(json.dumps({"metrics": {"f1": 0.5}, "timing": {"rounds": seconds}}))
        (side / "diversity.meta.json").write_text(json.dumps({"seed": 5, "dataset": dataset}))
    assert pairs.cli_differences(parent, change) == []

    (change / "metrics.csv").write_text("condition,f1\nfull,0.6\n")
    (change / "report.json").write_text(json.dumps({"metrics": {"f1": 0.6}, "timing": {"rounds": 1.0}}))
    (change / "diversity.meta.json").write_text(json.dumps({"seed": 6, "dataset": "/a/dataset.jsonl"}))
    (parent / "train.jsonl").write_text("{}\n")  # on one side only
    assert pairs.cli_differences(parent, change) == ["diversity.meta.json", "metrics.csv", "report.json", "train.jsonl"]


def test_cli_differences_skip_the_ablate_runtime_but_not_a_changed_ablation_byte(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, seconds in ((parent, 4.5), (change, 5.0)):
        side.mkdir()
        (side / "ablation.csv").write_text("condition,accuracy,precision,recall,f1\nfull,0.5,0.5,0.5,0.5\n")
        (side / "ablate.meta.json").write_text(json.dumps({"seeds": [0, 1, 2], "runtime_seconds": seconds}))
    assert pairs.cli_differences(parent, change) == []

    (change / "ablation.csv").write_text("condition,accuracy,precision,recall,f1\nfull,0.5,0.5,0.5,0.6\n")
    assert pairs.cli_differences(parent, change) == ["ablation.csv"]
    (change / "ablate.meta.json").write_text(json.dumps({"seeds": [0, 1], "runtime_seconds": 4.5}))
    assert pairs.cli_differences(parent, change) == ["ablate.meta.json", "ablation.csv"]


def verify_report(runtimes, statistic):
    checks = [{"name": name, "passed": True, "statistic": statistic, "runtime_seconds": seconds}
              for name, seconds in zip(("dpi_chains", "classifier_bound"), runtimes)]
    return json.dumps({"all_passed": True, "seed": 0, "checks": checks, "tool_version": "0.1.0"}, indent=2)


def test_cli_differences_skip_each_check_runtime_of_verify(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    (parent / "verify_report.json").write_text(verify_report((0.5, 0.2), 0.0))
    (change / "verify_report.json").write_text(verify_report((0.7, 0.1), 0.0))
    assert pairs.cli_differences(parent, change) == []

    (change / "verify_report.json").write_text(verify_report((0.5, 0.2), 1.0))
    assert pairs.cli_differences(parent, change) == ["verify_report.json"]


def test_difference_size_pairs_the_numbers_of_csv_cells_and_json_values(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    (parent / "diversity.csv").write_text("stage,pca_dim,statistic\nV0,2,2.0\nV1,2,-4.0\n")
    (change / "diversity.csv").write_text("stage,pca_dim,statistic\nV0,2,2.5\nV1,2,-4.0000004\n")
    size = pairs.difference_size(parent / "diversity.csv", change / "diversity.csv")
    assert size["max_abs"] == pytest.approx(0.5) and size["max_rel"] == pytest.approx(0.2)

    # the runtimes verify_report.json is compared without are not sized either
    (parent / "verify_report.json").write_text(verify_report((0.5, 0.2), 8.0))
    (change / "verify_report.json").write_text(verify_report((0.7, 0.1), 6.0))
    assert pairs.difference_size(parent / "verify_report.json", change / "verify_report.json") == {
        "max_abs": 2.0, "max_rel": 0.25
    }
    (change / "verify_report.json").write_text(verify_report((0.5, 0.2), float("nan")))
    assert pairs.difference_size(parent / "verify_report.json", change / "verify_report.json") == {
        "max_abs": float("inf"), "max_rel": float("inf")
    }
    (parent / "verify_report.json").write_text(verify_report((0.5, 0.2), float("nan")))
    assert pairs.difference_size(parent / "verify_report.json", change / "verify_report.json") == {
        "max_abs": 0.0, "max_rel": 0.0
    }


@pytest.mark.parametrize(
    "name, parent_text, change_text",
    [
        ("diversity.csv", "stage,statistic\nV0,2.0\n", "stage,statistic\nV1,2.0\n"),  # a cell that is no number
        ("diversity.csv", "stage,statistic\nV0,2.0\n", "stage,statistic\nV0,2.0\nV1,3.0\n"),  # a row more
        ("report.json", '{"f1": 0.5}', '{"f1": 0.5, "accuracy": 0.5}'),  # a key more
        ("report.json", '{"f1": [0.5, 0.6]}', '{"f1": [0.5]}'),  # a shorter list
        ("report.json", '{"f1": 0.5}', '{"f1": "0.5x"}'),  # a number against a word
        ("train.jsonl", "{}\n", "[]\n"),  # neither CSV nor JSON
    ],
)
def test_difference_size_reports_versions_that_do_not_pair_up(tmp_path, name, parent_text, change_text):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    (parent / name).write_text(parent_text)
    (change / name).write_text(change_text)
    assert pairs.difference_size(parent / name, change / name) == "structure differs"
    (change / name).unlink()  # a file one tree alone wrote
    assert pairs.difference_size(parent / name, change / name) == "structure differs"


def test_cli_differences_name_the_files_of_each_configs_directory(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        for config in ("clean_quick", "custom_world"):
            (side / config).mkdir(parents=True)
            (side / config / "metrics.csv").write_text("condition,f1\nfull,0.5\n")
    assert pairs.cli_differences(parent, change) == []

    (change / "custom_world" / "metrics.csv").write_text("condition,f1\nfull,0.6\n")
    (parent / "clean_quick" / "train.jsonl").write_text("{}\n")  # on one side only
    assert pairs.cli_differences(parent, change) == ["clean_quick/train.jsonl", "custom_world/metrics.csv"]


def test_the_cli_comparison_runs_ablate_on_the_shipped_study():
    assert ("ablate", "configs/collapse_ablation.yaml") in pairs.CLI_COMMANDS
    assert ("run", "configs/custom_world.yaml") in pairs.CLI_COMMANDS
    assert ("verify", None) in pairs.CLI_COMMANDS
    assert all((pairs.ROOT / config).is_file() for _, config in pairs.CLI_COMMANDS if config is not None)


def test_demo_differences_name_the_demos_whose_stdout_differs():
    parent = {"channel_tour": "H(U) 1.5\n", "filtering_demo": "kept 12\n"}
    assert pairs.demo_differences(parent, dict(parent)) == []
    change = {"channel_tour": "H(U) 1.5\n", "filtering_demo": "kept 13\n"}
    assert pairs.demo_differences(parent, change) == ["filtering_demo"]
    change["spread_across_rounds"] = ""  # a demo one tree alone ran differs
    assert pairs.demo_differences(parent, change) == ["filtering_demo", "spread_across_rounds"]
    assert pairs.demo_differences(change, parent) == ["filtering_demo", "spread_across_rounds"]


def test_the_compared_demos_exist_and_run_as_the_suite_runs_them(tmp_path):
    assert all((pairs.ROOT / "demos" / f"{name}.py").is_file() for name in pairs.DEMOS)
    outputs = pairs.demo_outputs(pairs.ROOT, tmp_path)
    assert list(outputs) == list(pairs.DEMOS) and all(outputs.values())
    # each ran in a directory of its own, which it left empty
    cwds = list(tmp_path.iterdir())
    assert len(cwds) == len(pairs.DEMOS) and not any(list(cwd.iterdir()) for cwd in cwds)


def test_sigterm_removes_the_scratch_directory(tmp_path):
    # a run stopped with SIGTERM while it waits on a child process still
    # leaves its with block, which removes the pairs-* directory
    code = f"""
import importlib.util, subprocess, sys
spec = importlib.util.spec_from_file_location("pairs", {str(PAIRS)!r})
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)
with pairs.scratch_directory() as tmp:
    print(tmp, flush=True)
    subprocess.run([sys.executable, "-c", "import time; time.sleep(60)"])
"""
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
    scratch = Path(proc.stdout.readline().strip())
    assert scratch.parent == tmp_path and scratch.name.startswith("pairs-") and scratch.is_dir()
    time.sleep(0.5)  # let the child start waiting on its own child
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    proc.stdout.close()
    assert not scratch.exists() and not list(tmp_path.iterdir())

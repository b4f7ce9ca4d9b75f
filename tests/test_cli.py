"""The command-line front-end, driven in-process through main(argv)."""

import base64
import contextlib
import io
import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import chainviews.nn
from chainviews.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY, main
from chainviews.config import load_experiment_data, parse_config, read_config_mapping
from chainviews.datamodel import read_dataset
from chainviews.diversity import diversity_report
from chainviews.pipeline import extract_stages, run_pipeline
from chainviews.selection import POLICY_NAMES
from conftest import recolumn


QUICK = Path(__file__).resolve().parent.parent / "configs" / "clean_quick.yaml"


def write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


def tiny_mapping(out_dir, **overrides):
    mapping = {
        "seed": 11,
        "out_dir": str(out_dir),
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
        "diversity": {"pca_dims": [1, 2], "components": [1, 2]},
    }
    mapping.update(overrides)
    return mapping


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """One completed `run` plus its config, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli-run")
    out = root / "out"
    config = write_yaml(root / "exp.yaml", tiny_mapping(out))
    code = main(["run", "--config", config])
    assert code == EXIT_OK
    return SimpleNamespace(root=root, out=out, config=config)


# --- usage ------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["warp"]) == EXIT_USAGE
    assert main(["verify", "--workers", "2"]) == EXIT_USAGE  # only run and ablate take --workers
    for command in ("run", "ablate"):  # --workers is a no-op, but it must be a positive integer
        assert main([command, "--config", str(QUICK), "--workers", "0"]) == EXIT_USAGE
    assert main(["run", "--config", str(QUICK), "--k", "2"]) == EXIT_USAGE  # rounds are pipeline.ccg_rounds
    capsys.readouterr()


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "chainviews" in capsys.readouterr().out


def test_missing_config_file_is_usage(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# --- gen-benchmark ------------------------------------------------------------------


def test_gen_benchmark_writes_both_splits(tmp_path, capsys):
    out = tmp_path / "bench"
    config = write_yaml(
        tmp_path / "gen.yaml",
        {
            "seed": 5,
            "out_dir": str(out),
            "world": {"preset": "clean"},
            "data": {"train_per_class": 3, "test_per_class": 2},
        },
    )
    assert main(["gen-benchmark", "--config", config]) == EXIT_OK
    train_inst, schema = read_dataset(out / "train.jsonl")
    test_inst, _ = read_dataset(out / "test.jsonl")
    assert len(train_inst) == schema.class_count * 3
    assert len(test_inst) == schema.class_count * 2
    meta = json.loads((out / "gen-benchmark.meta.json").read_text())
    assert meta["seed"] == 5
    assert len(meta["config_digest"]) == 64
    capsys.readouterr()


def test_gen_benchmark_regenerates_byte_identical_files(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = write_yaml(
            tmp_path / f"{name}.yaml",
            {
                "seed": 5,
                "out_dir": str(out),
                "world": {"preset": "noisy"},
                "data": {"train_per_class": 2, "test_per_class": 2},
            },
        )
        assert main(["gen-benchmark", "--config", config]) == EXIT_OK
        outs.append(out)
    for name in ("train.jsonl", "test.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    capsys.readouterr()


def test_gen_benchmark_requires_a_seed(tmp_path, capsys):
    config = write_yaml(tmp_path / "noseed.yaml", {"world": {"preset": "clean"}})
    assert main(["gen-benchmark", "--config", config]) == EXIT_USAGE
    assert "seed required" in capsys.readouterr().err


def test_gen_benchmark_rejects_dataset_configs(tmp_path, capsys):
    config = write_yaml(
        tmp_path / "ds.yaml",
        {
            "seed": 1,
            "dataset": {"train": "x.jsonl", "test": "y.jsonl"},
            "channels": {
                "u_to_v": {"kind": "linear_gaussian", "weight": [[1.0]], "noise_sigma": 0.5},
                "v_to_u": {"kind": "linear_gaussian", "weight": [[1.0]], "noise_sigma": 0.5},
            },
        },
    )
    assert main(["gen-benchmark", "--config", config]) == EXIT_USAGE
    assert "world" in capsys.readouterr().err


def test_unknown_preset_is_usage(tmp_path, capsys):
    config = write_yaml(tmp_path / "bad.yaml", {"seed": 1, "world": {"preset": "parquet"}})
    assert main(["gen-benchmark", "--config", config]) == EXIT_USAGE
    assert "unknown world preset" in capsys.readouterr().err


# --- run ---------------------------------------------------------------------------


def test_run_writes_all_artifacts(run_artifacts, capsys):
    out = run_artifacts.out
    for name in ("dataset.jsonl", "report.json", "metrics.csv", "run.meta.json"):
        assert (out / name).exists(), name
    metrics_lines = (out / "metrics.csv").read_text().splitlines()
    assert metrics_lines[0] == "condition,accuracy,precision,recall,f1"
    assert metrics_lines[1].startswith("full,")
    report = json.loads((out / "report.json").read_text())
    meta = json.loads((out / "run.meta.json").read_text())
    assert report["config_digest"] == meta["config_digest"]
    assert report["ccg_rounds"] == 1
    assert report["final_pool_size"] == 4  # 4 -> keep 2 -> +2
    instances, _ = read_dataset(out / "dataset.jsonl")
    assert all(len(inst.synthetic_pool) == 4 + 2 * 2 for inst in instances)
    capsys.readouterr()


def test_run_is_deterministic_across_reruns_and_workers(run_artifacts, tmp_path, capsys):
    def untimed_report(out):
        report = json.loads((out / "report.json").read_text())
        del report["timing"]
        return report

    def digest(out):
        return json.loads((out / "run.meta.json").read_text())["config_digest"]

    baseline_metrics = (run_artifacts.out / "metrics.csv").read_bytes()
    baseline_dataset = (run_artifacts.out / "dataset.jsonl").read_bytes()
    for args in (
        ["run", "--config", run_artifacts.config, "--out", str(tmp_path / "again")],
        ["run", "--config", run_artifacts.config, "--out", str(tmp_path / "threaded"), "--workers", "2"],
    ):
        assert main(args) == EXIT_OK
        out = tmp_path / args[4].split("/")[-1]
        assert (out / "metrics.csv").read_bytes() == baseline_metrics
        assert (out / "dataset.jsonl").read_bytes() == baseline_dataset
        # the output directory is not part of the configuration's identity
        assert untimed_report(out) == untimed_report(run_artifacts.out)
        assert digest(out) == digest(run_artifacts.out)
    capsys.readouterr()


def test_run_seed_override_changes_outputs(run_artifacts, tmp_path, capsys):
    out = tmp_path / "reseeded"
    assert main(["run", "--config", run_artifacts.config, "--out", str(out), "--seed", "12"]) == EXIT_OK
    assert (out / "metrics.csv").read_text() != ""
    meta = json.loads((out / "run.meta.json").read_text())
    baseline = json.loads((run_artifacts.out / "run.meta.json").read_text())
    assert meta["seed"] == 12
    assert meta["config_digest"] != baseline["config_digest"]
    capsys.readouterr()


def test_run_with_zero_rounds(tmp_path, capsys):
    out = tmp_path / "k0"
    mapping = tiny_mapping(out)
    mapping["pipeline"].update(ccg_rounds=0, spawn_per_kept=[])
    config = write_yaml(tmp_path / "k0.yaml", mapping)
    assert main(["run", "--config", config]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["ccg_rounds"] == 0
    assert "diversity" not in report  # `chainviews diversity` writes the stage table
    assert main(["diversity", "--config", config]) == EXIT_OK
    assert json.loads((out / "diversity.meta.json").read_text())["stages"] == ["V0"]
    assert (out / "metrics.csv").read_text().splitlines()[1].startswith("no_ccg,")
    capsys.readouterr()


def dataset_mapping(tmp_path, channels):
    """A tiny run on clean-preset dataset files, with ``channels(d)`` for u width ``d``."""
    bench = tmp_path / "bench"
    gen_config = write_yaml(
        tmp_path / "gen.yaml",
        {
            "seed": 7,
            "out_dir": str(bench),
            "world": {"preset": "clean"},
            "data": {"train_per_class": 2, "test_per_class": 2},
        },
    )
    assert main(["gen-benchmark", "--config", gen_config]) == EXIT_OK
    _, schema = read_dataset(bench / "train.jsonl")
    mapping = tiny_mapping(tmp_path / "from-files")
    del mapping["world"]
    del mapping["data"]
    mapping["seed"] = 7
    mapping["dataset"] = {"train": str(bench / "train.jsonl"), "test": str(bench / "test.jsonl")}
    mapping["channels"] = channels(schema.u_spec.size)
    return mapping


def identity_channels(d):
    eye = [[float(i == j) for j in range(d)] for i in range(d)]
    return {
        "u_to_v": {"kind": "linear_gaussian", "weight": eye, "noise_sigma": 0.4},
        "v_to_u": {"kind": "linear_gaussian", "weight": eye, "noise_sigma": 0.4},
    }


def test_run_on_dataset_files(tmp_path, capsys):
    config = write_yaml(tmp_path / "files.yaml", dataset_mapping(tmp_path, identity_channels))
    assert main(["run", "--config", config]) == EXIT_OK
    assert (tmp_path / "from-files" / "metrics.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value, message",
    [("label", 7, "label 7 is outside [0, 4)"), ("subject", 99, "subject 99 is outside [0, 8)")],
)
def test_run_on_a_dataset_file_with_a_field_out_of_range_exits_1_naming_the_line(tmp_path, capsys, field, value, message):
    mapping = dataset_mapping(tmp_path, identity_channels)
    train = Path(mapping["dataset"]["train"])
    lines = train.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    train.write_text("\n".join(lines) + "\n")
    config = write_yaml(tmp_path / "files.yaml", mapping)
    assert main(["run", "--config", config]) == EXIT_USAGE
    assert f"error: line 2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "from-files" / "metrics.csv").exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_run_on_a_dataset_file_with_no_instances_exits_1_naming_it(tmp_path, capsys, split):
    mapping = dataset_mapping(tmp_path, identity_channels)
    path = Path(mapping["dataset"][split])
    path.write_text(path.read_text().splitlines()[0] + "\n")  # the schema line alone
    config = write_yaml(tmp_path / "files.yaml", mapping)
    assert main(["run", "--config", config]) == EXIT_USAGE
    assert f"error: dataset {path} holds no instances" in capsys.readouterr().err
    assert not (tmp_path / "from-files" / "metrics.csv").exists()


@pytest.mark.parametrize("unreadable", ["directory", "missing"])
def test_run_on_a_dataset_path_that_cannot_be_read_exits_1_naming_it(tmp_path, capsys, unreadable):
    mapping = dataset_mapping(tmp_path, identity_channels)
    path = tmp_path / "bench" if unreadable == "directory" else tmp_path / "nope.jsonl"
    mapping["dataset"]["train"] = str(path)
    config = write_yaml(tmp_path / "files.yaml", mapping)
    assert main(["run", "--config", config]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read dataset {path}: ")
    assert not (tmp_path / "from-files" / "metrics.csv").exists()


def test_dataset_channels_that_do_not_fit_the_schema_exit_1_naming_the_channel(tmp_path, capsys):
    # u -> v widens to d + 1 and v -> u reads d + 1: the pair chains, but the
    # dataset's v side is d wide
    def widening(d):
        up = [[float(i == j) for j in range(d)] for i in range(d + 1)]
        return {
            "u_to_v": {"kind": "linear_gaussian", "weight": up, "noise_sigma": 0.4},
            "v_to_u": {"kind": "linear_gaussian", "weight": np.array(up).T.tolist(), "noise_sigma": 0.4},
        }

    mapping = dataset_mapping(tmp_path, widening)
    d = len(mapping["channels"]["u_to_v"]["weight"][0])
    config = write_yaml(tmp_path / "files.yaml", mapping)
    assert main(["run", "--config", config]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: channels.u_to_v emits vector views of size {d + 1}, but the data's v side has vector views of size {d}" in err
    assert not (tmp_path / "from-files" / "metrics.csv").exists()


def test_train_views_above_what_the_schedule_leaves_exits_1_before_anything_runs(tmp_path, capsys):
    # clean_quick: 12 initial views -> keep 8 -> +16 leaves 24 per instance
    out = tmp_path / "out"
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    mapping["pipeline"]["train_views"] = 50
    config = write_yaml(tmp_path / "many.yaml", mapping)
    for command in ("run", "ablate"):
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: pipeline: train_views (50) exceeds the 24 candidate views per instance the schedule leaves\n"
        )
    assert not out.exists()


# --- ablate ------------------------------------------------------------------------


def test_ablate_writes_per_seed_and_mean_rows(tmp_path, capsys):
    out = tmp_path / "ablate"
    mapping = tiny_mapping(out, ablation={"seeds": [0, 1], "conditions": ["no_teacher", "unimodal"]})
    config = write_yaml(tmp_path / "ablate.yaml", mapping)
    assert main(["ablate", "--config", config]) == EXIT_OK
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "condition,accuracy,precision,recall,f1"
    conditions = [line.split(",")[0] for line in lines[1:]]
    assert conditions == ["no_teacher", "unimodal", "no_teacher", "unimodal", "no_teacher_mean", "unimodal_mean"]
    # mean rows equal the column means of their per-seed rows
    rows = [line.split(",") for line in lines[1:]]
    for condition in ("no_teacher", "unimodal"):
        group = [row for row in rows if row[0] == condition]
        mean_row = next(row for row in rows if row[0] == f"{condition}_mean")
        for col in range(1, 5):
            want = sum(float(row[col]) for row in group) / len(group)
            assert float(mean_row[col]) == pytest.approx(want, abs=1e-12)
    meta = json.loads((out / "ablate.meta.json").read_text())
    assert meta["conditions"] == ["no_teacher", "unimodal"]
    assert meta["seeds"] == [0, 1]
    capsys.readouterr()


def test_ablate_rejects_unknown_condition(tmp_path, capsys):
    mapping = tiny_mapping(tmp_path / "x", ablation={"seeds": [0], "conditions": ["warp"]})
    config = write_yaml(tmp_path / "bad.yaml", mapping)
    assert main(["ablate", "--config", config]) == EXIT_USAGE
    assert "valid names: full, no_ccg" in capsys.readouterr().err


@pytest.mark.parametrize("conditions", [[], "full"])
def test_ablate_refuses_conditions_that_are_not_a_non_empty_list(tmp_path, capsys, conditions):
    out = tmp_path / "x"
    mapping = tiny_mapping(out, ablation={"seeds": [0], "conditions": conditions})
    config = write_yaml(tmp_path / "bad.yaml", mapping)
    assert main(["ablate", "--config", config]) == EXIT_USAGE
    assert "ablation.conditions needs a non-empty list of condition names" in capsys.readouterr().err
    assert not (out / "ablation.csv").exists()


def test_ablate_refuses_a_repeated_condition(tmp_path, capsys):
    out = tmp_path / "x"
    mapping = tiny_mapping(out, ablation={"seeds": [0], "conditions": ["full", "unimodal", "full"]})
    config = write_yaml(tmp_path / "bad.yaml", mapping)
    assert main(["ablate", "--config", config]) == EXIT_USAGE
    assert "ablation.conditions names full more than once" in capsys.readouterr().err
    assert not (out / "ablation.csv").exists()


def test_ablate_refuses_a_condition_whose_schedule_leaves_too_few_views(tmp_path, capsys):
    # 4 initial views -> keep 2 -> +2 leaves 4, but no_ccg stops at the 2 kept
    out = tmp_path / "x"
    mapping = tiny_mapping(out, ablation={"seeds": [0], "conditions": ["full", "no_ccg"]})
    mapping["pipeline"]["train_views"] = 3
    config = write_yaml(tmp_path / "bad.yaml", mapping)
    assert main(["ablate", "--config", config]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: pipeline under ablation condition no_ccg: train_views (3) exceeds the 2 candidate views per "
        "instance the schedule leaves\n"
    )
    assert not out.exists()


def test_ablate_refuses_a_repeated_seed(tmp_path, capsys):
    out = tmp_path / "x"
    mapping = tiny_mapping(out, ablation={"seeds": [1, 1, 2], "conditions": ["full"]})
    config = write_yaml(tmp_path / "bad.yaml", mapping)
    assert main(["ablate", "--config", config]) == EXIT_USAGE
    assert "error: ablation.seeds names 1 more than once; name each seed once" in capsys.readouterr().err
    assert not (out / "ablation.csv").exists()


def test_ablate_and_run_read_one_data_path(tmp_path, capsys):
    # with a none-of-the-above class, ablate's full row at seed 5 is run
    # --seed 5's metrics row: both leave the none class out of the counts.
    # At the default 35/75 instances per class one test instance is missed.
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    mapping["data"] = {"none_class": 3}
    mapping["ablation"] = {"seeds": [5], "conditions": ["full"]}
    config = write_yaml(tmp_path / "none.yaml", mapping)
    assert main(["run", "--config", config, "--seed", "5", "--out", str(tmp_path / "run")]) == EXIT_OK
    assert main(["ablate", "--config", config, "--out", str(tmp_path / "ablate")]) == EXIT_OK
    run_row = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1]
    assert (tmp_path / "ablate" / "ablation.csv").read_text().splitlines()[1] == run_row
    _, accuracy, precision, _, _ = run_row.split(",")
    assert precision != accuracy
    capsys.readouterr()


# --- verify ------------------------------------------------------------------------


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("PASS ") == 10
    assert "FAIL" not in stdout
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 10
    assert all(check["passed"] for check in payload["checks"])


def test_verify_catches_an_injected_gradient_bug(monkeypatch, capsys):
    real = chainviews.nn.cross_attention_backward

    def flipped(params, cache, upstream, grads):
        dq, dmemory = real(params, cache, upstream, grads)
        return -dq, dmemory

    monkeypatch.setattr(chainviews.nn, "cross_attention_backward", flipped)
    assert main(["verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "FAIL gradient_attention" in captured.out
    assert "verification failed" in captured.err


# --- diversity ----------------------------------------------------------------------


def test_diversity_table_from_a_finished_run(run_artifacts, capsys):
    out = run_artifacts.out
    assert main(["diversity", "--config", run_artifacts.config]) == EXIT_OK
    lines = (out / "diversity.csv").read_text().splitlines()
    assert lines[0] == "pca_dim,n_components,V0,V1'"
    assert len(lines) == 1 + 2 * 2  # (pca_dims 1,2) x (components 1,2)
    first = (out / "diversity.csv").read_bytes()
    assert main(["diversity", "--config", run_artifacts.config]) == EXIT_OK
    assert (out / "diversity.csv").read_bytes() == first
    meta = json.loads((out / "diversity.meta.json").read_text())
    assert meta["stages"] == ["V0", "V1'"]
    capsys.readouterr()


def test_diversity_of_a_run_equals_the_api_report_at_its_seed(run_artifacts, capsys):
    # `run` then `diversity` on one --out is the table's one producer; it
    # must equal diversity_report over the stages of the same run in-process
    config = parse_config(read_config_mapping(run_artifacts.config))
    train, test, schema, g_uv, g_vu = load_experiment_data(config)
    result = run_pipeline(train, test, schema, g_uv, g_vu, config.pipeline, "full")
    stages = extract_stages(result.instances, schema)
    assert main(["diversity", "--config", run_artifacts.config]) == EXIT_OK
    rows = [line.split(",") for line in (run_artifacts.out / "diversity.csv").read_text().splitlines()[1:]]
    grid = [(d, c) for d in config.diversity_pca_dims for c in config.diversity_components]
    assert [(int(row[0]), int(row[1])) for row in rows] == grid
    for row, (pca_dim, components) in zip(rows, grid):
        records = diversity_report(stages, pca_dim, components, seed=config.seed)
        assert [float(cell) for cell in row[2:]] == [r.statistic for r in records]
    capsys.readouterr()


def test_diversity_explicit_dataset_flag(run_artifacts, tmp_path, capsys):
    out = tmp_path / "div"
    code = main(
        [
            "diversity",
            "--config",
            run_artifacts.config,
            "--out",
            str(out),
            "--dataset",
            str(run_artifacts.out / "dataset.jsonl"),
        ]
    )
    assert code == EXIT_OK
    assert (out / "diversity.csv").read_bytes() == (run_artifacts.out / "diversity.csv").read_bytes()
    capsys.readouterr()


def test_diversity_on_a_dataset_path_that_is_a_directory_exits_1_naming_it(run_artifacts, tmp_path, capsys):
    out = tmp_path / "div"
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(out), "--dataset", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot read dataset {tmp_path}: ")
    assert not (out / "diversity.csv").exists()


def test_diversity_needs_synthetic_views(tmp_path, capsys):
    bench = tmp_path / "bench"
    config = write_yaml(
        tmp_path / "gen.yaml",
        {
            "seed": 3,
            "out_dir": str(bench),
            "world": {"preset": "clean"},
            "data": {"train_per_class": 2, "test_per_class": 2},
        },
    )
    assert main(["gen-benchmark", "--config", config]) == EXIT_OK
    code = main(["diversity", "--config", config, "--dataset", str(bench / "train.jsonl")])
    assert code == EXIT_USAGE
    assert "no synthetic views" in capsys.readouterr().err


def diversity_on_edited(run_artifacts, tmp_path, edit, line=1) -> int:
    """``chainviews diversity`` on the run's dataset with ``edit`` applied to
    the record on 0-based ``line`` (the first instance by default)."""
    lines = (run_artifacts.out / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[line])
    edit(record)
    lines[line] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    return main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (1, lambda record: recolumn(record["pool"], "survived", lambda counts: [-1] + counts[1:]), "non-negative"),
        (0, lambda header: header.update(version=1), "version 1"),
        (0, lambda header: header.update(version=2), "version 2"),
        (0, lambda header: header.update(version=3), "version 3"),
    ],
    ids=["negative_count", "version_1_pool", "version_2_pool", "version_3_pool"],
)
def test_diversity_rejects_malformed_selection_records(run_artifacts, tmp_path, capsys, line, edit, message):
    assert diversity_on_edited(run_artifacts, tmp_path, edit, line) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and err.startswith(f"error: line {line + 1}: "), err


def test_diversity_rejects_a_broken_ancestry_chain(run_artifacts, tmp_path, capsys):
    # a view that names itself as its parent parses, but its chain never
    # reaches the real view: the reader must turn the file away
    def self_parent(record):
        recolumn(record["pool"], "parent_id", lambda parents: parents[:-1] + [len(parents) - 1])

    assert diversity_on_edited(run_artifacts, tmp_path, self_parent) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: view 7 (") and "cannot descend from view 7" in err, err
    assert not (tmp_path / "diversity.csv").exists()


def test_diversity_rejects_non_finite_values(run_artifacts, tmp_path, capsys):
    # no float is written as a JSON number, so a NaN constant is refused wherever it stands
    code = diversity_on_edited(run_artifacts, tmp_path, lambda record: record.__setitem__("label", float("nan")))
    assert code == EXIT_USAGE
    assert "line 2: non-finite number NaN" in capsys.readouterr().err


def test_diversity_rejects_a_literal_that_overflows_a_float(run_artifacts, tmp_path, capsys):
    # the loss column holds inf as a bit pattern, not a literal json.loads
    # overflows to: the reader must refuse it all the same, naming the view
    def infinite_loss(record):
        recolumn(record["pool"], "teacher_loss", lambda losses: [float("inf")] + losses[1:])

    assert diversity_on_edited(run_artifacts, tmp_path, infinite_loss) == EXIT_USAGE
    assert "line 2: view 0 has a non-finite teacher loss" in capsys.readouterr().err


def test_diversity_rejects_a_byte_that_is_not_utf8_naming_its_line(run_artifacts, tmp_path, capsys):
    lines = (run_artifacts.out / "dataset.jsonl").read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"id"', b'"\xffid"', 1)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(b"\n".join(lines))
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not UTF-8 ("), err
    assert not (tmp_path / "diversity.csv").exists()


def decode_matrix(m) -> np.ndarray:
    return np.frombuffer(base64.b64decode(m["data"]), "<f8").reshape(m["shape"])


def encode_matrix(kind, data) -> dict:
    data = np.asarray(data, dtype="<f8" if kind == "vector" else "<i8")
    return {"kind": kind, "shape": list(data.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


@pytest.mark.parametrize(
    "edit, message",
    [
        # one view a value short: the data no longer fills the shape
        (lambda m: m.update(data=encode_matrix("vector", decode_matrix(m).ravel()[:-1])["data"]), "shape [6, 2] needs 96 bytes, data holds 88"),
        # values given as a JSON list, which the reader would have to coerce
        (lambda m: m.update(data=[True, "2"]), "data must be a base64 string, got list"),
        # every view a value short: consistent, but not the schema's width
        (lambda m: m.update(encode_matrix("vector", decode_matrix(m)[:, :1])), "the schema's v-side views are vector of size 2, got vector views of length 1"),
    ],
    ids=["short_view", "coerced_values", "short_instance"],
)
def test_diversity_rejects_malformed_view_data(run_artifacts, tmp_path, capsys, edit, message):
    # without the checks at read time, short views fail later in numpy and exit 2
    assert diversity_on_edited(run_artifacts, tmp_path, lambda record: edit(record["pool"]["v"])) == EXIT_USAGE
    assert f"line 2: bad view: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("symbol", [7, -1])
def test_diversity_rejects_a_symbol_outside_the_alphabet(run_artifacts, tmp_path, capsys, symbol):
    # the run's v side recast as 4-symbol sequences, one of them out of range:
    # unchecked, diversity would report on counts that no longer sum to 1
    lines = (run_artifacts.out / "dataset.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["v_spec"] = {"kind": "discrete", "size": 4}
    lines[0] = json.dumps(header)
    for i, text in enumerate(lines[1:], start=1):
        record = json.loads(text)
        symbols = np.tile([0, 3, 2], (record["pool"]["v"]["shape"][0], 1))
        if i == 1:
            symbols[1, 1] = symbol
        record["pool"]["v"] = encode_matrix("discrete", symbols)
        lines[i] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
    assert "line 2: synthetic view " in (err := capsys.readouterr().err) and "holds a symbol outside [0, 4)" in err


@pytest.mark.parametrize("model, phase", [("teacher", "teacher, selection 0"), ("student", "student")])
def test_diverging_training_exits_2_and_names_the_phase(tmp_path, capsys, model, phase):
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    mapping["pipeline"][model]["learning_rate"] = 1.0e300
    config = write_yaml(tmp_path / "diverge.yaml", mapping)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"TrainingDivergedError: {phase} training: loss became non-finite" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_diversity_rejects_oversized_pca_dim(run_artifacts, tmp_path, capsys):
    mapping = tiny_mapping(run_artifacts.out, diversity={"pca_dims": [5], "components": [1]})
    config = write_yaml(tmp_path / "wide.yaml", mapping)
    assert main(["diversity", "--config", config]) == EXIT_USAGE
    assert "exceeds the synthetic view size" in capsys.readouterr().err


def test_default_diversity_grid_on_a_narrow_v_side_fails_before_any_fit(run_artifacts, tmp_path, monkeypatch, capsys):
    # the clean preset's v side is 2 wide and the default grid is (2, 4):
    # the whole grid is checked before the pca_dim 2 rows are fitted
    mapping = tiny_mapping(tmp_path / "out")
    del mapping["diversity"]
    config = write_yaml(tmp_path / "default-grid.yaml", mapping)
    fits = []
    monkeypatch.setattr("chainviews.cli.diversity_report", lambda *args, **kwargs: fits.append(args))
    dataset = str(run_artifacts.out / "dataset.jsonl")
    assert main(["diversity", "--config", config, "--dataset", dataset]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "diversity.pca_dims" in err and "synthetic view size 2" in err and "(2, 4)" in err
    assert fits == []
    assert not (tmp_path / "out" / "diversity.csv").exists()


# --- malformed config values ---------------------------------------------------------


def custom_world_mapping(out_dir):
    """A two-class custom world with explicit channels, one of them composed,
    and the tiny pipeline: every world, channel and data key in one config."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    custom = {
        "class_means": [[2.0, 0.0], [-2.0, 0.0]],
        "within_class_sigma": 0.5,
        "entity_vocab": 2,
        "entity_pairs_by_class": [[[0, 1]], [[1, 0]]],
    }
    stage = {"kind": "linear_gaussian", "weight": eye, "noise_sigma": 0.3}
    return tiny_mapping(
        out_dir,
        world={"custom": custom},
        channels={"u_to_v": {**stage, "bias": [0.0, 0.0]}, "v_to_u": {"kind": "compose", "stages": [stage]}},
    )


def with_value(mapping, path, value):
    node = mapping
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return mapping


def run_exit_and_stderr(mapping, directory: Path) -> tuple[int, str]:
    config = write_yaml(directory / "bad.yaml", mapping)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", config, "--out", str(directory / "out")])
    return code, err.getvalue()


def test_the_custom_world_config_runs(tmp_path):
    assert run_exit_and_stderr(custom_world_mapping(tmp_path / "out"), tmp_path) == (EXIT_OK, "")


def test_a_compose_whose_stages_do_not_chain_exits_1_naming_the_channel(tmp_path):
    mapping = custom_world_mapping(tmp_path / "out")
    widen = {"kind": "linear_gaussian", "weight": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "noise_sigma": 0.3}
    mapping["channels"]["v_to_u"]["stages"] = [widen, widen]  # the second stage reads 2, the first emits 3
    code, err = run_exit_and_stderr(mapping, tmp_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: channels.v_to_u (compose): cannot compose"), err


@pytest.mark.parametrize("key, value", [("v_size", 2), ("name", "twoclass")])
def test_removed_custom_world_keys_are_unknown(tmp_path, key, value):
    # the v side is what channels.u_to_v emits, and no output reads a world name
    mapping = custom_world_mapping(tmp_path / "out")
    mapping["world"]["custom"][key] = value
    code, err = run_exit_and_stderr(mapping, tmp_path)
    assert code == EXIT_USAGE
    assert f"unknown keys in world.custom: {key}" in err, err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("channels", "u_to_v"), {"kind": "teleport"}, "channels.u_to_v: unknown channel kind 'teleport'"),
        (("world", "custom", "class_means"), [[2.0, 0.0], [2.0, 0.0]], "world.custom: classes 0 and 1 share a mean"),
        (("data", "none_class"), 2, "data.none_class 2 is not one of the world's 2 classes"),
    ],
    ids=["teleport", "shared_mean", "none_class"],
)
@pytest.mark.parametrize("command", ["gen-benchmark", "run", "ablate", "diversity"])
def test_every_command_refuses_a_config_whose_world_or_channels_are_bad(
    run_artifacts, tmp_path, capsys, command, path, value, message
):
    # diversity reads only a finished run's dataset, but checks the whole config first
    out = tmp_path / "out"
    config = write_yaml(tmp_path / "bad.yaml", with_value(custom_world_mapping(out), path, value))
    dataset = ["--dataset", str(run_artifacts.out / "dataset.jsonl")] if command == "diversity" else []
    assert main([command, "--config", config, *dataset]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


RAGGED = [[1.0, 0.0], [0.0]]
HUGE = 10**400  # a YAML integer too large for a float

MALFORMED = [
    # (base config, key path, value): each must fail as the config is read,
    # not with a raw TypeError/ValueError or after the whole run
    ("quick", ("pipeline", "ccg_rounds"), "two"),
    ("quick", ("pipeline", "initial_views"), "x"),
    ("quick", ("pipeline", "keep_fraction"), "half"),
    ("quick", ("pipeline", "spawn_per_kept"), 3),
    ("quick", ("pipeline", "spawn_per_kept"), ["a"]),
    ("quick", ("pipeline", "teacher", "learning_rate"), "fast"),
    ("quick", ("pipeline", "teacher", "steps"), 2.5),
    ("quick", ("pipeline", "student", "batch_size"), 0),
    ("quick", ("data", "train_per_class"), "x"),
    ("quick", ("data", "none_class"), "x"),
    ("quick", ("diversity", "pca_dims"), ["a"]),
    ("quick", ("ablation",), {"seeds": 3}),
    ("custom", ("channels", "u_to_v", "noise_sigma"), "x"),
    ("custom", ("channels", "u_to_v", "weight"), RAGGED),
    ("custom", ("channels", "v_to_u", "stages"), 5),
    ("custom", ("world", "custom", "class_means"), "x"),
    ("quick", ("pipeline", "teacher", "learning_rate"), HUGE),
    ("custom", ("channels", "u_to_v", "weight"), [[HUGE, 0.0], [0.0, 1.0]]),
    # keys of deleted settings; "no" is a string, not a bool
    ("quick", ("pipeline", "teacher_warm_start"), True),
    ("quick", ("pipeline", "infer_generate"), 4),
    ("quick", ("pipeline", "shared_attention"), "no"),
    ("quick", ("pipeline", "teacher", "weight_decay"), 0.01),
    ("quick", ("pipeline", "student", "cosine_decay"), True),
    # the diversity table is `chainviews diversity`'s, set by its own grid
    ("quick", ("pipeline", "pca_dim"), 0),
    ("quick", ("pipeline", "gmm_components"), 0),
]


@pytest.mark.parametrize(
    "base, path, value", MALFORMED, ids=[f"{'.'.join(path)}={value!r:.24}" for _, path, value in MALFORMED]
)
def test_malformed_config_values_exit_1_naming_the_key(tmp_path, base, path, value):
    if base == "quick":
        mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    else:
        mapping = custom_world_mapping(tmp_path / "out")
    code, err = run_exit_and_stderr(with_value(mapping, path, value), tmp_path)
    assert code == EXIT_USAGE
    key = path[-1] if path != ("ablation",) else "seeds"
    assert err.startswith("error: ") and key in err, err


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_keep_fraction_must_be_a_number_under_every_policy(tmp_path, policy):
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    mapping["pipeline"].update(policy=policy, keep_fraction="half")
    code, err = run_exit_and_stderr(mapping, tmp_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "keep_fraction" in err, err


@pytest.mark.parametrize("policy", ["keep_all", "similarity"])
def test_a_retired_policy_exits_1_naming_the_two(tmp_path, policy):
    # keep_all is the random policy at keep_fraction 1.0; similarity is gone
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    mapping["pipeline"]["policy"] = policy
    code, err = run_exit_and_stderr(mapping, tmp_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and f"unknown policy '{policy}'; choose one of ('teacher_loss', 'random')" in err, err


def test_infer_views_above_initial_views_exits_1_naming_both(tmp_path):
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    mapping["pipeline"].update(initial_views=5, infer_views=8)
    code, err = run_exit_and_stderr(mapping, tmp_path)
    assert code == EXIT_USAGE
    assert err.startswith("error: pipeline: infer_views (8) must not exceed initial_views (5)"), err


def test_ablate_reports_malformed_values_as_config_errors(tmp_path, capsys):
    # ablate loads each seed's data, and must leave malformed values to the config parser
    mapping = yaml.safe_load(QUICK.read_text(encoding="utf-8"))
    config = write_yaml(tmp_path / "empty.yaml", with_value(mapping, ("data", "train_per_class"), 0))
    assert main(["ablate", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "data.train_per_class must be a positive integer, got 0" in capsys.readouterr().err


TEXT = st.text(alphabet="abxyz01 .-", max_size=4)


def not_an_int(low):
    return st.one_of(
        TEXT, st.booleans(), st.floats(), st.none(), st.lists(st.integers(0, 3), max_size=2), st.integers(-5, low - 1)
    )


def not_a_number(positive=True):
    too_low = st.floats(max_value=0.0) if positive else st.floats(max_value=-1e-6)
    return st.one_of(
        TEXT, st.booleans(), st.none(), st.lists(st.floats(0.1, 1.0), max_size=2), too_low, st.just(float("nan")), st.just(HUGE)
    )


NOT_A_MATRIX = st.one_of(
    TEXT,
    st.floats(),
    st.none(),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
    st.sampled_from(
        [RAGGED, [["a", 1.0], [0.0, 1.0]], [[float("nan"), 0.0], [0.0, 1.0]], [[True, False], [0, 1]], [[HUGE, 0], [0, 1]]]
    ),
)

# every value each key may never hold, for the custom-world config
FUZZED = {
    ("pipeline", "ccg_rounds"): not_an_int(0),
    ("pipeline", "initial_views"): not_an_int(1),
    ("pipeline", "train_views"): not_an_int(1),
    ("pipeline", "infer_views"): not_an_int(1),
    ("pipeline", "spawn_per_kept"): st.one_of(
        TEXT, st.integers(), st.none(), st.lists(not_an_int(0), min_size=1, max_size=1), st.just([1, 1])
    ),
    ("pipeline", "keep_fraction"): st.one_of(not_a_number(), st.floats(min_value=1.0, exclude_min=True)),
    ("pipeline", "policy"): st.one_of(TEXT, st.integers(), st.none()),
    ("pipeline", "infer_full_chain"): st.one_of(TEXT, st.integers(), st.floats(), st.none()),
    ("pipeline", "teacher", "steps"): not_an_int(0),
    ("pipeline", "teacher", "batch_size"): not_an_int(1),
    ("pipeline", "student", "learning_rate"): st.one_of(not_a_number(positive=False), st.just(float("inf"))),
    ("data", "train_per_class"): not_an_int(1),
    ("data", "test_per_class"): not_an_int(1),
    ("data", "none_class"): st.one_of(TEXT, st.booleans(), st.floats(), st.integers(max_value=-1), st.integers(2, 50)),
    ("world", "custom", "class_means"): NOT_A_MATRIX,
    ("world", "custom", "within_class_sigma"): not_a_number(),
    ("world", "custom", "entity_vocab"): not_an_int(1),
    ("world", "custom", "entity_pairs_by_class"): st.one_of(
        TEXT, st.integers(), st.none(), st.sampled_from([[[0, 1]], [[["a", 1]]], [[[0, 1, 1]]], [[[0.5, 1]], [[1, 0]]]])
    ),
    ("channels", "u_to_v", "weight"): NOT_A_MATRIX,
    ("channels", "u_to_v", "bias"): st.one_of(TEXT, st.floats(), st.just([1.0]), st.just([[1.0, 0.0]])),
    ("channels", "u_to_v", "noise_sigma"): not_a_number(),
    ("channels", "v_to_u", "stages"): st.one_of(TEXT, st.integers(), st.none(), st.just([]), st.just({"kind": "discrete"})),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(FUZZED)).flatmap(lambda path: st.tuples(st.just(path), FUZZED[path])))
def test_every_malformed_pipeline_data_world_or_channel_value_exits_1(tmp_path_factory, case):
    path, value = case
    directory = tmp_path_factory.mktemp("fuzz")
    code, err = run_exit_and_stderr(with_value(custom_world_mapping(directory / "out"), path, value), directory)
    assert code == EXIT_USAGE, err
    assert err.startswith("error: ") and path[-1] in err, err

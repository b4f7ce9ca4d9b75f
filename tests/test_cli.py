"""The command-line front-end, driven in-process through main(argv)."""

import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import chainviews.nn
from chainviews.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY, main
from chainviews.datamodel import read_dataset


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
            "pca_dim": 2,
            "gmm_components": 2,
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


def test_run_k_zero_flag(run_artifacts, tmp_path, capsys):
    out = tmp_path / "k0"
    assert main(["run", "--config", run_artifacts.config, "--out", str(out), "--k", "0"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["ccg_rounds"] == 0
    assert [d["stage"] for d in report["diversity"]] == ["V0"]
    assert (out / "metrics.csv").read_text().splitlines()[1].startswith("no_ccg,")
    capsys.readouterr()


def test_run_on_dataset_files(tmp_path, capsys):
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
    d = schema.u_spec.size
    eye = [[float(i == j) for j in range(d)] for i in range(d)]
    mapping = tiny_mapping(tmp_path / "from-files")
    del mapping["world"]
    del mapping["data"]
    mapping["seed"] = 7
    mapping["dataset"] = {"train": str(bench / "train.jsonl"), "test": str(bench / "test.jsonl")}
    mapping["channels"] = {
        "u_to_v": {"kind": "linear_gaussian", "weight": eye, "noise_sigma": 0.4},
        "v_to_u": {"kind": "linear_gaussian", "weight": eye, "noise_sigma": 0.4},
    }
    config = write_yaml(tmp_path / "files.yaml", mapping)
    assert main(["run", "--config", config]) == EXIT_OK
    assert (tmp_path / "from-files" / "metrics.csv").exists()
    capsys.readouterr()


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
        dq, dk, dv = real(params, cache, upstream, grads)
        return -dq, dk, dv

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


@pytest.mark.parametrize(
    "old, new, message",
    [('"survived":1', '"survived":-1', "non-negative"), ('"version":2', '"version":1', "version 1")],
    ids=["negative_count", "version_1_pool"],
)
def test_diversity_rejects_malformed_selection_records(run_artifacts, tmp_path, capsys, old, new, message):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text((run_artifacts.out / "dataset.jsonl").read_text().replace(old, new, 1))
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_diversity_rejects_non_finite_values(run_artifacts, tmp_path, capsys):
    lines = (run_artifacts.out / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["real_view"]["data"][0] = float("nan")
    lines[1] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
    assert "line 2: non-finite number NaN" in capsys.readouterr().err


def test_diversity_rejects_a_literal_that_overflows_a_float(run_artifacts, tmp_path, capsys):
    lines = (run_artifacts.out / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["real_view"]["data"][0] = 12345.5
    lines[1] = json.dumps(record).replace("12345.5", "1e999")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
    assert "line 2: the real view holds a non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cut_all, cut, message",
    [
        (False, lambda data: data[:1], "views on one side must share a length, got lengths [1, 2]"),
        (False, lambda data: [True, "2"], "vector view data must be numbers, got bool, str"),
        (True, lambda data: data[:1], "the schema's v-side views are vector of size 2, got vector views of length 1"),
    ],
    ids=["short_view", "coerced_values", "short_instance"],
)
def test_diversity_rejects_malformed_view_data(run_artifacts, tmp_path, capsys, cut_all, cut, message):
    # without the checks at read time, short views fail later in numpy and exit 2
    lines = (run_artifacts.out / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    v_side = [sv for sv in record["synthetic_views"] if sv["step"] == "u_to_v"]
    for sv in v_side if cut_all else v_side[1:2]:
        sv["view"]["data"] = cut(sv["view"]["data"])
    lines[1] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
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
        v_side = [sv for sv in record["synthetic_views"] if sv["step"] == "u_to_v"]
        for k, sv in enumerate(v_side):
            sv["view"] = {"kind": "discrete", "data": [0, symbol if (i, k) == (1, 1) else 3, 2]}
        lines[i] = json.dumps(record)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    code = main(["diversity", "--config", run_artifacts.config, "--out", str(tmp_path), "--dataset", str(dataset)])
    assert code == EXIT_USAGE
    assert "line 2: synthetic view " in (err := capsys.readouterr().err) and "holds a symbol outside [0, 4)" in err


@pytest.mark.parametrize("model, phase", [("teacher", "teacher, selection 0"), ("student", "student")])
def test_diverging_training_exits_2_and_names_the_phase(tmp_path, capsys, model, phase):
    quick = Path(__file__).resolve().parent.parent / "configs" / "clean_quick.yaml"
    mapping = yaml.safe_load(quick.read_text(encoding="utf-8"))
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

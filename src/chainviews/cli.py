"""Command-line front-end.

Five subcommands: ``gen-benchmark`` (sample a world into dataset files),
``run`` (one full pipeline run), ``ablate`` (all conditions over seeds),
``verify`` (the invariant suite), ``diversity`` (stage-wise generalized
variance from a finished run's dataset).

Exit codes: 0 success, 1 usage or config error, 2 runtime failure,
3 verification failure.

Every table file is deterministic for a given config; a ``*.meta.json``
sidecar next to each output records the config digest and seed so results
stay traceable without polluting the pinned table formats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    build_world,
    load_experiment_data,
    merge_overrides,
    parse_config,
    read_config_mapping,
)
from .datamodel import DatasetFormatError, read_dataset, write_dataset
from .diversity import diversity_report
from .pipeline import (
    ablation_table,
    extract_stages,
    metrics_table_text,
    run_ablation,
    run_pipeline,
    save_report,
)
from .verification import all_passed, run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_meta(path: Path, payload: dict) -> None:
    payload = {"tool_version": __version__, **payload}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(config: ExperimentConfig, arg_out: str | None) -> Path:
    out = Path(arg_out) if arg_out else Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args, k_override: int | None = None) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    mapping = merge_overrides(read_config_mapping(args.config), overrides)
    if k_override is not None:
        section = dict(mapping.get("pipeline") or {})
        section["ccg_rounds"] = k_override
        spawn = section.get("spawn_per_kept")
        if spawn is not None:
            spawn = list(spawn)[:k_override]
            spawn += [1] * (k_override - len(spawn))
            section["spawn_per_kept"] = spawn
        mapping["pipeline"] = section
    return parse_config(mapping, source=str(args.config))


def _condition_name(config: ExperimentConfig) -> str:
    """Map a plain run's settings onto the ablation vocabulary."""
    policy = config.pipeline.policy_name
    if policy == "teacher_loss":
        return "full" if config.pipeline.ccg_rounds > 0 else "no_ccg"
    return {
        "similarity": "similarity_teacher",
        "random": "random_teacher",
        "keep_all": "no_teacher",
    }[policy]


# --- subcommands ----------------------------------------------------------------


def cmd_gen_benchmark(args) -> int:
    config = _load(args)
    if config.world_preset is None and config.world_custom is None:
        raise ConfigError("gen-benchmark needs a 'world' section, not dataset paths")
    out = _out_dir(config, args.out)
    from .channels import generate_benchmark

    world, _, _, v_spec = build_world(config)
    files = {}
    for stream, n in (("train", config.train_per_class), ("test", config.test_per_class)):
        if n <= 0:
            continue
        instances, schema = generate_benchmark(
            world, n, v_spec, stream=stream, none_class=config.none_class
        )
        path = out / f"{stream}.jsonl"
        write_dataset(instances, schema, path)
        files[stream] = {"path": path.name, "instances": len(instances)}
        print(f"wrote {path} ({len(instances)} instances)")
    _write_meta(
        out / "gen-benchmark.meta.json",
        {"config_digest": config.digest, "seed": config.seed, "files": files},
    )
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load(args, k_override=args.k)
    out = _out_dir(config, args.out)
    train_instances, test_instances, schema, g_uv, g_vu = load_experiment_data(config)
    pipeline = replace(config.pipeline, workers=args.workers)
    condition = _condition_name(config)
    result = run_pipeline(
        train_instances,
        test_instances,
        schema,
        g_uv,
        g_vu,
        pipeline,
        condition=condition,
        config_digest=config.digest,
    )
    metrics = result.report.metrics
    write_dataset(result.instances, schema, out / "dataset.jsonl")
    save_report(result.report, out / "report.json")
    rows = [{"condition": condition, **metrics}]
    _write_text(out / "metrics.csv", metrics_table_text(rows))
    _write_meta(
        out / "run.meta.json",
        {"config_digest": config.digest, "seed": config.seed, "condition": condition},
    )
    print(f"wrote {out / 'dataset.jsonl'}, {out / 'report.json'}, {out / 'metrics.csv'}")
    print(
        f"{condition}: accuracy={metrics['accuracy']:.4f} f1={metrics['f1']:.4f} "
        f"(pool per instance: {result.report.final_pool_size})"
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _load(args)
    if config.world_preset is None and config.world_custom is None:
        raise ConfigError("ablate needs a generative 'world' section, not dataset paths")
    out = _out_dir(config, args.out)

    def make_world(seed: int):
        return build_world(config, seed=seed)

    base = replace(config.pipeline, workers=args.workers)
    started = time.perf_counter()
    rows, reports = run_ablation(
        make_world,
        base,
        seeds=config.ablation_seeds,
        conditions=config.ablation_conditions,
        n_train_per_class=config.train_per_class,
        n_test_per_class=config.test_per_class,
    )
    elapsed = time.perf_counter() - started
    table = ablation_table(rows)
    _write_text(out / "ablation.csv", metrics_table_text(table))
    _write_meta(
        out / "ablate.meta.json",
        {
            "config_digest": config.digest,
            "seeds": list(config.ablation_seeds),
            "conditions": list(config.ablation_conditions),
            "row_order": "per-seed rows in config order, then one mean row per condition",
            "runtime_seconds": elapsed,
        },
    )
    print(f"wrote {out / 'ablation.csv'} ({len(table)} rows, {elapsed:.1f}s)")
    for row in table:
        if str(row["condition"]).endswith("_mean"):
            print(f"{row['condition']}: f1={row['f1']:.4f} accuracy={row['accuracy']:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(seed=args.seed if args.seed is not None else 0)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {result.name}: statistic={result.statistic:.3g} "
            f"threshold={result.threshold:.3g} ({result.runtime_seconds:.2f}s)"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "all_passed": all_passed(results),
            "seed": args.seed if args.seed is not None else 0,
            "checks": [r.to_dict() for r in results],
        }
        _write_meta(out / "verify_report.json", payload)
        print(f"wrote {out / 'verify_report.json'}")
    if not all_passed(results):
        failed = [r.name for r in results if not r.passed]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_diversity(args) -> int:
    config = _load(args)
    out = _out_dir(config, args.out)
    dataset_path = Path(args.dataset) if args.dataset else out / "dataset.jsonl"
    instances, schema = read_dataset(dataset_path)
    stages = extract_stages(instances, schema)
    if not stages:
        raise ConfigError(f"{dataset_path} holds no synthetic views; run the pipeline first")
    thin = [name for name, matrix in stages.items() if matrix.shape[0] < 2]
    if thin:
        raise ConfigError(f"stages with fewer than 2 views: {', '.join(thin)}")
    stage_names = list(stages)
    lines = [",".join(["pca_dim", "n_components"] + stage_names)]
    for pca_dim in config.diversity_pca_dims:
        if pca_dim > schema.v_spec.size:
            raise ConfigError(
                f"pca_dim {pca_dim} exceeds the synthetic view size {schema.v_spec.size}"
            )
        for n_components in config.diversity_components:
            records = diversity_report(stages, pca_dim, n_components, seed=config.seed)
            by_stage = {r.stage: r.statistic for r in records}
            lines.append(
                ",".join(
                    [str(pca_dim), str(n_components)]
                    + [repr(float(by_stage[name])) for name in stage_names]
                )
            )
    _write_text(out / "diversity.csv", "\n".join(lines) + "\n")
    _write_meta(
        out / "diversity.meta.json",
        {
            "config_digest": config.digest,
            "seed": config.seed,
            "dataset": str(dataset_path),
            "stages": stage_names,
        },
    )
    print(f"wrote {out / 'diversity.csv'} (stages: {', '.join(stage_names)})")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainviews",
        description="Cross-modal view curation: benchmarks, pipeline runs, ablations, "
        "verification, and diversity tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")

    def workers(p):
        p.add_argument("--workers", type=int, default=1, help="worker threads; never affects results")

    p = sub.add_parser("gen-benchmark", help="sample a benchmark world into dataset files")
    common(p)
    p.set_defaults(func=cmd_gen_benchmark)

    p = sub.add_parser("run", help="run the full pipeline once")
    common(p)
    workers(p)
    p.add_argument("--k", type=int, default=None, help="override the number of generation rounds")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run every ablation condition over the configured seeds")
    common(p)
    workers(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run the registered invariant checks")
    common(p, needs_config=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diversity", help="stage-wise generalized variance from a run's dataset")
    common(p)
    p.add_argument("--dataset", default=None, help="dataset file (default: <out>/dataset.jsonl)")
    p.set_defaults(func=cmd_diversity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract says 1
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # anything else is a runtime failure, not usage
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

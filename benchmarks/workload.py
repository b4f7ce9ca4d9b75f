"""One benchmark repetition in its own process.

The process imports ``chainviews`` from the checkout's ``src/``, builds the
workload's inputs from the seed (that is ``setup_s``), runs the timed body
once, then checks and digests the outputs outside the timed region. It
prints one JSON object as the last line of stdout. ``run.py`` starts it;
by hand:

    python3 benchmarks/workload.py '{"workload": "chain_deep", "seed": 0, "mode": "run", "trace": 0}'

``mode`` is ``run`` or ``setup`` (set up, report ``setup_s``, stop).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS/OpenMP pools stay at one thread, so ``workers`` is the only parallelism.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ABLATION_CONDITIONS = ("full", "no_ccg", "no_teacher", "unimodal")
DIVERSITY_GRID = ((2, 2), (2, 3), (4, 2), (4, 3))  # (pca_dim, components)

# Sizes per workload; the schedules are in ablation_config / chain_config.
WORKLOADS = {
    "ablation": {"train_per_class": 20, "test_per_class": 150, "workers": 1},
    "chain_deep": {"train_per_class": 50, "test_per_class": 150, "workers": 1},
    "chain_deep_w2": {"train_per_class": 50, "test_per_class": 150, "workers": 2},
}


def operations(workload: str) -> tuple[str, ...]:
    """The checked operations of one repetition; each counts once in
    ``attempted`` and once in ``failed`` if it raises or its check fails."""
    if workload == "ablation":
        return tuple(f"run:{c}" for c in ABLATION_CONDITIONS)
    return ("run_pipeline", "write_dataset", "read_dataset", "round_trip", "extract_stages") + tuple(
        f"diversity_report:{p}x{c}" for p, c in DIVERSITY_GRID
    )


def output_digest(dataset_texts, reports, extra=None) -> str:
    """sha256 over the deterministic outputs: dataset texts, run reports
    without their wall-clock ``timing`` field, and ``extra``."""
    payload = {
        "datasets": [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in dataset_texts],
        "reports": [{k: v for k, v in report.items() if k != "timing"} for report in reports],
        "extra": extra,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def expected_schedule(config) -> tuple[list[tuple[int, int]], int, int]:
    """(pool, kept) per selection, final candidates and pool length per
    instance, derived from the config alone."""
    from fractions import Fraction

    def keep(n):
        if config.policy_name == "keep_all":
            return n
        product = Fraction(str(config.keep_fraction)) * n
        return -(-product.numerator // product.denominator)

    spawns = list(config.spawn_per_kept) if config.ccg_rounds > 0 else [0]
    candidates, pool_len, rounds = config.initial_views, config.initial_views, []
    for spawn in spawns:
        kept = keep(candidates)
        rounds.append((candidates, kept))
        pool_len += 2 * kept * spawn
        candidates = kept + kept * spawn
    return rounds, candidates, pool_len


def check_run(result, config, n_train: int, n_test: int, condition: str) -> str | None:
    """Why a run's outputs are wrong, or None."""
    report = result.report
    metrics = report.metrics
    if metrics.get("count") != n_test or not 0.0 <= metrics.get("f1", -1.0) <= 1.0:
        return f"metrics malformed: {metrics}"
    if len(result.instances) != n_train:
        return f"{len(result.instances)} instances, expected {n_train}"
    if condition == "unimodal":
        return None
    rounds, final, pool_len = expected_schedule(config)
    got = [(r.pool_size, r.kept_size) for r in report.rounds]
    if got != rounds or report.final_pool_size != final:
        return f"schedule {got} -> {report.final_pool_size}, expected {rounds} -> {final}"
    if any(len(inst.synthetic_pool) != pool_len for inst in result.instances):
        return f"pool length differs from {pool_len}"
    return None


def machine_numpy() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --- the timed bodies ------------------------------------------------------------


def ablation_config(cv, seed: int):
    """The criterion-7 study's settings, as ``chainviews ablate`` runs them."""
    return cv.PipelineConfig(
        seed=seed, ccg_rounds=1, initial_views=30, spawn_per_kept=(4,), keep_fraction=0.5,
        train_views=10, infer_views=6,
        teacher=cv.TrainConfig(learning_rate=0.02, steps=260, batch_size=48),
        student=cv.TrainConfig(learning_rate=0.01, steps=450, batch_size=32),
        pca_dim=2, gmm_components=2, workers=1,
    )


def chain_config(cv, seed: int, workers: int):
    """The stock deep schedule with light models and full-chain inference."""
    return cv.PipelineConfig(
        seed=seed, ccg_rounds=2, initial_views=30, spawn_per_kept=(4, 1), keep_fraction=0.6,
        train_views=6, infer_views=6,
        teacher=cv.TrainConfig(learning_rate=0.02, steps=60, batch_size=48),
        student=cv.TrainConfig(learning_rate=0.01, steps=60, batch_size=32),
        infer_full_chain=True, workers=workers,
    )


def ablation_body(cv, data, seed, state, failures):
    base = ablation_config(cv, seed)
    for condition in ABLATION_CONDITIONS:
        config = cv.pipeline.condition_config(base, condition)
        try:
            state[condition] = (config, cv.pipeline.run_pipeline(
                data["train"], data["test"], data["schema"], data["g_uv"], data["g_vu"], config, condition))
        except Exception:
            failures[f"run:{condition}"] = traceback.format_exc(limit=3)


def chain_body(cv, data, seed, state, failures, workers, workdir: Path):
    """``chainviews run`` then ``chainviews diversity``, through the API."""
    ops = iter(operations("chain_deep"))
    op = next(ops)
    try:
        config = chain_config(cv, seed, workers)
        state["config"] = config
        state["result"] = cv.pipeline.run_pipeline(
            data["train"], data["test"], data["schema"], data["g_uv"], data["g_vu"], config, "full")
        op = next(ops)
        path = workdir / "dataset.jsonl"
        cv.datamodel.write_dataset(state["result"].instances, data["schema"], path)
        cv.pipeline.save_report(state["result"].report, workdir / "report.json")
        state["path"] = path
        op = next(ops)
        state["read"] = cv.datamodel.read_dataset(path)
        op = next(ops)  # round_trip is checked after the timed body
        op = next(ops)
        state["stages"] = cv.pipeline.extract_stages(*state["read"])
        state["grid"] = {}
        for pca_dim, components in DIVERSITY_GRID:
            op = next(ops)
            state["grid"][(pca_dim, components)] = cv.diversity.diversity_report(
                state["stages"], pca_dim, components, seed=seed)
    except Exception:
        failures[op] = traceback.format_exc(limit=3)
        for rest in ops:
            failures[rest] = f"not run: {op} failed"


def check_ablation(cv, data, state, failures) -> tuple[str, float]:
    texts, reports = [], []
    for condition in ABLATION_CONDITIONS:
        if condition not in state:
            continue
        config, result = state[condition]
        problem = check_run(result, config, len(data["train"]), len(data["test"]), condition)
        if problem:
            failures[f"run:{condition}"] = problem
        texts.append(cv.datamodel.dataset_to_string(result.instances, data["schema"]))
        reports.append(cv.pipeline.report_to_dict(result.report))
    f1 = state["full"][1].report.metrics["f1"] if "full" in state else 0.0
    return output_digest(texts, reports), f1


def check_chain(cv, data, state, failures, workdir: Path) -> tuple[str, float, int]:
    result = state.get("result")
    if result is None:
        return output_digest([], []), 0.0, 0
    problem = check_run(result, state["config"], len(data["train"]), len(data["test"]), "full")
    if problem:
        failures["run_pipeline"] = problem
    path = state.get("path")
    text = path.read_text(encoding="utf-8") if path else ""
    if "read" in state:
        instances, schema = state["read"]
        if len(instances) != len(data["train"]):
            failures["read_dataset"] = f"read {len(instances)} instances"
        again = workdir / "dataset.again.jsonl"
        cv.datamodel.write_dataset(instances, schema, again)
        if again.read_bytes() != path.read_bytes():
            failures["round_trip"] = "write(read(dataset)) differs from the written dataset"
    grid = []
    if "stages" in state:
        stages = state["stages"]
        names = list(stages)
        if not names or any(m.shape[0] < 2 or m.shape[1] != data["schema"].v_spec.size for m in stages.values()):
            failures["extract_stages"] = f"stages malformed: {[(k, m.shape) for k, m in stages.items()]}"
        for (pca_dim, components), records in state.get("grid", {}).items():
            stats = [r.statistic for r in records]
            if [r.stage for r in records] != names or not all(math.isfinite(s) and s > 0 for s in stats):
                failures[f"diversity_report:{pca_dim}x{components}"] = f"bad records {records}"
            grid.append([pca_dim, components, [[r.stage, r.n_views, r.statistic] for r in records]])
    report = cv.pipeline.report_to_dict(result.report)
    return output_digest([text], [report], grid), result.report.metrics["f1"], len(text.encode("utf-8"))


# --- process entry ---------------------------------------------------------------


def set_up(workload: str, seed: int):
    start = time.perf_counter()
    if not (SRC / "chainviews" / "__init__.py").is_file():
        raise SystemExit(f"no chainviews sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainviews as cv
    import chainviews.datamodel
    import chainviews.diversity
    import chainviews.pipeline

    if Path(cv.__file__).resolve().parent != (SRC / "chainviews").resolve():
        raise SystemExit(f"imported chainviews from {cv.__file__}, not from {SRC}")
    sizes = WORKLOADS[workload]
    world, g_uv, g_vu = cv.lossy_world_preset("collapse-heavy", seed=seed)
    v_spec = g_uv.out_port.spec
    train, schema = cv.generate_benchmark(world, sizes["train_per_class"], v_spec, stream="train")
    test, _ = cv.generate_benchmark(world, sizes["test_per_class"], v_spec, stream="test")
    data = {"train": train, "test": test, "schema": schema, "g_uv": g_uv, "g_vu": g_vu}
    return cv, data, time.perf_counter() - start


def main(spec: dict) -> dict:
    workload, seed = spec["workload"], int(spec["seed"])
    workers = int(spec.get("workers", WORKLOADS[workload]["workers"]))
    cv, data, setup_s = set_up(workload, seed)
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.rep = int(spec.get("rep", 0))
        tracing.install(tracer)
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    state, failures = {}, {}
    try:
        if tracer:
            tracer.enabled = True
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if workload == "ablation":
            ablation_body(cv, data, seed, state, failures)
        else:
            chain_body(cv, data, seed, state, failures, workers, workdir)
        wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer:
            tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if workload == "ablation":
            digest, f1 = check_ablation(cv, data, state, failures)
            results = [r for _, r in (state[c] for c in ABLATION_CONDITIONS if c in state)]
            dataset_bytes = 0
        else:
            digest, f1, dataset_bytes = check_chain(cv, data, state, failures, workdir)
            results = [state["result"]] if "result" in state else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timing = {}
    for result in results:
        for phase, seconds in result.report.timing.items():
            timing[phase] = timing.get(phase, 0.0) + seconds
    out = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "f1": f1,
        "digest": digest, "attempted": len(operations(workload)), "failures": failures,
        "workers": workers, "timing": timing, "dataset_bytes": dataset_bytes, "machine": machine_numpy(),
    }
    if tracer:
        layers, layer_self = tracing.layer_metrics(tracer.spans, wall_s, timing, dataset_bytes)
        out["layers"], out["layer_self_s"] = layers, layer_self
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{workload}-seed{seed}-rep{tracer.rep}.jsonl.gz"
        with gzip.open(spans_file, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    return out


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print(json.dumps(main(json.loads(sys.argv[1]))))

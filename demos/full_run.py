"""One complete pipeline run, from raw instances to metrics.

Uses the clean preset so the run is quick and the numbers are easy to
sanity-check: generate an initial view pool, one filter-and-regrow round,
student training, and augmented inference on held-out instances. Prints
the generation schedule, the metric table, the per-stage diversity
readout, and where the wall-clock time went.
"""

import json
import tempfile
from pathlib import Path

from chainviews import (
    PipelineConfig,
    TrainConfig,
    diversity_report,
    extract_stages,
    generate_benchmark,
    lossy_world_preset,
    run_pipeline,
    save_report,
)

world, g_uv, g_vu = lossy_world_preset("clean", seed=1)
v_spec = g_uv.out_port.spec
train, schema = generate_benchmark(world, 10, v_spec)
test, _ = generate_benchmark(world, 15, v_spec, stream="test")
config = PipelineConfig(
    seed=1,
    ccg_rounds=1,
    initial_views=12,
    spawn_per_kept=(2,),
    keep_fraction=0.6,
    train_views=6,
    infer_views=6,
    teacher=TrainConfig(learning_rate=0.02, steps=150, batch_size=48),
    student=TrainConfig(learning_rate=0.01, steps=250, batch_size=32),
)

print(f"training on {len(train)} instances, evaluating on {len(test)}")
result = run_pipeline(train, test, schema, g_uv, g_vu, config, "full")
report = result.report

print()
print("== generation schedule ==")
for r in report.rounds:
    print(f"round {r.selection_index}: pool {r.pool_size} -> kept {r.kept_size}, each spawning {r.spawned}")
print(f"final synthetic pool per instance: {report.final_pool_size}")

print()
print("== held-out metrics ==")
for key in ("accuracy", "precision", "recall", "f1"):
    print(f"{key:10s} {report.metrics[key]:.4f}")

print()
print("== view spread per stage ==")
stages = extract_stages(result.instances, schema)
for row in diversity_report(stages, pca_dim=2, n_components=3, seed=config.seed):
    print(f"{row.stage:4s} n={row.n_views:3d} generalized variance {row.statistic:.4f}")

print()
print("== timing ==")
for key, seconds in report.timing.items():
    print(f"{key:16s} {seconds:.2f}s")

print()
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "report.json"
    save_report(report, path)
    record = json.loads(path.read_text())
    del record["timing"]  # wall-clock seconds; the rest depends only on (config, seed)
    print(f"full report written and read back ({len(json.dumps(record))} bytes of JSON without timing)")

"""A small ablation: what each ingredient of the pipeline buys.

Runs four conditions on the collapse-heavy preset with shared seeds and
shared benchmarks, so rows differ only in the condition:

  full        filter with a trained teacher, one regrow round
  no_ccg      filter once, never regrow (round count 0)
  no_teacher  keep every candidate, no filtering
  unimodal    drop the synthetic branch entirely, real views only

Two seeds keep this demo to a few seconds; the acceptance suite runs
the same study over ten seeds with a paired sign test.
"""

import time

import numpy as np

from chainviews import (
    PipelineConfig,
    TrainConfig,
    ablation_table,
    generate_benchmark,
    lossy_world_preset,
    run_ablation,
)

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
)
conditions = ("full", "no_ccg", "no_teacher", "unimodal")
seeds = (0, 1)


def make_data(seed):
    world, g_uv, g_vu = lossy_world_preset("collapse-heavy", seed=seed)
    train, schema = generate_benchmark(world, 20, g_uv.out_port.spec, stream="train")
    test, _ = generate_benchmark(world, 150, g_uv.out_port.spec, stream="test")
    return train, test, schema, g_uv, g_vu


print(f"running {len(conditions)} conditions x {len(seeds)} seeds (a few seconds)...")
start = time.time()
reports = run_ablation(make_data, base, seeds, conditions)
print(f"done in {time.time() - start:.0f}s")

print()
print(f"{'condition':>12s}  {'seed':>4s}  {'accuracy':>8s}  {'f1':>8s}")
for report in reports:
    m = report.metrics
    print(f"{report.condition:>12s}  {report.seed:4d}  {m['accuracy']:8.4f}  {m['f1']:8.4f}")

print()
print("condition means (the summary rows the ablate command writes):")
for entry in ablation_table(reports):
    if entry["condition"].endswith("_mean"):
        print(f"{entry['condition']:>18s}  f1 {entry['f1']:.4f}")

by_condition = {c: [r.metrics["f1"] for r in reports if r.condition == c] for c in conditions}
gap_teacher = np.mean(by_condition["full"]) - np.mean(by_condition["no_teacher"])
gap_real = np.mean(by_condition["full"]) - np.mean(by_condition["unimodal"])
print()
print(f"teacher filtering is worth {gap_teacher:+.4f} F1 over keeping every view here,")
print(f"and the synthetic branch {gap_real:+.4f} F1 over using real views alone")

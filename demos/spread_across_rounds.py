"""Measuring how chained generation spreads the view distribution.

Selection narrows a pool to its low-loss core; regrowing from the kept
views through two more channel hops widens it again. This script runs the
generation stages on the noisy preset, extracts the per-stage view
matrices, and reports the generalized variance (determinant of the total
covariance in a shared PCA basis, via a mixture decomposition) at two
projection dimensions. The regrown stage is consistently wider than the
filtered stage it came from.
"""

from chainviews import (
    PipelineConfig,
    Scorer,
    TrainConfig,
    curate,
    diversity_report,
    extract_stages,
    generate_benchmark,
    lossy_world_preset,
)

print("stage key: V0 = kept initial views, V1' = raw regrown views")
print()
header = f"{'seed':>4s}  {'D':>2s}  " + "  ".join(f"{s:>10s}" for s in ("V0", "V1'")) + "  wider?"
print(header)
for seed in range(5):
    world, g_uv, g_vu = lossy_world_preset("noisy", seed=seed)
    instances, schema = generate_benchmark(world, 3, g_uv.out_port.spec)
    config = PipelineConfig(
        seed=seed,
        ccg_rounds=1,
        initial_views=12,
        spawn_per_kept=(2,),
        keep_fraction=0.6,
        train_views=2,
        infer_views=2,
        teacher=TrainConfig(learning_rate=0.02, steps=60, batch_size=24),
    )
    stages = extract_stages(curate(instances, g_uv, g_vu, Scorer(config, schema)), schema)
    for d in (2, 4):
        rows = {r.stage: r.statistic for r in diversity_report(stages, pca_dim=d, n_components=3, seed=seed)}
        wide = rows["V1'"]
        mark = "yes" if wide > rows["V0"] else "NO"
        print(f"{seed:4d}  {d:2d}  {rows['V0']:10.4f}  {wide:10.4f}  {mark}")

print()
print("the raw regrown stage picks up fresh channel noise on every hop,")
print("so its spread exceeds the filtered stage it grew from")

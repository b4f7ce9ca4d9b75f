"""Low-loss filtering: how the teacher tells good views from collapsed ones.

Generates a synthetic-view pool on the collapse-heavy preset, trains a
throwaway teacher on it, and splits the pool by teacher loss. Collapsed
views cluster at the high-loss end, so the split recovers mostly-faithful
views without ever seeing which branch of the generator produced them.
Also contrasts the alternative selection policies the ablations use.
"""

import numpy as np

from chainviews import (
    PipelineConfig,
    Scorer,
    TrainConfig,
    curate,
    generate_benchmark,
    keep_count,
    lossy_world_preset,
)
from chainviews.selection import random_scores, rank_rows

world, g_uv, g_vu = lossy_world_preset("collapse-heavy", seed=3)
train, schema = generate_benchmark(world, 10, g_uv.out_port.spec)
config = PipelineConfig(
    seed=3,
    ccg_rounds=1,
    initial_views=24,
    spawn_per_kept=(1,),
    keep_fraction=0.5,
    train_views=4,
    infer_views=4,
    teacher=TrainConfig(learning_rate=0.02, steps=200, batch_size=48),
)

print("generating 24 views for each of 40 instances, then teacher-scoring them...")
pooled = curate(train, g_uv, g_vu, Scorer(config, schema))

# round 1 scored every round-0 view; its survival count records the split
kept_losses, dropped_losses, collapsed_kept, collapsed_total = [], [], 0, 0
proto = 2.2 * np.ones(4)
for inst in pooled:
    pool = inst.synthetic_pool
    judged = np.flatnonzero((pool.round == 0) & ~np.isnan(pool.teacher_loss))
    data = pool.v_rows(judged).data
    collapsed = np.minimum(np.abs(data - proto).max(axis=1), np.abs(data + proto).max(axis=1)) < 1.5
    kept = pool.survived[judged] > 0
    collapsed_total += int(collapsed.sum())
    collapsed_kept += int((collapsed & kept).sum())
    kept_losses.extend(pool.teacher_loss[judged[kept]].tolist())
    dropped_losses.extend(pool.teacher_loss[judged[~kept]].tolist())

print(f"kept views    n={len(kept_losses):4d}  mean loss {np.mean(kept_losses):.3f}")
print(f"dropped views n={len(dropped_losses):4d}  mean loss {np.mean(dropped_losses):.3f}")
print(
    f"collapsed views: {collapsed_total} generated, {collapsed_kept} survived the filter "
    f"({collapsed_kept / max(collapsed_total, 1):.0%})"
)

print()
print("== selection policies on one scored pool ==")
# every policy is a lower-is-better score per candidate, ranked by rank_rows
# (one row per instance; one row here: one instance's candidates)
losses = pooled[0].synthetic_pool.teacher_loss[:24]
k = keep_count(0.5, len(losses))
kept = set(rank_rows(losses[None, :])[0, :k].tolist())
print(f"loss policy:   keep {len(kept)}, worst kept loss {max(losses[i] for i in kept):.3f}, "
      f"best dropped loss {min(losses[i] for i in range(len(losses)) if i not in kept):.3f}")
kept_r = rank_rows(random_scores(len(losses), 3, [("demo-random",)]))[0, :k]
print(f"random policy: keep {len(kept_r)}, mean kept loss {np.mean([losses[i] for i in kept_r]):.3f}")
print(f"keep_count(0.6, 30) = {keep_count(0.6, 30)} (ceiling arithmetic, exact)")

"""Tour of the stochastic channels and benchmark worlds.

Walks through every channel kind the library ships: exact discrete tables,
linear-Gaussian corruption, prototype collapse (the mode-collapse model),
mixtures of the two, and composition. Ends with the three named world
presets and a measurement of how often the collapse-heavy generator
actually collapses.
"""

import numpy as np

from chainviews import (
    ComposedChannel,
    DiscreteChannel,
    LinearGaussianChannel,
    MixtureChannel,
    PrototypeCollapseChannel,
    PRESET_NAMES,
    ViewBatch,
    derive_rng,
    discrete_view,
    generate_benchmark,
    lossy_world_preset,
    sample_channel,
    stack_views,
    vector_view,
)

rng = derive_rng(0, "channel-tour")

print("== discrete channels ==")
flip = DiscreteChannel(np.array([[0.9, 0.1], [0.1, 0.9]]), "u", "v")
msg = discrete_view([0, 0, 1, 1, 0], "u")
out = sample_channel(flip, stack_views([msg]), rng)
print(f"input symbols  {msg.data.tolist()}")
print(f"after 10% flip {out.data[0].tolist()}")

twice = ComposedChannel([flip, DiscreteChannel(np.array([[0.9, 0.1], [0.1, 0.9]]), "v", "v")])
print(f"two flips composed: effective matrix row 0 = {twice.stages[0].matrix[0] @ twice.stages[1].matrix}")

print()
print("== vector channels ==")
blur = LinearGaussianChannel(np.eye(2), np.zeros(2), 0.3, "u", "v")
point = vector_view([1.0, -1.0], "u")
samples = sample_channel(blur, stack_views([point] * 500), rng).data
print(f"identity + noise 0.3: sample mean {samples.mean(axis=0).round(3)}, std {samples.std(axis=0).round(3)}")

protos = np.array([[2.0, 2.0], [-2.0, -2.0]])
snap = PrototypeCollapseChannel(protos, temperature=1.0, jitter_sigma=0.05, in_modality="u", out_modality="v")
near_point = vector_view([1.0, 0.5], "u")
snapped = sample_channel(snap, stack_views([near_point] * 500), rng).data
near_first = np.abs(snapped - protos[0]).max(axis=1) < 0.5
print(f"prototype collapse: {near_first.mean():.0%} of samples snap to the nearer prototype")

mixed = MixtureChannel(0.5, snap, blur)
print(f"mixture channel: 50% collapse branch, 50% faithful branch ({type(mixed).__name__})")

print()
print("== world presets ==")
for name in PRESET_NAMES:
    world, g_uv, g_vu = lossy_world_preset(name, seed=0)
    instances, schema = generate_benchmark(world, 2, g_uv.out_port.spec)
    print(
        f"{name:15s} classes={world.class_count} u_dim={world.u_dim} "
        f"v_dim={g_uv.out_port.spec.size} instances={len(instances)}"
    )

world, g_uv, _ = lossy_world_preset("collapse-heavy", seed=0)
collapse = g_uv.a if isinstance(g_uv.a, PrototypeCollapseChannel) else g_uv.b
n = 2000
labels = rng.integers(world.class_count, size=n)
us = world.class_means[labels] + world.within_class_sigma * rng.standard_normal((n, world.u_dim))
vs = sample_channel(g_uv, ViewBatch("vector", "u", us), rng).data
dist = np.sqrt(((vs[:, None, :] - collapse.prototypes[None]) ** 2).sum(axis=2)).min(axis=1)
hits = dist <= 2.0 * collapse.jitter_sigma * np.sqrt(collapse.prototypes.shape[1])
print(f"collapse-heavy: {hits.mean():.0%} of generated views land on a shared prototype")
print("those views carry no label signal; filtering them out is the whole game")

"""Stochastic channels, composition, benchmark worlds, and the presets."""

import numpy as np
import pytest
from scipy import stats

from chainviews.channels import (
    BenchmarkWorld,
    ChannelError,
    ComposedChannel,
    DiscreteChannel,
    LinearGaussianChannel,
    MixtureChannel,
    Port,
    PrototypeCollapseChannel,
    PRESET_NAMES,
    compose,
    generate_benchmark,
    lossy_world_preset,
    sample_channel,
)
from chainviews.datamodel import MODALITY_U, MODALITY_V, ViewSpec, discrete_view, vector_view
from chainviews.info import DiscreteJoint, exact_mi
from chainviews.rng import derive_rng
from conftest import tiny_world


def disc_port(alphabet, modality):
    return Port(ViewSpec("discrete", alphabet), modality)


def vec_port(size, modality):
    return Port(ViewSpec("vector", size), modality)


# --- sampling ------------------------------------------------------------------


def test_identity_discrete_channel_copies_symbols():
    chan = DiscreteChannel(np.eye(4), disc_port(4, MODALITY_U), disc_port(4, MODALITY_V))
    out = sample_channel(chan, discrete_view([3, 1], MODALITY_U), derive_rng(0, "t"))
    assert out.modality == MODALITY_V
    assert out.data.tolist() == [3, 1]


def test_uniform_rows_pass_chi_square():
    # A=4, uniform rows: 10,000 draws per symbol position vs the uniform law
    chan = DiscreteChannel(
        np.full((4, 4), 0.25), disc_port(4, MODALITY_U), disc_port(4, MODALITY_V)
    )
    rng = derive_rng(0, "chi")
    counts = np.zeros((2, 4))
    for _ in range(10_000):
        out = sample_channel(chan, discrete_view([0, 2], MODALITY_U), rng)
        counts[0, out.data[0]] += 1
        counts[1, out.data[1]] += 1
    for position in range(2):
        _, p = stats.chisquare(counts[position])
        assert p > 0.01


def test_discrete_sampling_matches_searchsorted_reference():
    # the inverse CDF per position, as a per-position searchsorted loop
    for trial in range(20):
        rng = derive_rng(trial, "table")
        a_in, a_out = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        table = rng.dirichlet(np.full(a_out, 0.5), size=a_in)
        table[0] = np.eye(a_out)[a_out - 1]  # a row whose mass sits on the last symbol
        chan = DiscreteChannel(table, disc_port(a_in, MODALITY_U), disc_port(a_out, MODALITY_V))
        view = discrete_view(rng.integers(a_in, size=12), MODALITY_U)
        out = sample_channel(chan, view, derive_rng(trial, "draws"))
        draws = derive_rng(trial, "draws").random(12)
        cumulative = np.cumsum(table, axis=1)
        expected = [min(np.searchsorted(cumulative[s], d, side="right"), a_out - 1) for s, d in zip(view.data, draws)]
        assert out.data.tolist() == expected


def test_discrete_rows_must_be_stochastic():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ChannelError):
        DiscreteChannel(bad, disc_port(2, MODALITY_U), disc_port(2, MODALITY_V))


def test_spec_mismatch_raises():
    chan = DiscreteChannel(np.eye(3), disc_port(3, MODALITY_U), disc_port(3, MODALITY_V))
    with pytest.raises(ChannelError):
        sample_channel(chan, discrete_view([0, 4], MODALITY_U), derive_rng(0, "t"))
    with pytest.raises(ChannelError):
        sample_channel(chan, vector_view([0.0], MODALITY_U), derive_rng(0, "t"))


def test_linear_gaussian_mean_and_shape():
    weight = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    bias = np.array([0.5, 0.0, 0.0])
    chan = LinearGaussianChannel(weight, bias, 0.1, vec_port(2, MODALITY_U), vec_port(3, MODALITY_V))
    rng = derive_rng(0, "lg")
    x = np.array([1.0, 2.0])
    outs = np.stack(
        [sample_channel(chan, vector_view(x, MODALITY_U), rng).data for _ in range(4000)]
    )
    assert outs.shape == (4000, 3)
    np.testing.assert_allclose(outs.mean(axis=0), weight @ x + bias, atol=0.02)


def test_linear_gaussian_requires_positive_noise():
    with pytest.raises(ChannelError):
        LinearGaussianChannel(np.eye(2), np.zeros(2), 0.0, vec_port(2, MODALITY_U), vec_port(2, MODALITY_V))


def test_prototype_collapse_degenerate_case():
    # k=1, no jitter: every output is the single prototype
    proto = np.array([[1.0, -2.0]])
    chan = PrototypeCollapseChannel(
        proto, temperature=1.0, jitter_sigma=0.0,
        in_port=vec_port(2, MODALITY_U), out_port=vec_port(2, MODALITY_V),
    )
    rng = derive_rng(0, "pc")
    for _ in range(5):
        out = sample_channel(chan, vector_view([0.3, 0.7], MODALITY_U), rng)
        assert np.array_equal(out.data, proto[0])


def test_prototype_snap_probabilities_form_a_distribution():
    protos = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    chan = PrototypeCollapseChannel(
        protos, temperature=2.0, jitter_sigma=0.1,
        in_port=vec_port(2, MODALITY_U), out_port=vec_port(2, MODALITY_V),
    )
    probs = chan.snap_probabilities(vector_view([0.9, 0.1], MODALITY_U))
    assert probs.shape == (3,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs[0] == probs.max()  # nearest prototype dominates


def test_mixture_routes_between_branches():
    a = PrototypeCollapseChannel(
        np.array([[5.0, 5.0]]), temperature=1.0, jitter_sigma=0.0,
        in_port=vec_port(2, MODALITY_U), out_port=vec_port(2, MODALITY_V),
    )
    b = LinearGaussianChannel(np.eye(2), np.zeros(2), 0.01, vec_port(2, MODALITY_U), vec_port(2, MODALITY_V))
    mix = MixtureChannel(0.3, a, b)
    rng = derive_rng(0, "mix")
    hits = 0
    n = 5000
    for _ in range(n):
        out = sample_channel(mix, vector_view([0.0, 0.0], MODALITY_U), rng)
        if np.array_equal(out.data, [5.0, 5.0]):
            hits += 1
    # binomial 3 sigma around p=0.3
    assert abs(hits / n - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n)


def test_mixture_branches_must_share_ports():
    a = LinearGaussianChannel(np.eye(2), np.zeros(2), 0.1, vec_port(2, MODALITY_U), vec_port(2, MODALITY_V))
    b = LinearGaussianChannel(np.eye(3), np.zeros(3), 0.1, vec_port(3, MODALITY_U), vec_port(3, MODALITY_V))
    with pytest.raises(ChannelError):
        MixtureChannel(0.5, a, b)


# --- composition -----------------------------------------------------------------


def test_compose_empty_is_an_error():
    with pytest.raises(ChannelError, match="empty"):
        compose([])


def test_compose_requires_matching_ports():
    a = DiscreteChannel(np.eye(2), disc_port(2, MODALITY_U), disc_port(2, MODALITY_V))
    b = DiscreteChannel(np.eye(3), disc_port(3, MODALITY_V), disc_port(3, MODALITY_U))
    with pytest.raises(ChannelError):
        compose([a, b])


def test_composed_sampling_equals_staged_sampling():
    rng_matrix = derive_rng(0, "mat")
    rows = rng_matrix.random((3, 3)) + 0.1
    m1 = rows / rows.sum(axis=1, keepdims=True)
    rows2 = rng_matrix.random((3, 3)) + 0.1
    m2 = rows2 / rows2.sum(axis=1, keepdims=True)
    a = DiscreteChannel(m1, disc_port(3, MODALITY_U), disc_port(3, MODALITY_V))
    b = DiscreteChannel(m2, disc_port(3, MODALITY_V), disc_port(3, MODALITY_U))
    chain = compose([a, b])
    view = discrete_view([0, 1, 2], MODALITY_U)
    got = sample_channel(chain, view, derive_rng(7, "cmp"))
    # identical stream, stages applied by hand
    rng = derive_rng(7, "cmp")
    want = sample_channel(b, sample_channel(a, view, rng), rng)
    assert got.equals(want)


def test_identity_composition_preserves_entropy():
    # two identity channels on a uniform alphabet-4 input: I(in, out) = ln 4
    eye = np.eye(4)
    end_to_end = eye @ eye
    joint = DiscreteJoint(sizes=(4, 4), table=0.25 * end_to_end)
    assert abs(exact_mi(joint) - np.log(4)) < 1e-12


def test_two_bsc_01_compose_to_bsc_018():
    flip = 0.1
    bsc = np.array([[1 - flip, flip], [flip, 1 - flip]])
    end_to_end = bsc @ bsc
    np.testing.assert_allclose(end_to_end, [[0.82, 0.18], [0.18, 0.82]], atol=1e-12)
    joint = DiscreteJoint(sizes=(2, 2), table=0.5 * end_to_end)
    # frozen expected value: exact MI of the composed pair
    assert abs(exact_mi(joint) - 0.221753) < 1e-6


def test_composition_of_row_stochastic_matrices_is_row_stochastic():
    rng = derive_rng(0, "stoch")
    for _ in range(20):
        a = rng.random((5, 4)) + 1e-3
        a /= a.sum(axis=1, keepdims=True)
        b = rng.random((4, 6)) + 1e-3
        b /= b.sum(axis=1, keepdims=True)
        np.testing.assert_allclose((a @ b).sum(axis=1), np.ones(5), atol=1e-10)


# --- benchmark worlds ---------------------------------------------------------------


def test_benchmark_counts_and_balance():
    world, _, _, v_spec = tiny_world()
    instances, schema = generate_benchmark(world, 1, v_spec)
    assert len(instances) == world.class_count
    labels = sorted(inst.label.value for inst in instances)
    assert labels == list(range(world.class_count))
    assert [inst.id for inst in instances] == list(range(len(instances)))


def test_benchmark_is_deterministic_and_stream_split():
    world, _, _, v_spec = tiny_world()
    a, _ = generate_benchmark(world, 3, v_spec, stream="train")
    b, _ = generate_benchmark(world, 3, v_spec, stream="train")
    c, _ = generate_benchmark(world, 3, v_spec, stream="test")
    for x, y in zip(a, b):
        assert x.real_view.equals(y.real_view)
    assert not all(x.real_view.equals(y.real_view) for x, y in zip(a, c))


def test_benchmark_entities_come_from_the_class_map():
    world, _, _, v_spec = tiny_world()
    instances, _ = generate_benchmark(world, 5, v_spec)
    for inst in instances:
        pair = (inst.entities.subject, inst.entities.object)
        assert pair in world.entity_pairs_by_class[inst.label.value]


def test_separated_world_is_linearly_separable():
    # C=4 means at 4x the within-class sigma: held-out accuracy of a
    # least-squares linear classifier exceeds 0.95
    world, _, _ = lossy_world_preset("clean", seed=3)
    v_spec = ViewSpec("vector", 2)
    train, _ = generate_benchmark(world, 250, v_spec, stream="train")
    test, _ = generate_benchmark(world, 100, v_spec, stream="test")
    xtr = np.stack([inst.real_view.data for inst in train])
    ytr = np.array([inst.label.value for inst in train])
    xte = np.stack([inst.real_view.data for inst in test])
    yte = np.array([inst.label.value for inst in test])
    design = np.hstack([xtr, np.ones((len(xtr), 1))])
    weights, *_ = np.linalg.lstsq(design, np.eye(4)[ytr], rcond=None)
    pred = (np.hstack([xte, np.ones((len(xte), 1))]) @ weights).argmax(axis=1)
    assert float(np.mean(pred == yte)) > 0.95


def test_world_requires_distinct_means():
    with pytest.raises(ValueError, match="distinct"):
        BenchmarkWorld(
            name="bad",
            class_count=2,
            class_means=np.zeros((2, 3)),
            within_class_sigma=1.0,
            entity_vocab=2,
            entity_pairs_by_class=(((0, 1),), ((0, 1),)),
            seed=0,
        )


# --- presets ------------------------------------------------------------------------


def test_unknown_preset_errors():
    with pytest.raises(ChannelError, match="unknown preset"):
        lossy_world_preset("does-not-exist")


def test_preset_surface():
    for name in PRESET_NAMES:
        world, g_uv, g_vu = lossy_world_preset(name, seed=0)
        assert world.name == name
        assert g_uv.in_port.modality == MODALITY_U
        assert g_uv.out_port.modality == MODALITY_V
        assert g_vu.in_port.modality == MODALITY_V
        assert g_vu.out_port.modality == MODALITY_U
        # the u->v channel must accept a real view drawn from the world
        instances, schema = generate_benchmark(world, 1, ViewSpec("vector", g_uv.out_port.spec.size))
        out = sample_channel(g_uv, instances[0].real_view, derive_rng(0, "probe"))
        assert out.matches(schema.v_spec)


def test_collapse_heavy_shares_prototypes_across_classes():
    # at least 30% of sampled v-views land within jitter reach of a prototype
    # that also captures samples from another class
    world, g_uv, _ = lossy_world_preset("collapse-heavy", seed=0)
    collapse = g_uv.a if isinstance(g_uv.a, PrototypeCollapseChannel) else g_uv.b
    protos = collapse.prototypes
    jitter = collapse.jitter_sigma
    rng = derive_rng(0, "collapse-stats")
    n = 10_000
    labels = rng.integers(world.class_count, size=n)
    samples = np.empty((n, protos.shape[1]))
    for i in range(n):
        u = world.class_means[labels[i]] + world.within_class_sigma * rng.standard_normal(world.u_dim)
        samples[i] = sample_channel(g_uv, vector_view(u, MODALITY_U), rng).data
    sq_dist = ((samples[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    nearest = sq_dist.argmin(axis=1)
    within = np.sqrt(sq_dist.min(axis=1)) <= 2.0 * jitter * np.sqrt(protos.shape[1])
    shared = np.zeros(protos.shape[0], dtype=bool)
    for p in range(protos.shape[0]):
        captured = set(labels[within & (nearest == p)].tolist())
        shared[p] = len(captured) >= 2
    fraction = float(np.mean(within & shared[nearest]))
    assert fraction >= 0.30


def test_clean_preset_preserves_label_information():
    # discretize u and v by nearest class mean; the plug-in MI about the label
    # must survive the channel to within 5%
    world, g_uv, _ = lossy_world_preset("clean", seed=0)
    rng = derive_rng(0, "clean-mi")
    n = 40_000
    labels = rng.integers(world.class_count, size=n)
    us = world.class_means[labels] + world.within_class_sigma * rng.standard_normal((n, world.u_dim))
    vs = np.empty_like(us)
    for i in range(n):
        vs[i] = sample_channel(g_uv, vector_view(us[i], MODALITY_U), rng).data

    def plug_in_mi(points):
        cells = ((points[:, None, :] - world.class_means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        joint = np.zeros((world.class_count, world.class_count))
        np.add.at(joint, (labels, cells), 1.0)
        joint /= joint.sum()
        pi = joint.sum(axis=1, keepdims=True)
        pj = joint.sum(axis=0, keepdims=True)
        mask = joint > 0
        return float((joint[mask] * np.log(joint[mask] / (pi @ pj)[mask])).sum())

    mi_u = plug_in_mi(us)
    mi_v = plug_in_mi(vs)
    assert mi_v >= 0.95 * mi_u


def test_per_view_streams_make_generation_order_irrelevant():
    # regenerating one view in isolation reproduces the batch result
    world, g_uv, _, v_spec = tiny_world()
    instances, _ = generate_benchmark(world, 2, v_spec)
    seed = 11
    batch = []
    for inst in instances:
        for j in range(3):
            rng = derive_rng(seed, "gen", inst.id, 0, j)
            batch.append(sample_channel(g_uv, inst.real_view, rng))
    # view (instance 3, j=2) alone, no other draws first
    target = instances[3]
    rng = derive_rng(seed, "gen", target.id, 0, 2)
    alone = sample_channel(g_uv, target.real_view, rng)
    assert alone.equals(batch[3 * 3 + 2])

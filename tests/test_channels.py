"""Stochastic channels, composition, benchmark worlds, and the presets."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    Streams,
    generate_benchmark,
    inverse_cdf,
    lossy_world_preset,
    sample_channel,
    stack_views,
)
from chainviews.datamodel import MODALITY_U, MODALITY_V, ViewBatch, ViewSpec, discrete_view, vector_view
from chainviews.info import DiscreteJoint, exact_mi
from chainviews.rng import derive_rng
from chainviews.pipeline import Scorer, curate
from conftest import tiny_config, tiny_world


def vec_port(size, modality):
    return Port(ViewSpec("vector", size), modality)


# --- sampling ------------------------------------------------------------------


def test_identity_discrete_channel_copies_symbols():
    chan = DiscreteChannel(np.eye(4), MODALITY_U, MODALITY_V)
    out = sample_channel(chan, stack_views([discrete_view([3, 1], MODALITY_U)]), derive_rng(0, "t"))
    assert out.modality == MODALITY_V
    assert out.data.tolist() == [[3, 1]]


def test_uniform_rows_pass_chi_square():
    # A=4, uniform rows: 10,000 draws per symbol position vs the uniform law
    chan = DiscreteChannel(
        np.full((4, 4), 0.25), MODALITY_U, MODALITY_V
    )
    symbols = sample_channel(chan, stack_views([discrete_view([0, 2], MODALITY_U)] * 10_000), derive_rng(0, "chi")).data
    counts = np.stack([np.bincount(symbols[:, position], minlength=4) for position in range(2)])
    for position in range(2):
        _, p = stats.chisquare(counts[position])
        assert p > 0.01


def test_discrete_sampling_matches_searchsorted_reference():
    # the inverse CDF per position, as a per-position searchsorted loop over
    # a batch of three sequences that draws one (3, 12) block of uniforms
    for trial in range(20):
        rng = derive_rng(trial, "table")
        a_in, a_out = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        table = rng.dirichlet(np.full(a_out, 0.5), size=a_in)
        table[0] = np.eye(a_out)[a_out - 1]  # a row whose mass sits on the last symbol
        chan = DiscreteChannel(table, MODALITY_U, MODALITY_V)
        views = [discrete_view(rng.integers(a_in, size=12), MODALITY_U) for _ in range(3)]
        outs = sample_channel(chan, stack_views(views), derive_rng(trial, "draws"))
        draws = derive_rng(trial, "draws").random((3, 12))
        cumulative = np.cumsum(table, axis=1)
        for view, out, row in zip(views, outs.data, draws):
            expected = [min(np.searchsorted(cumulative[s], d, side="right"), a_out - 1) for s, d in zip(view.data[0], row)]
            assert out.tolist() == expected


def test_discrete_rows_must_be_stochastic():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ChannelError):
        DiscreteChannel(bad, MODALITY_U, MODALITY_V)
    # the tolerance is an absolute 1e-12: numpy's default relative 1e-5
    # would let a row 1e-6 short through
    with pytest.raises(ChannelError, match="sum to 1"):
        DiscreteChannel(np.array([[0.5, 0.5 - 1e-6], [0.5, 0.5]]), MODALITY_U, MODALITY_V)
    DiscreteChannel(np.array([[0.5, 0.5 - 1e-13], [0.5, 0.5]]), MODALITY_U, MODALITY_V)


def test_inverse_cdf_is_clipped_searchsorted():
    rng = derive_rng(0, "inverse-cdf")
    cdf = np.cumsum(rng.dirichlet(np.ones(5), size=40), axis=1)
    cdf[:20] *= 1 - 1e-3  # rows whose last entry falls short of 1
    draws = rng.random(40)
    draws[::4] = cdf[::4, 2]  # draws equal to a cdf entry count it
    draws[1::4] = cdf[1::4, -1] + 1e-4  # draws past the last entry take the last category
    expected = [min(np.searchsorted(row, u, side="right"), 4) for row, u in zip(cdf, draws)]
    assert inverse_cdf(cdf, draws).tolist() == expected
    assert inverse_cdf(cdf, draws)[::4].tolist() == [3] * 10
    # one more axis on each side: a (2, 20) block of draws over (2, 20, 5) cdfs
    assert inverse_cdf(cdf.reshape(2, 20, 5), draws.reshape(2, 20)).tolist() == np.reshape(expected, (2, 20)).tolist()


def test_spec_mismatch_raises():
    chan = DiscreteChannel(np.eye(3), MODALITY_U, MODALITY_V)
    with pytest.raises(ChannelError):
        sample_channel(chan, stack_views([discrete_view([0, 4], MODALITY_U)]), derive_rng(0, "t"))
    with pytest.raises(ChannelError):
        sample_channel(chan, stack_views([vector_view([0.0], MODALITY_U)]), derive_rng(0, "t"))
    with pytest.raises(ChannelError):  # one bad view fails the whole batch
        batch = stack_views([discrete_view([0, 1], MODALITY_U), discrete_view([0, 1], MODALITY_V)])
        sample_channel(chan, batch, derive_rng(0, "t"))
    with pytest.raises(ChannelError, match="'v'-side"):  # the right symbols on the wrong side
        sample_channel(chan, ViewBatch("discrete", MODALITY_V, [[0, 1]]), derive_rng(0, "t"))


def test_linear_gaussian_mean_and_shape():
    weight = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    bias = np.array([0.5, 0.0, 0.0])
    chan = LinearGaussianChannel(weight, bias, 0.1, MODALITY_U, MODALITY_V)
    rng = derive_rng(0, "lg")
    x = np.array([1.0, 2.0])
    outs = sample_channel(chan, stack_views([vector_view(x, MODALITY_U)] * 4000), rng).data
    assert outs.shape == (4000, 3)
    np.testing.assert_allclose(outs.mean(axis=0), weight @ x + bias, atol=0.02)


def test_linear_gaussian_requires_positive_noise():
    with pytest.raises(ChannelError):
        LinearGaussianChannel(np.eye(2), np.zeros(2), 0.0, MODALITY_U, MODALITY_V)


def test_prototype_collapse_degenerate_case():
    # k=1, no jitter: every output is the single prototype
    proto = np.array([[1.0, -2.0]])
    chan = PrototypeCollapseChannel(
        proto, temperature=1.0, jitter_sigma=0.0,
        in_modality=MODALITY_U, out_modality=MODALITY_V,
    )
    outs = sample_channel(chan, stack_views([vector_view([0.3, 0.7], MODALITY_U)] * 5), derive_rng(0, "pc"))
    assert len(outs) == 5
    for out in outs.data:
        assert np.array_equal(out, proto[0])


def test_prototype_snap_probabilities_form_a_distribution():
    protos = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    chan = PrototypeCollapseChannel(
        protos, temperature=2.0, jitter_sigma=0.1,
        in_modality=MODALITY_U, out_modality=MODALITY_V,
    )
    probs = chan.snap_probabilities(np.array([[0.9, 0.1], [-0.8, 0.2]]))
    assert probs.shape == (2, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.argmax(axis=1).tolist() == [0, 2]  # nearest prototype dominates


def point_mixture(branch_prob):
    # branch a emits exactly (5, 5); branch b stays near its input
    a = PrototypeCollapseChannel(
        np.array([[5.0, 5.0]]), temperature=1.0, jitter_sigma=0.0,
        in_modality=MODALITY_U, out_modality=MODALITY_V,
    )
    b = LinearGaussianChannel(np.eye(2), np.zeros(2), 0.01, MODALITY_U, MODALITY_V)
    return MixtureChannel(branch_prob, a, b)


def test_mixture_routes_between_branches():
    mix = point_mixture(0.3)
    n = 5000
    outs = sample_channel(mix, stack_views([vector_view([0.0, 0.0], MODALITY_U)] * n), derive_rng(0, "mix"))
    hits = sum(np.array_equal(out, [5.0, 5.0]) for out in outs.data)
    # binomial 3 sigma around p=0.3
    assert abs(hits / n - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n)


def test_mixture_branches_must_share_ports():
    a = LinearGaussianChannel(np.eye(2), np.zeros(2), 0.1, MODALITY_U, MODALITY_V)
    b = LinearGaussianChannel(np.eye(3), np.zeros(3), 0.1, MODALITY_U, MODALITY_V)
    with pytest.raises(ChannelError):
        MixtureChannel(0.5, a, b)


def test_leaf_ports_come_from_their_arrays():
    disc = DiscreteChannel(np.full((3, 5), 0.2), MODALITY_V, MODALITY_U)
    assert (disc.in_port, disc.out_port) == (
        Port(ViewSpec("discrete", 3), MODALITY_V),
        Port(ViewSpec("discrete", 5), MODALITY_U),
    )
    linear = LinearGaussianChannel(np.ones((4, 2)), np.zeros(4), 0.1, MODALITY_U, MODALITY_V)
    assert (linear.in_port, linear.out_port) == (vec_port(2, MODALITY_U), vec_port(4, MODALITY_V))
    protos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    bare = PrototypeCollapseChannel(protos, 1.0, 0.0, MODALITY_U, MODALITY_V)
    assert (bare.in_port, bare.out_port) == (vec_port(3, MODALITY_U), vec_port(3, MODALITY_V))
    projected = PrototypeCollapseChannel(protos, 1.0, 0.0, MODALITY_U, MODALITY_V, projection=np.ones((3, 7)))
    assert (projected.in_port, projected.out_port) == (vec_port(7, MODALITY_U), vec_port(3, MODALITY_V))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteChannel(np.full(3, 1 / 3), MODALITY_U, MODALITY_V), "transition matrix must be 2-d"),
        (lambda: LinearGaussianChannel(np.ones(3), np.zeros(3), 0.1, MODALITY_U, MODALITY_V), "weight must be"),
        (lambda: LinearGaussianChannel(np.eye(2), np.zeros(3), 0.1, MODALITY_U, MODALITY_V), "bias shape"),
        (lambda: PrototypeCollapseChannel(np.ones(3), 1.0, 0.0, MODALITY_U, MODALITY_V), "prototypes must be"),
        (
            lambda: PrototypeCollapseChannel(np.eye(2), 1.0, 0.0, MODALITY_U, MODALITY_V, projection=np.ones((3, 5))),
            "projection must be 2-d with 2 rows",
        ),
        (lambda: DiscreteChannel(np.eye(2), MODALITY_U, "w"), "unknown modality"),
    ],
    ids=["matrix", "weight", "bias", "prototypes", "projection", "modality"],
)
def test_leaf_arrays_and_sides_are_checked(build, message):
    with pytest.raises(ChannelError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LinearGaussianChannel(np.ones((0, 3)), np.zeros(0), 0.1, MODALITY_U, MODALITY_V), r"weight must be 2-d and non-empty, got shape \(0, 3\)"),
        (lambda: LinearGaussianChannel(np.ones((3, 0)), np.zeros(3), 0.1, MODALITY_U, MODALITY_V), r"weight must be 2-d and non-empty, got shape \(3, 0\)"),
        (lambda: DiscreteChannel(np.ones((0, 0)), MODALITY_U, MODALITY_V), r"transition matrix must be 2-d and non-empty, got shape \(0, 0\)"),
        (
            lambda: PrototypeCollapseChannel(np.ones((2, 2)), 1.0, 0.1, MODALITY_U, MODALITY_V, projection=np.ones((2, 0))),
            r"projection must be 2-d with 2 rows and a column, got shape \(2, 0\)",
        ),
    ],
    ids=["weight_no_rows", "weight_no_columns", "matrix", "projection"],
)
def test_an_empty_array_is_a_channel_error_naming_it(build, message):
    # the port sizes come from these arrays: an empty one would make a port of size 0
    with pytest.raises(ChannelError, match=message):
        build()


def build_every_parameter(noise_sigma=0.1, temperature=1.0, jitter_sigma=0.1, branch_prob=0.5):
    linear = LinearGaussianChannel(np.eye(2), np.zeros(2), noise_sigma, MODALITY_U, MODALITY_V)
    snap = PrototypeCollapseChannel(np.eye(2), temperature, jitter_sigma, MODALITY_U, MODALITY_V)
    return MixtureChannel(branch_prob, linear, snap)


NOT_FINITE = [float("nan"), float("inf"), "0.5", None, True, [0.5]]


@pytest.mark.parametrize(
    "name, value, wanted",
    [("noise_sigma", bad, "a finite positive number") for bad in NOT_FINITE + [-0.1]]
    + [("temperature", bad, "a finite positive number") for bad in NOT_FINITE + [0]]
    + [("jitter_sigma", bad, "a finite non-negative number") for bad in NOT_FINITE + [-0.1]]
    + [("branch_prob", bad, "a finite number in [0, 1]") for bad in NOT_FINITE + [1.5, -0.1]],
)
def test_channels_refuse_parameters_that_are_not_finite_numbers_in_range(name, value, wanted):
    build_every_parameter()
    with pytest.raises(ChannelError, match=re.escape(f"{name} must be {wanted}, got {value!r}")):
        build_every_parameter(**{name: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, build",
    [
        ("weight", lambda bad: LinearGaussianChannel([[1.0, bad]], [0.0], 0.1, MODALITY_U, MODALITY_V)),
        ("bias", lambda bad: LinearGaussianChannel(np.eye(2), [0.0, bad], 0.1, MODALITY_U, MODALITY_V)),
        ("prototypes", lambda bad: PrototypeCollapseChannel([[0.0, bad]], 1.0, 0.1, MODALITY_U, MODALITY_V)),
        (
            "projection",
            lambda bad: PrototypeCollapseChannel(np.eye(2), 1.0, 0.1, MODALITY_U, MODALITY_V, projection=[[bad], [1.0]]),
        ),
    ],
)
def test_channels_refuse_arrays_that_hold_a_non_finite_number(name, build, bad):
    with pytest.raises(ChannelError, match=f"^{name} must hold finite numbers only$"):
        build(bad)


# --- composition -----------------------------------------------------------------


def test_compose_empty_is_an_error():
    with pytest.raises(ChannelError, match="empty"):
        ComposedChannel([])


def test_compose_requires_matching_ports():
    a = DiscreteChannel(np.eye(2), MODALITY_U, MODALITY_V)
    b = DiscreteChannel(np.eye(3), MODALITY_V, MODALITY_U)
    with pytest.raises(ChannelError):
        ComposedChannel([a, b])


def test_composed_sampling_equals_staged_sampling():
    rng_matrix = derive_rng(0, "mat")
    rows = rng_matrix.random((3, 3)) + 0.1
    m1 = rows / rows.sum(axis=1, keepdims=True)
    rows2 = rng_matrix.random((3, 3)) + 0.1
    m2 = rows2 / rows2.sum(axis=1, keepdims=True)
    a = DiscreteChannel(m1, MODALITY_U, MODALITY_V)
    b = DiscreteChannel(m2, MODALITY_V, MODALITY_U)
    chain = ComposedChannel([a, b])
    views = stack_views([discrete_view([0, 1, 2], MODALITY_U), discrete_view([2, 2, 0], MODALITY_U)])
    got = sample_channel(chain, views, derive_rng(7, "cmp"))
    # identical stream, stages applied by hand
    rng = derive_rng(7, "cmp")
    want = sample_channel(b, sample_channel(a, views, rng), rng)
    assert got.modality == want.modality == MODALITY_U
    assert np.array_equal(got.data, want.data)


def test_identity_composition_preserves_entropy():
    # two identity channels on a uniform alphabet-4 input: I(in, out) = ln 4
    eye = np.eye(4)
    end_to_end = eye @ eye
    joint = DiscreteJoint(0.25 * end_to_end)
    assert abs(exact_mi(joint) - np.log(4)) < 1e-12


def test_two_bsc_01_compose_to_bsc_018():
    flip = 0.1
    bsc = np.array([[1 - flip, flip], [flip, 1 - flip]])
    end_to_end = bsc @ bsc
    np.testing.assert_allclose(end_to_end, [[0.82, 0.18], [0.18, 0.82]], atol=1e-12)
    joint = DiscreteJoint(0.5 * end_to_end)
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
    labels = sorted(inst.label for inst in instances)
    assert labels == list(range(world.class_count))
    assert [inst.id for inst in instances] == list(range(len(instances)))


@pytest.mark.parametrize("n_per_class", [1.5, True, 0, "2", None])
def test_benchmark_refuses_a_count_that_is_not_a_positive_integer(n_per_class):
    world, _, _, v_spec = tiny_world()
    with pytest.raises(ValueError, match=re.escape(f"n_per_class must be a positive integer, got {n_per_class!r}")):
        generate_benchmark(world, n_per_class, v_spec)
    instances, _ = generate_benchmark(world, np.int64(2), v_spec)
    assert len(instances) == 2 * world.class_count


def test_benchmark_is_deterministic_and_stream_split():
    world, _, _, v_spec = tiny_world()
    a, _ = generate_benchmark(world, 3, v_spec, stream="train")
    b, _ = generate_benchmark(world, 3, v_spec, stream="train")
    c, _ = generate_benchmark(world, 3, v_spec, stream="test")
    for x, y in zip(a, b):
        assert np.array_equal(x.real_view.data, y.real_view.data)
    assert not all(np.array_equal(x.real_view.data, y.real_view.data) for x, y in zip(a, c))


def test_benchmark_entities_come_from_the_class_map():
    world, _, _, v_spec = tiny_world()
    instances, _ = generate_benchmark(world, 5, v_spec)
    for inst in instances:
        assert (inst.subject, inst.object) in world.entity_pairs_by_class[inst.label]


def test_separated_world_is_linearly_separable():
    # C=4 means at 4x the within-class sigma: held-out accuracy of a
    # least-squares linear classifier exceeds 0.95
    world, _, _ = lossy_world_preset("clean", seed=3)
    v_spec = ViewSpec("vector", 2)
    train, _ = generate_benchmark(world, 250, v_spec, stream="train")
    test, _ = generate_benchmark(world, 100, v_spec, stream="test")
    xtr = stack_views([inst.real_view for inst in train]).data
    ytr = np.array([inst.label for inst in train])
    xte = stack_views([inst.real_view for inst in test]).data
    yte = np.array([inst.label for inst in test])
    design = np.hstack([xtr, np.ones((len(xtr), 1))])
    weights, *_ = np.linalg.lstsq(design, np.eye(4)[ytr], rcond=None)
    pred = (np.hstack([xte, np.ones((len(xte), 1))]) @ weights).argmax(axis=1)
    assert float(np.mean(pred == yte)) > 0.95


def test_world_requires_distinct_means():
    with pytest.raises(ValueError, match="distinct"):
        BenchmarkWorld(
            class_means=np.zeros((2, 3)),
            within_class_sigma=1.0,
            entity_vocab=2,
            entity_pairs_by_class=(((0, 1),), ((0, 1),)),
            seed=0,
        )


WORLD_FIELDS = dict(
    class_means=np.eye(2),
    within_class_sigma=1.0,
    entity_vocab=2,
    entity_pairs_by_class=(((0, 1),), ((1, 0),)),
    seed=0,
)


@pytest.mark.parametrize(
    "field, value, wanted",
    [("within_class_sigma", bad, "a finite positive number") for bad in NOT_FINITE + [0.0, -1.0]]
    + [("entity_vocab", bad, "a positive integer") for bad in [float("nan"), float("inf"), "2", None, True, 2.0, 0]],
)
def test_world_refuses_a_sigma_or_vocabulary_out_of_its_domain(field, value, wanted):
    BenchmarkWorld(**WORLD_FIELDS)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {wanted}, got {value!r}")):
        BenchmarkWorld(**{**WORLD_FIELDS, field: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_world_refuses_class_means_that_hold_a_non_finite_number(bad):
    with pytest.raises(ValueError, match="^class_means must hold finite numbers only$"):
        BenchmarkWorld(**{**WORLD_FIELDS, "class_means": [[1.0, 0.0], [0.0, bad]]})


def test_world_class_count_is_the_number_of_means():
    world, _, _, _ = tiny_world()
    assert world.class_count == len(world.class_means) == 3
    for name in PRESET_NAMES:
        preset, _, _ = lossy_world_preset(name)
        assert preset.class_count == len(preset.class_means) == 4


def test_worlds_compare_and_hash_by_identity():
    # a world holds an array, so field-wise equality would be ambiguous
    world, other = lossy_world_preset("clean", 1)[0], lossy_world_preset("clean", 1)[0]
    assert world == world and world != other
    assert len({world, world, other}) == 2


@pytest.mark.parametrize("seed", [1.5, 1.9, True, -1])
def test_world_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        lossy_world_preset("clean", seed=seed)


def test_numpy_integer_seed_gives_that_seeds_benchmark():
    v_spec = ViewSpec("vector", 2)
    want, _ = generate_benchmark(lossy_world_preset("clean", seed=1)[0], 2, v_spec)
    got, _ = generate_benchmark(lossy_world_preset("clean", seed=np.int64(1))[0], 2, v_spec)
    assert [inst.real_view.data.tobytes() for inst in got] == [inst.real_view.data.tobytes() for inst in want]
    assert [(inst.subject, inst.object) for inst in got] == [(inst.subject, inst.object) for inst in want]


# --- presets ------------------------------------------------------------------------


def test_unknown_preset_errors():
    with pytest.raises(ChannelError, match="unknown preset"):
        lossy_world_preset("does-not-exist")


def test_preset_surface():
    for name in PRESET_NAMES:
        world, g_uv, g_vu = lossy_world_preset(name, seed=0)
        assert g_uv.in_port.modality == MODALITY_U
        assert g_uv.out_port.modality == MODALITY_V
        assert g_vu.in_port.modality == MODALITY_V
        assert g_vu.out_port.modality == MODALITY_U
        # the u->v channel must accept a real view drawn from the world
        instances, schema = generate_benchmark(world, 1, ViewSpec("vector", g_uv.out_port.spec.size))
        out = sample_channel(g_uv, stack_views([instances[0].real_view]), derive_rng(0, "probe"))
        assert g_uv.out_port.accepts(out) and out.data.shape[1] == schema.v_spec.size


PRESET_PAIRS = (((0, 1), (6, 7)), ((0, 1), (2, 3)), ((2, 3), (4, 5)), ((4, 5), (6, 7)))


def assert_bits(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_linear(channel, weight, bias, noise_sigma):
    assert type(channel) is LinearGaussianChannel
    assert_bits(channel.weight, weight)
    assert_bits(channel.bias, bias)
    assert channel.noise_sigma == noise_sigma


@pytest.mark.parametrize(
    "name, means, noise_sigma",
    [
        ("clean", [[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0]], 0.4),
        ("noisy", [[3.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 3.0]], 0.8),
    ],
)
def test_identity_presets_keep_their_numbers(name, means, noise_sigma):
    world, g_uv, g_vu = lossy_world_preset(name, seed=5)
    d = len(means[0])
    assert (world.class_count, world.entity_vocab, world.seed) == (4, 8, 5)
    assert_bits(world.class_means, means)
    assert world.within_class_sigma == 1.0
    assert world.entity_pairs_by_class == PRESET_PAIRS
    identity = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    assert_linear(g_uv, identity, [0.0] * d, noise_sigma)
    assert_linear(g_vu, identity, [0.0] * d, noise_sigma)
    assert (g_uv.in_port, g_uv.out_port) == (vec_port(d, MODALITY_U), vec_port(d, MODALITY_V))
    assert (g_vu.in_port, g_vu.out_port) == (vec_port(d, MODALITY_V), vec_port(d, MODALITY_U))


def test_collapse_heavy_preset_keeps_its_numbers():
    world, g_uv, g_vu = lossy_world_preset("collapse-heavy", seed=5)
    diagonal = (np.arange(4), np.arange(4))
    means = np.zeros((4, 32))
    means[diagonal] = 3.0
    proj = np.zeros((4, 32))
    proj[diagonal] = 1.0
    assert (world.class_count, world.entity_vocab, world.seed) == (4, 8, 5)
    assert_bits(world.class_means, means)
    assert world.within_class_sigma == 1.5
    assert world.entity_pairs_by_class == PRESET_PAIRS
    assert type(g_uv) is MixtureChannel and g_uv.branch_prob == 0.55
    collapse, faithful = g_uv.a, g_uv.b
    assert type(collapse) is PrototypeCollapseChannel
    assert_bits(collapse.prototypes, [[2.2, 2.2, 2.2, 2.2], [-2.2, -2.2, -2.2, -2.2]])
    assert_bits(collapse.projection, proj)
    assert (collapse.temperature, collapse.jitter_sigma) == (8.0, 0.4)
    assert_linear(faithful, proj, np.zeros(4), 0.35)
    assert_linear(g_vu, proj.T, np.zeros(32), 0.35)
    assert (g_uv.in_port, g_uv.out_port) == (vec_port(32, MODALITY_U), vec_port(4, MODALITY_V))
    assert (g_vu.in_port, g_vu.out_port) == (vec_port(4, MODALITY_V), vec_port(32, MODALITY_U))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_each_preset_call_builds_its_own_means(name):
    first, _, _ = lossy_world_preset(name, seed=0)
    second, _, _ = lossy_world_preset(name, seed=0)
    assert not np.shares_memory(first.class_means, second.class_means)


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
    us = world.class_means[labels] + world.within_class_sigma * rng.standard_normal((n, world.u_dim))
    samples = sample_channel(g_uv, ViewBatch("vector", MODALITY_U, us), rng).data
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
    vs = sample_channel(g_uv, ViewBatch("vector", MODALITY_U, us), rng).data

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


def test_per_instance_streams_make_generation_order_irrelevant():
    # regenerating one instance's round-0 views in isolation reproduces the
    # run over all instances
    world, g_uv, g_vu, v_spec = tiny_world()
    instances, schema = generate_benchmark(world, 2, v_spec)
    # no rounds after round 0 and no teacher: the pools hold the round-0 views alone
    config = tiny_config(initial_views=3, seed=11, ccg_rounds=0, spawn_per_kept=(), policy_name="random", keep_fraction=1.0)
    batch = curate(instances, g_uv, g_vu, Scorer(config, schema))
    (alone,) = curate([instances[3]], g_uv, g_vu, Scorer(config, schema))  # no other draws first
    assert alone.id == batch[3].id
    assert np.array_equal(alone.synthetic_pool.v.data, batch[3].synthetic_pool.v.data)
    # and the pool is the instance's ("gen", id, 0) stream through one batch
    expected = sample_channel(g_uv, stack_views([instances[3].real_view] * 3), derive_rng(11, "gen", instances[3].id, 0))
    assert np.array_equal(alone.synthetic_pool.v.data, expected.data)


# --- batch edge cases ------------------------------------------------------------------


def test_ragged_discrete_batch_is_a_channel_error():
    chan = DiscreteChannel(np.eye(3), MODALITY_U, MODALITY_V)
    views = [discrete_view([0, 1, 2], MODALITY_U), discrete_view([2, 1], MODALITY_U)]
    with pytest.raises(ChannelError, match="one length"):
        sample_channel(chan, stack_views(views), derive_rng(0, "t"))


def test_empty_batch_draws_nothing():
    chan = LinearGaussianChannel(np.eye(2), np.zeros(2), 0.1, MODALITY_U, MODALITY_V)
    rng = derive_rng(0, "t")
    out = sample_channel(chan, ViewBatch("vector", MODALITY_U, np.empty((0, 2))), rng)
    assert out.data.shape == (0, 2) and out.modality == MODALITY_V
    assert rng.random() == derive_rng(0, "t").random()


@pytest.mark.parametrize("branch_prob", [0.0, 1.0])
def test_mixture_with_a_certain_branch(branch_prob):
    outs = sample_channel(point_mixture(branch_prob), stack_views([vector_view([0.0, 0.0], MODALITY_U)] * 50), derive_rng(0, "m"))
    from_a = [np.array_equal(out, [5.0, 5.0]) for out in outs.data]
    assert len(outs) == 50 and all(hit == (branch_prob == 1.0) for hit in from_a)


def test_mixture_mask_sending_every_row_to_one_branch():
    # small batches whose mask sends both rows to the same branch, each way
    mix = point_mixture(0.5)
    branches = set()
    for seed in range(20):
        outs = sample_channel(mix, stack_views([vector_view([0.0, 0.0], MODALITY_U)] * 2), derive_rng(seed, "m"))
        hits = {np.array_equal(out, [5.0, 5.0]) for out in outs.data}
        if len(hits) == 1:
            branches |= hits
    assert branches == {True, False}


def test_zero_row_sub_batch_inside_a_mixture():
    # the outer mixture never takes branch a, so the inner mixture (discrete,
    # integer rows) samples a zero-row batch on every call
    flip = DiscreteChannel(np.array([[0.2, 0.8], [0.8, 0.2]]), MODALITY_U, MODALITY_V)
    keep = DiscreteChannel(np.eye(2), MODALITY_U, MODALITY_V)
    outer = MixtureChannel(0.0, MixtureChannel(0.5, flip, keep), keep)
    outs = sample_channel(outer, stack_views([discrete_view([0, 1, 1], MODALITY_U)] * 4), derive_rng(0, "z"))
    assert outs.data.tolist() == [[0, 1, 1]] * 4
    empty = outer.a.sample(np.empty((0, 3), dtype=np.int64), derive_rng(0, "z"))
    assert empty.shape == (0, 3) and empty.dtype == np.int64


# --- one batch against independent batches of one ---------------------------------------

B = 4000


def batch_and_singles(channel, x, seed):
    """Outputs of one batch of B copies of ``x`` and of B batches of one."""
    view = vector_view(x, channel.in_port.modality)
    batch = sample_channel(channel, stack_views([view] * B), derive_rng(seed, "batch")).data
    singles = np.concatenate([sample_channel(channel, stack_views([view]), derive_rng(seed, "single", i)).data for i in range(B)])
    return batch, singles


def assert_rate(hits, p):
    assert abs(float(np.mean(hits)) - p) < 4 * np.sqrt(p * (1 - p) / len(hits))


def linear_gaussian_channels(preset):
    _, g_uv, g_vu = lossy_world_preset(preset, seed=0)
    return [c for c in (g_uv, g_vu, getattr(g_uv, "b", None)) if isinstance(c, LinearGaussianChannel)]


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_linear_gaussian_batches_agree_with_batches_of_one(preset):
    for k, chan in enumerate(linear_gaussian_channels(preset)):
        x = np.linspace(-1.0, 1.0, chan.in_port.spec.size)
        sigma = chan.noise_sigma
        for out in batch_and_singles(chan, x, seed=k):
            mean_err = np.abs(out.mean(axis=0) - (chan.weight @ x + chan.bias))
            assert np.all(mean_err < 4 * sigma / np.sqrt(B))
            var_err = np.abs(out.var(axis=0, ddof=1) - sigma**2)
            assert np.all(var_err < 4 * sigma**2 * np.sqrt(2 / (B - 1)))


def test_collapse_heavy_batches_agree_with_batches_of_one():
    world, g_uv, _ = lossy_world_preset("collapse-heavy", seed=0)
    collapse, faithful = g_uv.a, g_uv.b
    protos = collapse.prototypes
    for x in (np.zeros(world.u_dim), world.class_means[0], world.class_means[2] + 0.5):
        snap = collapse.snap_probabilities(x[None, :])[0]
        centres = np.vstack([protos, faithful.weight @ x])  # the faithful branch's mean last
        for out in batch_and_singles(collapse, x, seed=1):
            nearest = ((out[:, None, :] - protos[None]) ** 2).sum(axis=2).argmin(axis=1)
            for j in range(len(protos)):
                assert_rate(nearest == j, snap[j])
        for out in batch_and_singles(g_uv, x, seed=2):
            nearest = ((out[:, None, :] - centres[None]) ** 2).sum(axis=2).argmin(axis=1)
            assert_rate(nearest < len(protos), g_uv.branch_prob)


# --- one batch over per-instance streams ----------------------------------------------


def _segment_channels():
    """Every preset's two channels, a discrete channel, a mixture whose
    branch ``a`` never fires (so it samples zero rows) and two
    compositions, one with a mixture stage."""
    channels = []
    for name in PRESET_NAMES:
        _, g_uv, g_vu = lossy_world_preset(name, seed=0)
        channels += [g_uv, g_vu, ComposedChannel([g_uv, g_vu])]
    noisy = DiscreteChannel([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]], MODALITY_U, MODALITY_V)
    channels += [noisy, MixtureChannel(0.0, noisy, DiscreteChannel(np.eye(3), MODALITY_U, MODALITY_V))]
    return channels


SEGMENT_CHANNELS = _segment_channels()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    channel=st.sampled_from(SEGMENT_CHANNELS),
    sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_one_batch_over_segments_equals_each_segment_alone(channel, sizes, seed):
    spec = channel.in_port.spec
    data = derive_rng(seed, "rows")
    n = sum(sizes)
    rows = data.normal(size=(n, spec.size)) if spec.kind == "vector" else data.integers(spec.size, size=(n, 4))
    batch = ViewBatch(spec.kind, channel.in_port.modality, rows)
    together = [derive_rng(seed, "segment", i) for i in range(len(sizes))]
    alone = [derive_rng(seed, "segment", i) for i in range(len(sizes))]
    out = sample_channel(channel, batch, Streams(together, sizes)).data
    starts = np.cumsum([0] + sizes[:-1])
    parts = [
        sample_channel(channel, batch.take(slice(start, start + size)), rng).data
        for start, size, rng in zip(starts, sizes, alone)
    ]
    assert out.dtype == parts[0].dtype
    assert out.tobytes() == np.concatenate(parts).tobytes()
    # every segment's generator made exactly the draws it makes alone
    assert [rng.random() for rng in together] == [rng.random() for rng in alone]


def test_streams_must_cover_the_batch():
    chan = DiscreteChannel(np.eye(2), MODALITY_U, MODALITY_V)
    batch = stack_views([discrete_view([0, 1], MODALITY_U)] * 3)
    with pytest.raises(ChannelError, match="cover 2 rows"):
        sample_channel(chan, batch, Streams([derive_rng(0, "a"), derive_rng(0, "b")], [1, 1]))
    with pytest.raises(ChannelError, match="one non-negative segment size"):
        Streams([derive_rng(0, "a")], [2, 1])
    with pytest.raises(ChannelError, match="one non-negative segment size"):
        Streams([derive_rng(0, "a"), derive_rng(0, "b")], [4, -1])

"""Exact mutual information, chain profiles, and the classifier lower bound.

Frozen expected values used here, all in nats and checked against a direct
double-loop summation oracle where marked:
    H(uniform binary)                  0.693147
    I under BSC(flip=0.1)              0.368064
    I under two composed BSC(0.1)      0.221753  (equals one BSC(0.18))
"""

import math

import numpy as np
import pytest

from chainviews.channels import DiscreteChannel
from chainviews.datamodel import MODALITY_U, MODALITY_V
from chainviews.info import (
    DataProcessingViolation,
    DiscreteJoint,
    DiscreteLabelWorld,
    InfoError,
    MarkovChainSpec,
    binary_symmetric_world,
    chain_mi_profile,
    entropy,
    exact_mi,
    mi_lower_bound,
    random_label_world,
    verify_classifier_bound,
)
from chainviews.rng import derive_rng

LN2 = math.log(2.0)


def mi_by_double_loop(table):
    """Independent oracle: textbook summation with explicit loops."""
    table = np.asarray(table, dtype=np.float64)
    pi = table.sum(axis=1)
    pj = table.sum(axis=0)
    total = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if table[i, j] > 0:
                total += table[i, j] * math.log(table[i, j] / (pi[i] * pj[j]))
    return total


def bsc_joint(flip):
    return DiscreteJoint(0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]]))


def disc(matrix):
    return DiscreteChannel(np.asarray(matrix, dtype=np.float64), MODALITY_U, MODALITY_V)


# --- exact_mi -------------------------------------------------------------------


def test_independent_pair_has_zero_mi():
    joint = DiscreteJoint(np.full((3, 4), 1.0 / 12.0))
    assert abs(exact_mi(joint)) < 1e-12


def test_bijection_on_uniform_alphabet_gives_ln_alphabet():
    joint = DiscreteJoint(0.25 * np.eye(4))
    assert abs(exact_mi(joint) - math.log(4)) < 1e-12


def test_bsc_01_matches_frozen_value_and_oracle():
    value = exact_mi(bsc_joint(0.1))
    assert abs(value - 0.368064) < 1e-6
    assert abs(value - mi_by_double_loop(bsc_joint(0.1).table)) < 1e-12


def test_exact_mi_is_symmetric_and_nonnegative():
    rng = derive_rng(0, "mi-sym")
    for _ in range(20):
        table = rng.random((3, 5)) + 1e-3
        table /= table.sum()
        joint = DiscreteJoint(table)
        assert abs(exact_mi(joint) - exact_mi(DiscreteJoint(table.T))) < 1e-12
        assert exact_mi(joint) >= -1e-12


def test_joint_must_normalize():
    with pytest.raises(InfoError):
        DiscreteJoint(np.full((2, 2), 0.3))


def test_cell_cap_enforced():
    shape = (1001, 1000)  # 1,001,000 cells, above DEFAULT_CELL_CAP
    with pytest.raises(InfoError, match="cap"):
        DiscreteJoint(np.full(shape, 1.0 / (1001 * 1000)))


@pytest.mark.parametrize(
    "table", [np.array([0.5, 0.5]), np.full((2, 2, 2), 0.125), np.zeros((0, 3)), np.zeros((2, 0))]
)
def test_joint_needs_a_non_empty_two_dimensional_table(table):
    with pytest.raises(InfoError, match="non-empty 2-d"):
        DiscreteJoint(table)


def test_entropy_of_uniform_binary():
    assert abs(entropy([0.5, 0.5]) - 0.693147) < 1e-6


# --- chain_mi_profile --------------------------------------------------------------


def test_identity_chain_profile_is_constant():
    spec = MarkovChainSpec(
        initial=np.array([0.25, 0.25, 0.25, 0.25]),
        stages=[disc(np.eye(4)), disc(np.eye(4))],
    )
    profile = chain_mi_profile(spec)
    h = math.log(4)
    assert len(profile) == 3
    for value in profile:
        assert abs(value - h) < 1e-12


def test_bsc_chain_matches_frozen_profile():
    bsc = [[0.9, 0.1], [0.1, 0.9]]
    spec = MarkovChainSpec(
        initial=np.array([0.5, 0.5]),
        stages=[disc(bsc), disc(bsc)],
    )
    profile = chain_mi_profile(spec)
    frozen = [0.693147, 0.368064, 0.221753]
    assert len(profile) == 3
    for got, want in zip(profile, frozen):
        assert abs(got - want) < 1e-6


def test_random_chains_are_non_increasing():
    # 100 random chains, alphabets <= 6, length <= 5: the data-processing
    # inequality must hold pointwise
    rng = derive_rng(0, "dpi-lite")
    for _ in range(100):
        sizes = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 6)))]
        initial = rng.dirichlet(np.ones(sizes[0]))
        channels = []
        for a, b in zip(sizes, sizes[1:]):
            rows = rng.dirichlet(np.ones(b), size=a)
            channels.append(disc(rows))
        profile = chain_mi_profile(MarkovChainSpec(initial=initial, stages=channels))
        for earlier, later in zip(profile, profile[1:]):
            assert later <= earlier + 1e-9


def test_profile_guard_trips_on_impossible_tolerance():
    # with a negative tolerance even a perfectly constant profile counts as
    # an increase, which proves the violation guard is wired up
    spec = MarkovChainSpec(initial=np.array([0.5, 0.5]), stages=[disc(np.eye(2))])
    with pytest.raises(DataProcessingViolation):
        chain_mi_profile(spec, tol=-1.0)


def test_stages_must_sum_to_one_within_an_absolute_1e9():
    # the tolerance is absolute: numpy's default relative 1e-5 would let a
    # row 1e-6 short through
    short = np.array([[0.5, 0.5 - 1e-6], [0.5, 0.5]])
    with pytest.raises(InfoError, match="row-stochastic"):
        MarkovChainSpec(initial=np.array([0.5, 0.5]), stages=[short])
    with pytest.raises(InfoError, match="row-stochastic"):
        DiscreteLabelWorld(short)
    DiscreteLabelWorld(np.array([[0.5, 0.5 - 1e-10], [0.5, 0.5]]))


def test_label_worlds_compare_and_hash_by_identity():
    world, other = random_label_world(2, 3, 0), random_label_world(2, 3, 0)
    assert world == world and world != other
    assert len({world, world, other}) == 2


def test_chain_alphabets_must_match():
    with pytest.raises(InfoError):
        MarkovChainSpec(initial=np.array([0.5, 0.5]), stages=[disc(np.eye(3))])


# --- mi_lower_bound ------------------------------------------------------------------


def test_uniform_scorer_bounds_at_minus_ln_c():
    labels = [v % 3 for v in range(6)]
    bound = mi_lower_bound(np.zeros((6, 3)), labels)
    assert abs(bound - (-math.log(3))) < 1e-12


def test_bound_equals_negative_mean_cross_entropy():
    rng = derive_rng(1, "bound-xent")
    logits_table = rng.normal(size=(8, 4))
    labels = [int(rng.integers(4)) for _ in range(8)]
    bound = mi_lower_bound(logits_table, labels)
    losses = []
    for row, y in zip(logits_table, labels):
        losses.append(-(row[y] - (np.log(np.sum(np.exp(row - row.max()))) + row.max())))
    assert abs(bound - (-float(np.mean(losses)))) < 1e-12


def test_bound_requires_samples():
    with pytest.raises(InfoError):
        mi_lower_bound(np.zeros((0, 2)), [])


def test_saturated_scorer_on_bijection_approaches_zero():
    bound = mi_lower_bound([[50.0, -50.0], [-50.0, 50.0]], [0, 1])
    assert -1e-3 < bound <= 0.0


@pytest.mark.parametrize("label", [-1, 3])
def test_bound_refuses_a_label_outside_the_classes(label):
    # a negative label must not index the last class from the end
    with pytest.raises(ValueError, match="class index"):
        mi_lower_bound(np.zeros((2, 3)), [0, label])


# --- verify_classifier_bound ----------------------------------------------------------


def test_label_world_sampling_matches_searchsorted_reference():
    # the inverse CDF per draw, as a per-sample searchsorted loop
    for seed in range(10):
        world = random_label_world(class_count=2 + seed % 3, alphabet=3 + seed, seed=seed)
        channel = world.channel.copy()
        channel[0] = np.eye(world.alphabet)[-1]  # a row whose mass sits on the last symbol
        world = DiscreteLabelWorld(channel, seed=seed)
        symbols, labels = world.sample(500, derive_rng(seed, "draws"))
        rng = derive_rng(seed, "draws")
        expected_labels = rng.integers(world.class_count, size=500)
        draws = rng.random(500)
        cumulative = np.cumsum(channel, axis=1)
        expected = [
            min(np.searchsorted(cumulative[y], d, side="right"), world.alphabet - 1)
            for y, d in zip(expected_labels, draws)
        ]
        assert labels.tolist() == expected_labels.tolist()
        assert symbols.tolist() == expected


def test_label_world_sampling_equals_the_explicit_formula_bit_for_bit():
    # labels first, then one uniform per sample, each mapped to the count of
    # its label's cumulative entries at or below it, clipped to the alphabet
    world = random_label_world(class_count=4, alphabet=6, seed=3)
    symbols, labels = world.sample(5000, derive_rng(3, "draws"))
    rng = derive_rng(3, "draws")
    expected_labels = rng.integers(4, size=5000)
    draws = rng.random(5000)
    expected = np.minimum((np.cumsum(world.channel, axis=1)[expected_labels] <= draws[:, None]).sum(axis=1), 5)
    assert labels.tobytes() == expected_labels.tobytes()
    assert symbols.dtype == expected.dtype and symbols.tobytes() == expected.tobytes()


def reference_classifier_bound(world):
    """The bound with its own Adam and log-sum-exp, as written out by hand
    before the verifier ran the library's AdamW and softmax_xent."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = derive_rng(world.seed, "bound-verify")
    v_train, y_train = world.sample(20_000, rng)
    v_eval, y_eval = world.sample(20_000, rng)
    counts = np.zeros((world.class_count, world.alphabet))
    np.add.at(counts, (y_train, v_train), 1.0)
    col_total = counts.sum(axis=0)
    weights, m, v2 = (np.zeros_like(counts) for _ in range(3))
    for t in range(1, 401):
        p = np.exp(weights - weights.max(axis=0, keepdims=True))
        p /= p.sum(axis=0, keepdims=True)
        grad = (p * col_total - counts) / 20_000
        m = beta1 * m + (1 - beta1) * grad
        v2 = beta2 * v2 + (1 - beta2) * grad**2
        weights -= 0.2 * (m / (1 - beta1**t)) / (np.sqrt(v2 / (1 - beta2**t)) + eps)
    logits = weights[:, v_eval]
    lse = np.log(np.exp(logits - logits.max(axis=0)).sum(axis=0)) + logits.max(axis=0)
    terms = logits[y_eval, np.arange(len(y_eval))] - lse + math.log(world.class_count)
    return float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(len(terms)))


def test_bound_matches_the_hand_written_reference_on_the_acceptance_worlds():
    # criterion 2's 20 worlds: the library's AdamW and cross-entropy move the
    # bound and its standard error at round-off only, and flag the same worlds
    for i in range(20):
        rng = derive_rng(2026, "acceptance-bound", i)
        class_count, alphabet = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        world = random_label_world(class_count, alphabet, seed=int(rng.integers(0, 2**32)))
        report = verify_classifier_bound(world)
        bound, se = reference_classifier_bound(world)
        assert abs(report.bound - bound) < 1e-9 and abs(report.se - se) < 1e-9
        assert report.violation == (bound > report.exact + 3 * se)


def test_label_world_sizes_are_the_channel_shape():
    world = random_label_world(class_count=3, alphabet=5, seed=0)
    assert (world.class_count, world.alphabet) == world.channel.shape == (3, 5)
    bsc = binary_symmetric_world(0.1)
    assert (bsc.class_count, bsc.alphabet) == bsc.channel.shape == (2, 2)
    assert world.joint().table.shape == (3, 5)


def test_bijection_world_bound_converges_to_ln2():
    world = DiscreteLabelWorld(channel=np.eye(2), seed=0)
    report = verify_classifier_bound(world)
    assert abs(report.exact - LN2) < 1e-12
    assert report.bound <= report.exact + 3 * report.se
    assert report.exact - report.bound < 0.05


def test_bsc_world_bound_stays_below_exact():
    report = verify_classifier_bound(binary_symmetric_world(0.1, seed=2))
    assert abs(report.exact - 0.368064) < 1e-6
    assert not report.violation


def test_independent_world_bound_is_noise_level():
    world = DiscreteLabelWorld(channel=np.tile(np.full(4, 0.25), (3, 1)), seed=1)
    report = verify_classifier_bound(world)
    assert abs(report.exact) < 1e-12
    assert report.bound <= 3 * report.se
    assert not report.violation


def test_random_worlds_rarely_violate():
    # smaller sibling of the acceptance criterion: 5 random worlds, none violate
    for seed in range(5):
        world = random_label_world(class_count=2 + seed % 3, alphabet=4 + seed, seed=seed)
        report = verify_classifier_bound(world)
        assert not report.violation, f"world seed {seed}: bound {report.bound} vs exact {report.exact}"

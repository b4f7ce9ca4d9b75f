"""Keep-count arithmetic and the four selection policies, each a score per
candidate ranked by ``rank_keep``."""

import numpy as np
import pytest

from chainviews.datamodel import MODALITY_U, MODALITY_V, ViewSpec, vector_view
from chainviews.rng import derive_rng
from chainviews.selection import (
    POLICY_NAMES,
    RandomLinearEmbedder,
    SelectionError,
    SelectionPolicy,
    cosine_similarity,
    keep_count,
    random_scores,
    rank_keep,
    similarity_scores,
)
from conftest import scored_pool


def split(scores, keep_fraction):
    """(kept, discarded) candidate indices, both in index order."""
    kept = sorted(rank_keep(scores, keep_count(keep_fraction, len(scores))))
    return kept, [i for i in range(len(scores)) if i not in kept]


# --- keep_count ----------------------------------------------------------------


def test_keep_count_frozen_cases():
    # the 30 -> 18 -> 90 -> 54 arithmetic plus boundary cases
    assert keep_count(0.6, 30) == 18
    assert keep_count(0.6, 90) == 54
    assert keep_count(0.4, 5) == 2
    assert keep_count(0.3, 10) == 3
    assert keep_count(1.0, 7) == 7
    assert keep_count(0.01, 50) == 1


def test_keep_count_resists_float_artifacts():
    # 0.1 * 30 is 3.0000000000000004 in binary floats; naive ceil says 4
    assert keep_count(0.1, 30) == 3
    assert keep_count(0.2, 15) == 3
    assert keep_count(0.3, 20) == 6


def test_keep_count_exact_ceiling_property():
    # k is the unique integer with k-1 < rho * n <= k, and it is monotone in n
    from fractions import Fraction

    for i in range(1, 21):
        rho = i / 20
        previous = 0
        for n in range(1, 61):
            k = keep_count(rho, n)
            product = Fraction(str(rho)) * n
            assert Fraction(k - 1) < product <= Fraction(k)
            assert 1 <= k <= n
            assert k >= previous
            previous = k


def test_keep_count_rejects_bad_fraction():
    with pytest.raises(SelectionError):
        keep_count(0.0, 10)
    with pytest.raises(SelectionError):
        keep_count(1.5, 10)


# --- teacher-loss policy -----------------------------------------------------------


def test_filter_by_loss_keeps_smallest():
    pool = scored_pool([0.1, 0.9, 0.2, 0.8])
    kept, discarded = split([v.teacher_loss for v in pool], 0.5)
    assert [pool[i].teacher_loss for i in kept] == [0.1, 0.2]
    assert [pool[i].teacher_loss for i in discarded] == [0.9, 0.8]


def test_filter_by_loss_tie_break_is_stable():
    kept, _ = split([0.5] * 5, 0.4)
    # all losses equal: the two lowest indices survive
    assert kept == [0, 1]
    assert rank_keep([0.5] * 5, 2) == [0, 1]
    assert rank_keep([0.5] * 5, 0) == []
    assert rank_keep([0.5] * 5, 5) == [0, 1, 2, 3, 4]
    # best first, equal scores by index; k beyond n keeps everything
    assert rank_keep([0.3, 0.1, 0.3, 0.1], 3) == [1, 3, 0]
    assert rank_keep([0.3, 0.1, 0.3, 0.1], 4) == [1, 3, 0, 2]
    assert rank_keep([0.3, 0.1], 9) == [1, 0]


def test_filter_by_loss_boundary_ordering():
    rng = derive_rng(0, "loss-prop")
    for _ in range(25):
        losses = rng.random(11)
        kept, discarded = split(losses, 0.5)
        assert len(kept) == keep_count(0.5, 11)
        assert len(kept) + len(discarded) == 11
        if kept and discarded:
            assert max(losses[kept]) <= min(losses[discarded])


def test_kept_subset_has_better_empirical_bound():
    # the negative mean loss over kept views always beats the discarded set
    rng = derive_rng(1, "bound-prop")
    for _ in range(20):
        losses = rng.random(12)
        kept, discarded = split(losses, 0.5)
        bound_kept = -float(np.mean(losses[kept]))
        bound_discarded = -float(np.mean(losses[discarded]))
        assert bound_kept >= bound_discarded


# --- similarity policy ---------------------------------------------------------------


def embedder():
    return RandomLinearEmbedder(ViewSpec("vector", 2), ViewSpec("vector", 2), dim=4, seed=0)


def test_identical_view_is_always_kept():
    real = vector_view([1.0, 2.0], MODALITY_U)
    views = scored_pool([0.0, 0.0, 0.0])
    # plant a v-side copy of the real view's embedding source
    from dataclasses import replace

    twin = replace(views[1], view=vector_view([1.0, 2.0], MODALITY_V))
    views[1] = twin
    emb = embedder()
    # make u and v embeddings agree so the twin has cosine exactly 1
    emb.w_v = emb.w_u
    kept, _ = split(similarity_scores(views, real, emb), 0.34)
    assert 1 in kept


def test_similarity_kept_set_matches_sort_oracle():
    rng = derive_rng(2, "sim")
    real = vector_view(rng.normal(size=2), MODALITY_U)
    views = scored_pool(np.zeros(10))
    from dataclasses import replace

    views = [replace(v, view=vector_view(rng.normal(size=2), MODALITY_V)) for v in views]
    emb = embedder()
    kept, _ = split(similarity_scores(views, real, emb), 0.5)
    anchor = emb.embed(real)
    sims = [cosine_similarity(emb.embed(v.view), anchor) for v in views]
    oracle = sorted(range(10), key=lambda i: (-sims[i], i))[:5]
    assert kept == sorted(oracle)


def test_zero_norm_embedding_scores_minus_one():
    assert cosine_similarity(np.zeros(3), np.ones(3)) == -1.0
    emb = embedder()
    real = vector_view([1.0, 0.0], MODALITY_U)
    views = scored_pool([0.0, 0.0])
    from dataclasses import replace

    # a zero vector embeds to zero under a linear map
    views[0] = replace(views[0], view=vector_view([0.0, 0.0], MODALITY_V))
    scores = similarity_scores(views, real, emb)
    assert scores[0] == 1.0  # negated cosine of -1


def test_orthogonal_tie_keeps_lower_index():
    emb = embedder()
    emb.w_u = np.eye(2)
    emb.w_v = np.eye(2)
    real = vector_view([1.0, 0.0], MODALITY_U)
    from dataclasses import replace

    views = scored_pool([0.0, 0.0])
    views[0] = replace(views[0], view=vector_view([0.0, 1.0], MODALITY_V))
    views[1] = replace(views[1], view=vector_view([0.0, -1.0], MODALITY_V))
    scores = similarity_scores(views, real, emb)
    kept, _ = split(scores, 0.5)
    assert kept == [0]
    assert np.array_equal(views[kept[0]].view.data, [0.0, 1.0])
    assert rank_keep(scores, 0) == []
    assert rank_keep(scores, 2) == [0, 1]


# --- random policy -------------------------------------------------------------------


def test_filter_random_full_fraction_keeps_all():
    kept, discarded = split(random_scores(3, 0), 1.0)
    assert kept == [0, 1, 2] and not discarded


def test_filter_random_is_deterministic_per_seed():
    kept_a, _ = split(random_scores(8, 3, "inst", 0), 0.5)
    kept_b, _ = split(random_scores(8, 3, "inst", 0), 0.5)
    kept_c, _ = split(random_scores(8, 4, "inst", 0), 0.5)
    assert kept_a == kept_b
    assert kept_a != kept_c


def test_filter_random_is_uniform():
    # each of 4 views kept with frequency 1/2 over many trials (3 sigma)
    trials = 4000
    counts = np.zeros(4)
    for t in range(trials):
        kept, _ = split(random_scores(4, 0, "trial", t), 0.5)
        counts[kept] += 1
    expected = trials * 0.5
    sigma = np.sqrt(trials * 0.5 * 0.5)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_keep_all_policy():
    # keep_all scores every candidate alike and keeps all of them
    assert rank_keep([0.0, 0.0], 2) == [0, 1]


# --- policy object -------------------------------------------------------------------


def test_policy_names_are_closed():
    assert set(POLICY_NAMES) == {"teacher_loss", "similarity", "random", "keep_all"}
    with pytest.raises(SelectionError, match="unknown policy"):
        SelectionPolicy("clip")


def test_policy_fraction_validation():
    with pytest.raises(SelectionError):
        SelectionPolicy("teacher_loss", keep_fraction=0.0)
    assert SelectionPolicy("teacher_loss", keep_fraction=1.0).keep_fraction == 1.0
    assert SelectionPolicy("teacher_loss").needs_teacher
    assert not SelectionPolicy("random").needs_teacher

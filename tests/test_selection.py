"""Keep-count arithmetic and the four selection policies."""

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
    filter_by_loss,
    filter_by_similarity,
    filter_keep_all,
    filter_random,
    keep_count,
    rank_keep,
    similarity_scores,
)
from conftest import scored_pool


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
    kept, discarded = filter_by_loss(scored_pool([0.1, 0.9, 0.2, 0.8]), 0.5)
    assert [v.teacher_loss for v in kept] == [0.1, 0.2]
    assert [v.teacher_loss for v in discarded] == [0.9, 0.8]
    assert all(v.selected for v in kept)
    assert not any(v.selected for v in discarded)


def test_filter_by_loss_tie_break_is_stable():
    kept, _ = filter_by_loss(scored_pool([0.5] * 5), 0.4)
    # all losses equal: the two lowest indices survive
    assert [v.view.data[0] for v in kept] == [0.0, 1.0]
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
        kept, discarded = filter_by_loss(scored_pool(losses), 0.5)
        assert len(kept) == keep_count(0.5, 11)
        assert len(kept) + len(discarded) == 11
        if kept and discarded:
            assert max(v.teacher_loss for v in kept) <= min(v.teacher_loss for v in discarded)


def test_filter_by_loss_requires_scores():
    pool = scored_pool([0.1, 0.2])
    from dataclasses import replace

    pool[1] = replace(pool[1], teacher_loss=None)
    with pytest.raises(SelectionError, match="no teacher loss"):
        filter_by_loss(pool, 0.5)


def test_kept_subset_has_better_empirical_bound():
    # the negative mean loss over kept views always beats the discarded set
    rng = derive_rng(1, "bound-prop")
    for _ in range(20):
        losses = rng.random(12)
        kept, discarded = filter_by_loss(scored_pool(losses), 0.5)
        bound_kept = -float(np.mean([v.teacher_loss for v in kept]))
        bound_discarded = -float(np.mean([v.teacher_loss for v in discarded]))
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
    kept, _ = filter_by_similarity(views, real, emb, 0.34)
    assert any(v.view.equals(twin.view) for v in kept)


def test_similarity_kept_set_matches_sort_oracle():
    rng = derive_rng(2, "sim")
    real = vector_view(rng.normal(size=2), MODALITY_U)
    views = scored_pool(np.zeros(10))
    from dataclasses import replace

    views = [replace(v, view=vector_view(rng.normal(size=2), MODALITY_V)) for v in views]
    emb = embedder()
    kept, _ = filter_by_similarity(views, real, emb, 0.5)
    anchor = emb.embed(real)
    sims = [cosine_similarity(emb.embed(v.view), anchor) for v in views]
    oracle = sorted(range(10), key=lambda i: (-sims[i], i))[:5]
    kept_data = {tuple(v.view.data) for v in kept}
    assert kept_data == {tuple(views[i].view.data) for i in oracle}


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
    kept, _ = filter_by_similarity(views, real, emb, 0.5)
    assert len(kept) == 1
    assert np.array_equal(kept[0].view.data, [0.0, 1.0])
    scores = similarity_scores(views, real, emb)
    assert rank_keep(scores, 0) == []
    assert rank_keep(scores, 2) == [0, 1]


# --- random policy -------------------------------------------------------------------


def test_filter_random_full_fraction_keeps_all():
    views = scored_pool([0.4, 0.2, 0.9])
    kept, discarded = filter_random(views, 1.0, seed=0)
    assert len(kept) == 3 and not discarded


def test_filter_random_is_deterministic_per_seed():
    views = scored_pool(np.zeros(8))
    kept_a, _ = filter_random(views, 0.5, 3, "inst", 0)
    kept_b, _ = filter_random(views, 0.5, 3, "inst", 0)
    kept_c, _ = filter_random(views, 0.5, 4, "inst", 0)
    ids = lambda kept: [tuple(v.view.data) for v in kept]
    assert ids(kept_a) == ids(kept_b)
    assert ids(kept_a) != ids(kept_c)


def test_filter_random_is_uniform():
    # each of 4 views kept with frequency 1/2 over many trials (3 sigma)
    views = scored_pool(np.zeros(4))
    trials = 4000
    counts = np.zeros(4)
    for t in range(trials):
        kept, _ = filter_random(views, 0.5, 0, "trial", t)
        for v in kept:
            counts[int(v.view.data[0])] += 1
    expected = trials * 0.5
    sigma = np.sqrt(trials * 0.5 * 0.5)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_keep_all_policy():
    views = scored_pool([0.4, 0.2])
    kept, discarded = filter_keep_all(views)
    assert len(kept) == 2 and discarded == []
    assert all(v.selected for v in kept)


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


def test_policies_never_change_view_content():
    views = scored_pool([0.3, 0.1, 0.2])
    for kept, discarded in (
        filter_by_loss(views, 0.67),
        filter_random(views, 0.67, seed=0),
        filter_keep_all(views),
    ):
        for out in kept + discarded:
            source = views[int(out.view.data[0])]
            assert out.view.equals(source.view)
            assert out.round == source.round and out.parent_id == source.parent_id

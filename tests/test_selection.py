"""Keep-count arithmetic and the two selection policies, each a score per
candidate ranked by ``rank_rows`` (one row per instance), plus the similarity
scores that no policy uses any more."""

import numpy as np
import pytest

from chainviews.datamodel import MODALITY_U, MODALITY_V, ViewBatch, ViewSpec
from chainviews.nn import featurize_rows
from chainviews.pipeline import PipelineConfig, Scorer
from chainviews.rng import derive_rng
from chainviews.selection import (
    POLICY_NAMES,
    RandomLinearEmbedder,
    SelectionError,
    keep_count,
    random_scores,
    rank_rows,
    similarity_scores,
)
from conftest import scored_pool


def one_segment(scores):
    """``scores`` ranked as one row, best first."""
    return rank_rows(np.asarray(scores, dtype=np.float64).reshape(1, -1))[0].tolist()


def split(scores, keep_fraction):
    """(kept, discarded) candidate indices, both in index order."""
    kept = sorted(one_segment(scores)[: keep_count(keep_fraction, len(scores))])
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
    losses = scored_pool([0.1, 0.9, 0.2, 0.8]).teacher_loss
    kept, discarded = split(losses.tolist(), 0.5)
    assert losses[kept].tolist() == [0.1, 0.2]
    assert losses[discarded].tolist() == [0.9, 0.8]


def test_filter_by_loss_tie_break_is_stable():
    kept, _ = split([0.5] * 5, 0.4)
    # all losses equal: the two lowest indices survive
    assert kept == [0, 1]
    assert one_segment([0.5] * 5) == [0, 1, 2, 3, 4]
    # best first, equal scores by index
    assert one_segment([0.3, 0.1, 0.3, 0.1]) == [1, 3, 0, 2]
    assert one_segment([0.3, 0.1]) == [1, 0]
    assert one_segment([]) == []


def test_segments_rank_as_each_segment_alone():
    # one sort along the rows gives each row's (score, index) order, as the
    # row would rank alone; rows may be empty, and NaN ranks last
    rng = derive_rng(5, "segments")
    for _ in range(50):
        scores = rng.integers(0, 3, size=(rng.integers(1, 6), rng.integers(0, 7))).astype(float)
        scores[rng.random(scores.shape) < 0.1] = np.nan
        ranked = rank_rows(scores)
        assert ranked.shape == scores.shape
        for part, order in zip(scores, ranked):
            finite = [i for i in range(len(part)) if not np.isnan(part[i])]
            expected = sorted(finite, key=lambda i: (part[i], i)) + [i for i in range(len(part)) if np.isnan(part[i])]
            assert order.tolist() == expected


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
    return RandomLinearEmbedder(ViewSpec("vector", 2), ViewSpec("vector", 2), seed=0)


def cosine_similarity(a, b):
    """The per-row reference: cosine of two embeddings, -1 when either is zero."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(a @ b) / (na * nb)


def reference_scores(views, anchors, emb):
    """Negated cosine per row, each row embedded with its own ``W @ row``."""
    def rows(batch, weight, spec):
        return [weight @ row for row in featurize_rows(batch.kind, batch.data, spec.size)]

    e = rows(views, emb.w_v, emb.v_spec)
    a = rows(anchors, emb.w_u, emb.u_spec)
    return np.array([-cosine_similarity(x, y) for x, y in zip(e, a)])


def reals(row, n):
    """``n`` copies of one u-side real view, as the anchors of ``n`` views."""
    return ViewBatch("vector", MODALITY_U, np.repeat(np.atleast_2d(row), n, axis=0))


def test_identical_view_is_always_kept():
    views = ViewBatch("vector", MODALITY_V, [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    real = reals([1.0, 2.0], len(views))
    # row 1 is a v-side copy of the real view's embedding source
    emb = embedder()
    # make u and v embeddings agree so the twin has cosine exactly 1
    emb.w_v = emb.w_u
    kept, _ = split(similarity_scores(views, real, emb), 0.34)
    assert 1 in kept


def test_similarity_kept_set_matches_sort_oracle():
    rng = derive_rng(2, "sim")
    views = ViewBatch("vector", MODALITY_V, rng.normal(size=(10, 2)))
    real = reals(rng.normal(size=2), len(views))
    emb = embedder()
    kept, _ = split(similarity_scores(views, real, emb), 0.5)
    sims = -reference_scores(views, real, emb)
    oracle = sorted(range(10), key=lambda i: (-sims[i], i))[:5]
    assert kept == sorted(oracle)


@pytest.mark.parametrize("u_width, v_kind, v_width", [(32, "vector", 4), (2, "vector", 2), (32, "discrete", 6)])
def test_batched_similarity_matches_the_per_row_reference_bit_for_bit(u_width, v_kind, v_width):
    rng = derive_rng(3, "sim-bits", u_width, v_width)
    emb = RandomLinearEmbedder(ViewSpec("vector", u_width), ViewSpec(v_kind, v_width), seed=4)
    n = 300
    data = rng.normal(size=(n, v_width)) if v_kind == "vector" else rng.integers(v_width, size=(n, 7))
    if v_kind == "vector":
        data[5] = 0.0  # a zero view: cosine -1
    anchors = rng.normal(size=(n, u_width))
    anchors[9] = 0.0  # a zero real view: cosine -1
    views = ViewBatch(v_kind, MODALITY_V, data)
    real = ViewBatch("vector", MODALITY_U, anchors)
    scores = similarity_scores(views, real, emb)
    expected = reference_scores(views, real, emb)
    assert scores.tobytes() == expected.tobytes()
    assert scores[9] == 1.0 and (v_kind != "vector" or scores[5] == 1.0)


def test_zero_norm_embedding_scores_minus_one():
    assert cosine_similarity(np.zeros(3), np.ones(3)) == -1.0
    emb = embedder()
    # a zero vector embeds to zero under a linear map
    views = ViewBatch("vector", MODALITY_V, [[0.0, 0.0], [1.0, 0.0]])
    scores = similarity_scores(views, reals([1.0, 0.0], len(views)), emb)
    assert scores[0] == 1.0  # negated cosine of -1


def test_orthogonal_tie_keeps_lower_index():
    emb = embedder()
    emb.w_u = np.eye(2)
    emb.w_v = np.eye(2)
    views = ViewBatch("vector", MODALITY_V, [[0.0, 1.0], [0.0, -1.0]])
    scores = similarity_scores(views, reals([1.0, 0.0], len(views)), emb)
    kept, _ = split(scores, 0.5)
    assert kept == [0]
    assert np.array_equal(views.data[kept[0]], [0.0, 1.0])
    assert one_segment(scores) == [0, 1]


# --- random policy -------------------------------------------------------------------


def test_filter_random_full_fraction_keeps_all():
    kept, discarded = split(random_scores(3, 0, [()])[0], 1.0)
    assert kept == [0, 1, 2] and not discarded


def test_filter_random_is_deterministic_per_seed():
    kept_a, _ = split(random_scores(8, 3, [("inst", 0)])[0], 0.5)
    kept_b, _ = split(random_scores(8, 3, [("inst", 0)])[0], 0.5)
    kept_c, _ = split(random_scores(8, 4, [("inst", 0)])[0], 0.5)
    assert kept_a == kept_b
    assert kept_a != kept_c


def test_random_scores_draw_one_row_per_stream():
    # row k is what the ("random-selection", *streams[k]) stream draws alone
    streams = [("inst", 0), ("inst", 1), ("infer-pick", 2**40), ()]
    rows = random_scores(5, 9, streams)
    assert rows.shape == (4, 5)
    for row, stream in zip(rows, streams):
        assert row.tobytes() == derive_rng(9, "random-selection", *stream).random(5).tobytes()
    assert random_scores(5, 9, []).shape == (0, 5)


def test_filter_random_is_uniform():
    # each of 4 views kept with frequency 1/2 over many trials (3 sigma)
    trials = 4000
    counts = np.zeros(4)
    for t in range(trials):
        kept, _ = split(random_scores(4, 0, [("trial", t)])[0], 0.5)
        counts[kept] += 1
    expected = trials * 0.5
    sigma = np.sqrt(trials * 0.5 * 0.5)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_random_policy_at_keep_fraction_1_keeps_every_candidate():
    # what the no_teacher condition runs: the draw decides nothing
    assert split(random_scores(5, 0, [("trial",)])[0], 1.0) == ([0, 1, 2, 3, 4], [])


# --- the policy setting ----------------------------------------------------------------


def test_policy_names_are_closed():
    assert POLICY_NAMES == ("teacher_loss", "random")
    for retired in ("clip", "similarity", "keep_all"):
        message = rf"^unknown policy '{retired}'; choose one of \('teacher_loss', 'random'\)$"
        with pytest.raises(SelectionError, match=message):
            PipelineConfig(policy_name=retired)


def test_the_random_policy_refuses_keep_fraction_0():
    # keep fraction 1.0 is what keeps every candidate; 0.0 keeps none and is refused
    with pytest.raises(SelectionError, match=r"^keep_fraction must be a finite number in \(0, 1\], got 0\.0$"):
        PipelineConfig(policy_name="random", keep_fraction=0.0)


def test_policy_fraction_validation(small_schema, small_instance):
    # every out-of-range or non-numeric fraction is a SelectionError under
    # every policy, 0.0 included
    for name in POLICY_NAMES:
        for bad in (0.0, -0.5, 1.5, float("nan"), "half", None, 10**400):
            with pytest.raises(SelectionError, match=r"^keep_fraction must be a finite number in \(0, 1\], got "):
                PipelineConfig(policy_name=name, keep_fraction=bad)
        assert PipelineConfig(policy_name=name, keep_fraction=1.0).keep_fraction == 1.0
    # only the teacher-loss policy trains a teacher
    views = scored_pool([0.5, 0.25]).v
    for name in POLICY_NAMES:
        scorer = Scorer(PipelineConfig(policy_name=name), small_schema)
        assert scorer.select([small_instance], views, 0).shape == (1, 2)
        assert (scorer.teacher is not None) == (name == "teacher_loss")

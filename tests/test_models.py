"""Teacher, student, and unimodal classifiers plus the training loop."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from chainviews.datamodel import (
    MODALITY_U,
    MODALITY_V,
    DatasetSchema,
    EntityPair,
    ViewSpec,
    vector_view,
)
from chainviews.models import (
    ModalityError,
    StudentModel,
    TeacherModel,
    TrainConfig,
    TrainingDivergedError,
    UnimodalModel,
    grad_check,
    load_params,
    save_params,
    train,
)
from chainviews.nn import softmax_xent
from chainviews.rng import derive_rng


def schema(v_kind="vector"):
    return DatasetSchema(
        class_count=3,
        entity_vocab=5,
        u_spec=ViewSpec("vector", 3),
        v_spec=ViewSpec(v_kind, 4),
    )


def rand_entities(rng):
    return EntityPair(subject=int(rng.integers(5)), object=int(rng.integers(5)))


def teacher_sample(rng):
    view = vector_view(rng.normal(size=4), MODALITY_V)
    return ((view, rand_entities(rng)), int(rng.integers(3)))


def student_sample(rng, n_views=4):
    real = vector_view(rng.normal(size=3), MODALITY_U)
    synth = tuple(vector_view(rng.normal(size=4), MODALITY_V) for _ in range(n_views))
    return ((real, synth, rand_entities(rng)), int(rng.integers(3)))


def param_digest(params):
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(params[key].tobytes())
    return h.hexdigest()


# --- gradient checks ---------------------------------------------------------------


def test_teacher_gradients_match_finite_differences():
    for i in range(3):
        rng = derive_rng(i, "teacher-grad")
        model = TeacherModel(derive_rng(i, "teacher-init"), schema())
        assert grad_check(model, [teacher_sample(rng)]) < 1e-4


def test_student_gradients_match_finite_differences():
    for i in range(3):
        rng = derive_rng(i, "student-grad")
        model = StudentModel(derive_rng(i, "student-init"), schema(), shared_attention=bool(i % 2))
        assert grad_check(model, [student_sample(rng)]) < 1e-4


def test_unimodal_gradients_match_finite_differences():
    rng = derive_rng(0, "uni-grad")
    model = UnimodalModel(derive_rng(0, "uni-init"), schema())
    real = vector_view(rng.normal(size=3), MODALITY_U)
    assert grad_check(model, [((real, rand_entities(rng)), 1)]) < 1e-4


def test_gradients_with_discrete_views():
    rng = derive_rng(4, "disc-grad")
    model = TeacherModel(derive_rng(4, "disc-init"), schema(v_kind="discrete"))
    from chainviews.datamodel import discrete_view

    view = discrete_view(list(rng.integers(4, size=6)), MODALITY_V)
    assert grad_check(model, [((view, rand_entities(rng)), 0)]) < 1e-4


# --- forward behavior -----------------------------------------------------------------


def test_teacher_is_deterministic():
    rng = derive_rng(0, "det")
    model = TeacherModel(derive_rng(0, "det-init"), schema())
    (view, entities), _ = teacher_sample(rng)
    a = model.logits([(view, entities)])
    b = model.logits([(view, entities)])
    np.testing.assert_array_equal(a, b)


def test_teacher_rejects_u_side_views():
    model = TeacherModel(derive_rng(0, "rej"), schema())
    wrong = vector_view([0.0, 0.0, 0.0], MODALITY_U)
    with pytest.raises(ModalityError):
        model.logits([(wrong, EntityPair(0, 1))])


def test_zeroed_model_gives_uniform_logits():
    model = TeacherModel(derive_rng(0, "zero"), schema())
    for key in model.params:
        model.params[key][...] = 0.0
    rng = derive_rng(1, "zero-sample")
    (view, entities), label = teacher_sample(rng)
    logits = model.logits([(view, entities)])
    np.testing.assert_allclose(logits, np.zeros((1, 3)), atol=1e-15)
    (loss,), _ = softmax_xent(logits, [label])
    assert abs(loss - math.log(3)) < 1e-12


def test_student_logits_permutation_invariant():
    rng = derive_rng(2, "perm")
    model = StudentModel(derive_rng(2, "perm-init"), schema())
    (real, synth, entities), _ = student_sample(rng, n_views=3)
    base = model.logits([(real, synth, entities)])
    for order in itertools.permutations(range(3)):
        permuted = tuple(synth[i] for i in order)
        got = model.logits([(real, permuted, entities)])
        assert np.max(np.abs(got - base)) < 1e-9


def test_student_duplicated_views_equal_single_view():
    rng = derive_rng(3, "dup")
    model = StudentModel(derive_rng(3, "dup-init"), schema())
    (real, synth, entities), _ = student_sample(rng, n_views=1)
    single = model.logits([(real, synth, entities)])
    repeated = model.logits([(real, synth * 5, entities)])
    np.testing.assert_allclose(repeated, single, atol=1e-12)


def test_student_requires_at_least_one_synthetic_view():
    rng = derive_rng(4, "empty")
    model = StudentModel(derive_rng(4, "empty-init"), schema())
    (real, _, entities), _ = student_sample(rng)
    with pytest.raises(ValueError):
        model.logits([(real, (), entities)])


def test_student_rejects_swapped_modalities():
    rng = derive_rng(5, "swap")
    model = StudentModel(derive_rng(5, "swap-init"), schema())
    (real, synth, entities), _ = student_sample(rng, n_views=2)
    with pytest.raises(ModalityError):
        model.logits([(synth[0], synth, entities)])
    with pytest.raises(ModalityError):
        model.logits([(real, (real,), entities)])


def test_unimodal_consumes_u_side_only():
    model = UnimodalModel(derive_rng(0, "uni"), schema())
    with pytest.raises(ModalityError):
        model.logits([(vector_view([0.0] * 4, MODALITY_V), EntityPair(0, 1))])


def test_shared_attention_flag_changes_parameter_count():
    shared = StudentModel(derive_rng(0, "s"), schema(), shared_attention=True)
    split = StudentModel(derive_rng(0, "s"), schema(), shared_attention=False)
    assert len(split.params) > len(shared.params)


# --- batches ----------------------------------------------------------------------------
#
# Entity ids repeat across the batch (subject 2 three times, also as an
# object), so the embedding gradient must sum rows, not overwrite them.
REPEATED_ENTITIES = (EntityPair(2, 4), EntityPair(2, 2), EntityPair(1, 2))


def teacher_batch(rng):
    return [((vector_view(rng.normal(size=4), MODALITY_V), e), int(rng.integers(3))) for e in REPEATED_ENTITIES]


def student_batch(rng, n_views=4):
    batch = []
    for e in REPEATED_ENTITIES:
        (real, synth, _), label = student_sample(rng, n_views)
        batch.append(((real, synth, e), label))
    return batch


def unimodal_batch(rng):
    return [((vector_view(rng.normal(size=3), MODALITY_U), e), int(rng.integers(3))) for e in REPEATED_ENTITIES]


def batched_cases():
    yield TeacherModel(derive_rng(0, "batch-teacher"), schema()), teacher_batch(derive_rng(0, "batch-t"))
    for shared in (True, False):
        model = StudentModel(derive_rng(0, "batch-student"), schema(), shared_attention=shared)
        yield model, student_batch(derive_rng(0, "batch-s"))
    yield UnimodalModel(derive_rng(0, "batch-uni"), schema()), unimodal_batch(derive_rng(0, "batch-u"))


def test_batched_gradients_match_finite_differences():
    for model, batch in batched_cases():
        assert len(batch) == 3
        assert grad_check(model, batch) < 1e-4


def test_a_batch_equals_its_rows_one_at_a_time():
    # the per-sample path as the reference: logits row by row, gradients as the mean
    for model, batch in batched_cases():
        logits = model.logits([inputs for inputs, _ in batch])
        losses, grads = model.loss_and_grads(batch)
        assert logits.shape == (3, 3) and losses.shape == (3,)
        singles = [model.loss_and_grads([sample]) for sample in batch]
        for b, (inputs, _) in enumerate(batch):
            np.testing.assert_allclose(logits[b], model.logits([inputs])[0], atol=1e-12)
            assert abs(losses[b] - singles[b][0][0]) < 1e-12
        assert sorted(grads) == sorted(model.params)
        for key in grads:
            mean = sum(g[key] for _, g in singles) / len(batch)
            np.testing.assert_allclose(grads[key], mean, atol=1e-12)


def test_student_rejects_ragged_sets():
    rng = derive_rng(6, "ragged")
    model = StudentModel(derive_rng(6, "ragged-init"), schema())
    with pytest.raises(ValueError, match="same number of synthetic views"):
        model.logits([student_sample(rng, 3)[0], student_sample(rng, 4)[0]])
    with pytest.raises(ValueError, match="same number of synthetic views"):
        model.loss_and_grads([student_sample(rng, 2), student_sample(rng, 1)])


def test_empty_batch_rejected():
    model = TeacherModel(derive_rng(0, "empty-batch"), schema())
    with pytest.raises(ValueError, match="at least one sample"):
        model.logits([])


# --- training ------------------------------------------------------------------------


class TinyLinearModel:
    """Minimal duck-typed model: logits = W x + b over 2 classes, one row per input."""

    def __init__(self, rng, dim):
        self.params = {
            "w": rng.normal(0.0, 0.1, size=(2, dim)),
            "b": np.zeros(2),
        }

    def logits(self, inputs):
        return np.stack(inputs) @ self.params["w"].T + self.params["b"]

    def loss_and_grads(self, batch):
        x = np.stack([inputs for inputs, _ in batch])
        losses, dlogits = softmax_xent(self.logits(x), [label for _, label in batch])
        dlogits /= len(batch)
        return losses, {"w": dlogits.T @ x, "b": dlogits.sum(axis=0)}


def separable_toy(n=40, seed=0):
    rng = derive_rng(seed, "toy")
    xs = np.vstack([rng.normal(size=(n // 2, 2)) + [3.0, 0.0], rng.normal(size=(n // 2, 2)) - [3.0, 0.0]])
    ys = np.array([0] * (n // 2) + [1] * (n // 2))
    return [(xs[i], int(ys[i])) for i in range(n)]


def test_training_solves_a_separable_linear_toy():
    samples = separable_toy()
    model = TinyLinearModel(derive_rng(0, "toy-init"), 2)
    config = TrainConfig(learning_rate=0.1, steps=120, batch_size=10)
    model, losses = train(model, samples, config)
    predictions = list(np.argmax(model.logits([x for x, _ in samples]), axis=1))
    assert predictions == [y for _, y in samples]
    assert losses.shape == (len(samples),)


def test_zero_learning_rate_is_a_null_update():
    samples = separable_toy(20, seed=1)
    model = TinyLinearModel(derive_rng(1, "null-init"), 2)
    before = {k: v.copy() for k, v in model.params.items()}
    initial_losses = model.loss_and_grads(samples)[0]
    config = TrainConfig(learning_rate=0.0, steps=50, batch_size=8)
    model, losses = train(model, samples, config)
    for key in before:
        np.testing.assert_array_equal(model.params[key], before[key])
    np.testing.assert_allclose(losses, initial_losses, atol=1e-15)


def test_training_is_bit_deterministic():
    def run():
        model = TeacherModel(derive_rng(7, "det-init"), schema())
        rng = derive_rng(7, "det-data")
        samples = [teacher_sample(rng) for _ in range(12)]
        config = TrainConfig(learning_rate=0.05, steps=25, batch_size=6, seed=7)
        model, losses = train(model, samples, config, rng_stream=("teacher-train", 0))
        return param_digest(model.params), losses

    digest_a, losses_a = run()
    digest_b, losses_b = run()
    assert digest_a == digest_b
    np.testing.assert_array_equal(losses_a, losses_b)


def test_returned_losses_are_frozen_final_pass():
    model = TeacherModel(derive_rng(8, "frozen-init"), schema())
    rng = derive_rng(8, "frozen-data")
    samples = [teacher_sample(rng) for _ in range(10)]
    config = TrainConfig(learning_rate=0.05, steps=20, batch_size=4)
    model, losses = train(model, samples, config)
    recomputed, _ = softmax_xent(
        model.logits([inputs for inputs, _ in samples]), [label for _, label in samples]
    )
    np.testing.assert_array_equal(losses, recomputed)


def test_training_reduces_mean_loss():
    model = TeacherModel(derive_rng(9, "learn-init"), schema())
    rng = derive_rng(9, "learn-data")
    # learnable signal: the label is encoded in the view mean
    samples = []
    for _ in range(30):
        label = int(rng.integers(3))
        view = vector_view(rng.normal(size=4) + 2.0 * label, MODALITY_V)
        samples.append(((view, rand_entities(rng)), label))
    initial = float(np.mean(model.loss_and_grads(samples)[0]))
    _, losses = train(model, samples, TrainConfig(learning_rate=0.05, steps=80, batch_size=10))
    assert float(losses.mean()) < initial


def test_empty_sample_list_rejected():
    model = TinyLinearModel(derive_rng(0, "e"), 2)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig())


def test_nan_loss_aborts_with_step_number():
    class PoisonModel:
        def __init__(self):
            self.params = {"w": np.zeros(1)}

        def logits(self, inputs):
            return np.zeros((len(inputs), 2))

        def loss_and_grads(self, batch):
            return np.full(len(batch), np.nan), {"w": np.zeros(1)}

    with pytest.raises(TrainingDivergedError) as err:
        train(PoisonModel(), [(0, 0)], TrainConfig(steps=3))
    assert "step 0" in str(err.value)


def test_cosine_decay_changes_the_trajectory():
    samples = separable_toy(20, seed=2)

    def run(cosine):
        model = TinyLinearModel(derive_rng(2, "cos-init"), 2)
        config = TrainConfig(learning_rate=0.1, steps=30, batch_size=5, cosine_decay=cosine)
        model, _ = train(model, samples, config)
        return param_digest(model.params)

    assert run(False) != run(True)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# --- checkpoints -----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = TeacherModel(derive_rng(0, "ckpt"), schema())
    path = tmp_path / "teacher.npz"
    save_params(model.params, path)
    loaded = load_params(path)
    assert sorted(loaded) == sorted(model.params)
    for key in loaded:
        np.testing.assert_array_equal(loaded[key], model.params[key])


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, __version__=np.array(99), w=np.zeros(2))
    with pytest.raises(ValueError, match="version"):
        load_params(path)

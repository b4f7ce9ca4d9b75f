"""Teacher, student, and unimodal classifiers plus the training loop."""

import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainviews.channels import stack_views
from chainviews.datamodel import (
    MODALITY_U,
    MODALITY_V,
    DatasetSchema,
    ViewBatch,
    ViewSpec,
    vector_view,
)
from chainviews.models import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamW,
    ModalityError,
    StudentModel,
    TeacherModel,
    TrainConfig,
    TrainingDivergedError,
    UnimodalModel,
    grad_check,
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
    """A (subject, object) pair of entity ids."""
    return int(rng.integers(5)), int(rng.integers(5))


def teacher_sample(rng):
    view = vector_view(rng.normal(size=4), MODALITY_V)
    return ((view, rand_entities(rng)), int(rng.integers(3)))


def student_sample(rng, n_views=4):
    real = vector_view(rng.normal(size=3), MODALITY_U)
    synth = tuple(vector_view(rng.normal(size=4), MODALITY_V) for _ in range(n_views))
    return ((real, synth, rand_entities(rng)), int(rng.integers(3)))


def views_of(views):
    return stack_views(views) if views else ViewBatch("vector", MODALITY_V, np.empty((0, 4)))


def as_inputs(model, samples):
    """The model's input arrays and the labels of ``((views..., entities), label)`` samples."""
    parts, labels = zip(*samples)
    *views, entities = zip(*parts)
    subj, obj = [e[0] for e in entities], [e[1] for e in entities]
    if isinstance(model, StudentModel):
        return model.inputs(stack_views(views[0]), views_of([v for s in views[1] for v in s]), subj, obj), list(labels)
    return model.inputs(stack_views(views[0]), subj, obj), list(labels)


def param_digest(params):
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(params[key].tobytes())
    return h.hexdigest()


# --- shapes ------------------------------------------------------------------------

# every key and shape at the default width 16, in parameter order (the order
# AdamW lays the flat buffer out in), for 3 classes, 5 entities, u width 3
# and v width 4: hidden layers 16; embedding, encodings, queries and keys 8;
# fusion and feed-forward outputs 12
DEFAULT_SHAPES = {
    TeacherModel: [
        ("entity_emb", (5, 8)), ("venc.l1.w", (16, 4)), ("venc.l1.b", (16,)), ("venc.l2.w", (8, 16)), ("venc.l2.b", (8,)),
        ("fuse.l1.w", (16, 24)), ("fuse.l1.b", (16,)), ("fuse.l2.w", (12, 16)), ("fuse.l2.b", (12,)),
        ("head.w", (3, 12)), ("head.b", (3,)),
    ],
    StudentModel: [
        ("entity_emb", (5, 8)), ("uenc.l1.w", (16, 3)), ("uenc.l1.b", (16,)), ("uenc.l2.w", (8, 16)), ("uenc.l2.b", (8,)),
        ("venc.l1.w", (16, 4)), ("venc.l1.b", (16,)), ("venc.l2.w", (8, 16)), ("venc.l2.b", (8,)),
        ("qsub.w", (8, 16)), ("qsub.b", (8,)), ("qobj.w", (8, 16)), ("qobj.b", (8,)),
        ("attn.wq", (8, 8)), ("attn.wk", (8, 8)), ("attn.wv", (8, 8)),
        ("ff.l1.w", (16, 16)), ("ff.l1.b", (16,)), ("ff.l2.w", (12, 16)), ("ff.l2.b", (12,)),
        ("head.w", (3, 12)), ("head.b", (3,)),
    ],
    UnimodalModel: [
        ("entity_emb", (5, 8)), ("uenc.l1.w", (16, 3)), ("uenc.l1.b", (16,)), ("uenc.l2.w", (8, 16)), ("uenc.l2.b", (8,)),
        ("head.w", (3, 24)), ("head.b", (3,)),
    ],
}


@pytest.mark.parametrize("cls", list(DEFAULT_SHAPES), ids=lambda cls: cls.__name__)
def test_every_parameter_shape_at_the_default_width(cls):
    model = cls(derive_rng(0, "shapes"), schema())
    assert [(key, w.shape) for key, w in model.params.items()] == DEFAULT_SHAPES[cls]


@pytest.mark.parametrize("cls", [TeacherModel, StudentModel], ids=lambda cls: cls.__name__)
def test_width_must_be_an_integer_of_at_least_2(cls):
    cls(derive_rng(0, "narrowest"), schema(), 2)
    for width in (1, 2.5, True):
        with pytest.raises(ValueError, match=f"^width must be an integer of at least 2, got {width!r}$"):
            cls(derive_rng(0, "bad-width"), schema(), width)


# --- gradient checks ---------------------------------------------------------------


def test_teacher_gradients_match_finite_differences():
    for i in range(3):
        rng = derive_rng(i, "teacher-grad")
        model = TeacherModel(derive_rng(i, "teacher-init"), schema())
        assert grad_check(model, *as_inputs(model, [teacher_sample(rng)])) < 1e-4


def test_student_gradients_match_finite_differences():
    for i in range(3):
        rng = derive_rng(i, "student-grad")
        model = StudentModel(derive_rng(i, "student-init"), schema())
        assert grad_check(model, *as_inputs(model, [student_sample(rng)])) < 1e-4


def test_unimodal_gradients_match_finite_differences():
    rng = derive_rng(0, "uni-grad")
    model = UnimodalModel(derive_rng(0, "uni-init"), schema())
    real = vector_view(rng.normal(size=3), MODALITY_U)
    assert grad_check(model, *as_inputs(model, [((real, rand_entities(rng)), 1)])) < 1e-4


def test_gradients_with_discrete_views():
    rng = derive_rng(4, "disc-grad")
    model = TeacherModel(derive_rng(4, "disc-init"), schema(v_kind="discrete"))
    from chainviews.datamodel import discrete_view

    view = discrete_view(list(rng.integers(4, size=6)), MODALITY_V)
    assert grad_check(model, *as_inputs(model, [((view, rand_entities(rng)), 0)])) < 1e-4


# --- forward behavior -----------------------------------------------------------------


def test_teacher_is_deterministic():
    rng = derive_rng(0, "det")
    model = TeacherModel(derive_rng(0, "det-init"), schema())
    inputs, _ = as_inputs(model, [teacher_sample(rng)])
    a = model.logits(inputs)
    b = model.logits(inputs)
    np.testing.assert_array_equal(a, b)


def test_teacher_rejects_u_side_views():
    model = TeacherModel(derive_rng(0, "rej"), schema())
    wrong = vector_view([0.0, 0.0, 0.0], MODALITY_U)
    with pytest.raises(ModalityError):
        model.logits(as_inputs(model, [((wrong, (0, 1)), 0)])[0])


def test_zeroed_model_gives_uniform_logits():
    model = TeacherModel(derive_rng(0, "zero"), schema())
    for key in model.params:
        model.params[key][...] = 0.0
    rng = derive_rng(1, "zero-sample")
    inputs, (label,) = as_inputs(model, [teacher_sample(rng)])
    logits = model.logits(inputs)
    np.testing.assert_allclose(logits, np.zeros((1, 3)), atol=1e-15)
    (loss,), _ = softmax_xent(logits, [label])
    assert abs(loss - math.log(3)) < 1e-12


def test_student_logits_permutation_invariant():
    rng = derive_rng(2, "perm")
    model = StudentModel(derive_rng(2, "perm-init"), schema())
    (real, synth, entities), _ = student_sample(rng, n_views=3)
    base = model.logits(as_inputs(model, [((real, synth, entities), 0)])[0])
    for order in itertools.permutations(range(3)):
        permuted = tuple(synth[i] for i in order)
        got = model.logits(as_inputs(model, [((real, permuted, entities), 0)])[0])
        assert np.max(np.abs(got - base)) < 1e-9


def test_student_duplicated_views_equal_single_view():
    rng = derive_rng(3, "dup")
    model = StudentModel(derive_rng(3, "dup-init"), schema())
    (real, synth, entities), _ = student_sample(rng, n_views=1)
    single = model.logits(as_inputs(model, [((real, synth, entities), 0)])[0])
    repeated = model.logits(as_inputs(model, [((real, synth * 5, entities), 0)])[0])
    np.testing.assert_allclose(repeated, single, atol=1e-12)


def test_student_requires_at_least_one_synthetic_view():
    rng = derive_rng(4, "empty")
    model = StudentModel(derive_rng(4, "empty-init"), schema())
    (real, _, entities), _ = student_sample(rng)
    with pytest.raises(ValueError):
        model.logits(as_inputs(model, [((real, (), entities), 0)])[0])


def test_student_rejects_swapped_modalities():
    rng = derive_rng(5, "swap")
    model = StudentModel(derive_rng(5, "swap-init"), schema())
    (real, synth, entities), _ = student_sample(rng, n_views=2)
    with pytest.raises(ModalityError):
        model.logits(as_inputs(model, [((synth[0], synth, entities), 0)])[0])
    with pytest.raises(ModalityError):
        model.logits(as_inputs(model, [((real, (real,), entities), 0)])[0])


def test_unimodal_consumes_u_side_only():
    model = UnimodalModel(derive_rng(0, "uni"), schema())
    with pytest.raises(ModalityError):
        model.logits(as_inputs(model, [((vector_view([0.0] * 4, MODALITY_V), (0, 1)), 0)])[0])


# --- batches ----------------------------------------------------------------------------
#
# Entity ids repeat across the batch (subject 2 three times, also as an
# object), so the embedding gradient must sum rows, not overwrite them.
REPEATED_ENTITIES = ((2, 4), (2, 2), (1, 2))


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
    yield StudentModel(derive_rng(0, "batch-student"), schema()), student_batch(derive_rng(0, "batch-s"))
    yield UnimodalModel(derive_rng(0, "batch-uni"), schema()), unimodal_batch(derive_rng(0, "batch-u"))


def test_batched_gradients_match_finite_differences():
    for model, batch in batched_cases():
        assert len(batch) == 3
        assert grad_check(model, *as_inputs(model, batch)) < 1e-4


def test_a_batch_equals_its_rows_one_at_a_time():
    # the per-sample path as the reference: logits row by row, gradients as the mean
    for model, batch in batched_cases():
        logits = model.logits(as_inputs(model, batch)[0])
        losses, grads = model.loss_and_grads(*as_inputs(model, batch))
        assert logits.shape == (3, 3) and losses.shape == (3,)
        singles = [model.loss_and_grads(*as_inputs(model, [sample])) for sample in batch]
        for b, sample in enumerate(batch):
            np.testing.assert_allclose(logits[b], model.logits(as_inputs(model, [sample])[0])[0], atol=1e-12)
            assert abs(losses[b] - singles[b][0][0]) < 1e-12
        assert sorted(grads) == sorted(model.params)
        for key in grads:
            mean = sum(g[key] for _, g in singles) / len(batch)
            np.testing.assert_allclose(grads[key], mean, atol=1e-12)


def test_student_needs_a_whole_number_of_synthetic_views_per_real_view():
    # one flat batch cannot be ragged, but its length may not divide among the real views
    rng = derive_rng(6, "ragged")
    model = StudentModel(derive_rng(6, "ragged-init"), schema())
    real = ViewBatch("vector", MODALITY_U, rng.normal(size=(2, 3)))
    for n in (0, 1, 3, 5):
        synth = ViewBatch("vector", MODALITY_V, rng.normal(size=(n, 4)))
        message = f"the student needs the same positive number of synthetic views per real view, got {n} synthetic views for 2 real views"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model.inputs(real, synth, [0, 1], [1, 0])
    assert model.inputs(real, ViewBatch("vector", MODALITY_V, rng.normal(size=(6, 4))), [0, 1], [1, 0])[1].shape == (2, 3, 4)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(("teacher", "student", "unimodal")),
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 6),
    n_views=st.integers(1, 4),
    v_kind=st.sampled_from(("vector", "discrete")),
)
def test_batched_logits_match_row_by_row_and_training_repeats(kind, seed, n_rows, n_views, v_kind):
    rng = derive_rng(seed, "prop-data")
    sch = schema(v_kind)
    real = ViewBatch("vector", MODALITY_U, rng.normal(size=(n_rows, 3)))
    v_data = rng.normal(size=(n_rows * n_views, 4)) if v_kind == "vector" else rng.integers(4, size=(n_rows * n_views, 5))
    synth = ViewBatch(v_kind, MODALITY_V, v_data)
    subj, obj, labels = rng.integers(5, size=n_rows), rng.integers(5, size=n_rows), rng.integers(3, size=n_rows)

    def fresh():
        init = derive_rng(seed, "prop-init")
        if kind == "teacher":
            model = TeacherModel(init, sch)
            return model, model.inputs(synth.take(np.arange(n_rows)), subj, obj)
        if kind == "student":
            model = StudentModel(init, sch)
            return model, model.inputs(real, synth, subj, obj)
        model = UnimodalModel(init, sch)
        return model, model.inputs(real, subj, obj)

    model, inputs = fresh()
    logits = model.logits(inputs)
    assert logits.shape == (n_rows, 3)
    for b in range(n_rows):
        (single,) = model.logits(tuple(a[b : b + 1] for a in inputs))
        assert np.max(np.abs(single - logits[b])) <= 1e-12 * np.max(np.abs(logits[b]))

    def fit():
        model, inputs = fresh()
        config = TrainConfig(learning_rate=0.05, steps=4, batch_size=2)
        model, losses = train(model, inputs, labels, config, seed)
        return param_digest(model.params), losses.tobytes()

    assert fit() == fit()


def test_empty_batch_rejected():
    model = TeacherModel(derive_rng(0, "empty-batch"), schema())
    with pytest.raises(ValueError, match="at least one sample"):
        model.logits(model.inputs(ViewBatch("vector", MODALITY_V, np.empty((0, 4))), [], []))


# --- training ------------------------------------------------------------------------


class TinyLinearModel:
    """Minimal duck-typed model: logits = W x + b over 2 classes, one row per input."""

    def __init__(self, rng, dim):
        self.params = {
            "w": rng.normal(0.0, 0.1, size=(2, dim)),
            "b": np.zeros(2),
        }

    def logits(self, inputs):
        (x,) = inputs
        return x @ self.params["w"].T + self.params["b"]

    def loss_and_grads(self, inputs, labels, grads=None):
        # writes into ``grads`` (the optimizer's buffer under train), as the models do
        (x,) = inputs
        losses, dlogits = softmax_xent(self.logits(inputs), labels)
        dlogits /= len(labels)
        grads = {key: np.empty_like(w) for key, w in self.params.items()} if grads is None else grads
        grads["w"][...], grads["b"][...] = dlogits.T @ x, dlogits.sum(axis=0)
        return losses, grads


def separable_toy(n=40, seed=0):
    """``((xs,), ys)``: the toy model's inputs and labels."""
    rng = derive_rng(seed, "toy")
    xs = np.vstack([rng.normal(size=(n // 2, 2)) + [3.0, 0.0], rng.normal(size=(n // 2, 2)) - [3.0, 0.0]])
    ys = np.array([0] * (n // 2) + [1] * (n // 2))
    return (xs,), ys


def test_training_solves_a_separable_linear_toy():
    inputs, labels = separable_toy()
    model = TinyLinearModel(derive_rng(0, "toy-init"), 2)
    config = TrainConfig(learning_rate=0.1, steps=120, batch_size=10)
    model, losses = train(model, inputs, labels, config, 0)
    predictions = list(np.argmax(model.logits(inputs), axis=1))
    assert predictions == list(labels)
    assert losses.shape == (len(labels),)


def test_zero_learning_rate_is_a_null_update():
    inputs, labels = separable_toy(20, seed=1)
    model = TinyLinearModel(derive_rng(1, "null-init"), 2)
    before = {k: v.copy() for k, v in model.params.items()}
    initial_losses = model.loss_and_grads(inputs, labels)[0]
    config = TrainConfig(learning_rate=0.0, steps=50, batch_size=8)
    model, losses = train(model, inputs, labels, config, 0)
    for key in before:
        np.testing.assert_array_equal(model.params[key], before[key])
    np.testing.assert_allclose(losses, initial_losses, atol=1e-15)


def test_training_is_bit_deterministic():
    def run():
        model = TeacherModel(derive_rng(7, "det-init"), schema())
        rng = derive_rng(7, "det-data")
        samples = [teacher_sample(rng) for _ in range(12)]
        config = TrainConfig(learning_rate=0.05, steps=25, batch_size=6)
        model, losses = train(model, *as_inputs(model, samples), config, 7, rng_stream=("teacher-train", 0))
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
    model, losses = train(model, *as_inputs(model, samples), config, 0)
    recomputed, _ = softmax_xent(model.logits(as_inputs(model, samples)[0]), [label for _, label in samples])
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
    initial = float(np.mean(model.loss_and_grads(*as_inputs(model, samples))[0]))
    _, losses = train(model, *as_inputs(model, samples), TrainConfig(learning_rate=0.05, steps=80, batch_size=10), 0)
    assert float(losses.mean()) < initial


def reference_train(model, inputs, labels, config, seed, rng_stream):
    """The training loop written out: each step gathers its batch rows by
    index, gets fresh gradients and updates every key on its own."""
    labels = np.asarray(labels)
    rng = derive_rng(seed, *rng_stream)
    m = {key: np.zeros_like(w) for key, w in model.params.items()}
    v = {key: np.zeros_like(w) for key, w in model.params.items()}
    order, cursor = rng.permutation(len(labels)), 0
    for t in range(1, config.steps + 1):
        if cursor >= len(labels):
            order, cursor = rng.permutation(len(labels)), 0
        batch = order[cursor : cursor + config.batch_size]
        cursor += config.batch_size
        _, grads = model.loss_and_grads(tuple(a[batch] for a in inputs), labels[batch])
        for key, w in model.params.items():
            g = grads[key]
            m[key] = ADAM_BETA1 * m[key] + (1 - ADAM_BETA1) * g
            v[key] = ADAM_BETA2 * v[key] + (1 - ADAM_BETA2) * g * g
            m_hat = m[key] / (1 - ADAM_BETA1**t)
            v_hat = v[key] / (1 - ADAM_BETA2**t)
            w -= config.learning_rate * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    losses, _ = softmax_xent(model.logits(inputs), labels)
    return losses


def training_cases():
    # 10 rows in batches of 4: epochs of 4 + 4 + 2 rows, and 8 steps end
    # partway through the third epoch
    rng = derive_rng(12, "pin-data")
    n = 10
    subj, obj, labels = rng.integers(5, size=n), rng.integers(5, size=n), rng.integers(3, size=n)
    real = ViewBatch("vector", MODALITY_U, rng.normal(size=(n, 3)))
    synth = ViewBatch("vector", MODALITY_V, rng.normal(size=(n * 2, 4)))
    for name, build, make_inputs in (
        ("teacher", TeacherModel, lambda model: model.inputs(synth.take(np.arange(n)), subj, obj)),
        ("student", StudentModel, lambda model: model.inputs(real, synth, subj, obj)),
        ("unimodal", UnimodalModel, lambda model: model.inputs(real, subj, obj)),
    ):
        yield name, (lambda build=build: build(derive_rng(12, "pin-init"), schema())), make_inputs, labels


@pytest.mark.parametrize("case", list(training_cases()), ids=lambda case: case[0])
def test_train_matches_the_written_out_loop_bit_for_bit(case):
    _, fresh, make_inputs, labels = case
    config = TrainConfig(learning_rate=0.05, steps=8, batch_size=4)
    stream = ("pin-train",)
    model = fresh()
    trained, losses = train(model, make_inputs(model), labels, config, 12, rng_stream=stream)
    reference = fresh()
    expected = reference_train(reference, make_inputs(reference), labels, config, 12, stream)
    assert losses.tobytes() == expected.tobytes()
    assert trained.params.keys() == reference.params.keys()
    for key in reference.params:
        assert trained.params[key].tobytes() == reference.params[key].tobytes(), key


def test_train_rejects_labels_that_are_not_integers():
    # checked once, before any step: a float or a bool is refused, not truncated
    class Recorder(TinyLinearModel):
        calls = 0

        def loss_and_grads(self, inputs, labels, grads=None):
            Recorder.calls += 1
            return super().loss_and_grads(inputs, labels, grads)

    inputs = (derive_rng(0, "labels").normal(size=(4, 2)),)
    cases = (([0.2, 1.9, 2.5, True], "0.2 at row 0"), ([0, 1, 1, True], "True at row 3"), (np.ones(4), "1.0 at row 0"))
    for labels, named in cases:
        with pytest.raises(ValueError, match=f"label {named} is not an integer"):
            train(Recorder(derive_rng(0, "labels-init"), 2), inputs, labels, TrainConfig(steps=2), 0)
    assert Recorder.calls == 0


def test_grad_check_rejects_labels_that_are_not_integers():
    rng = derive_rng(0, "grad-labels")
    model = TeacherModel(derive_rng(0, "grad-labels-init"), schema())
    inputs, _ = as_inputs(model, [teacher_sample(rng)])
    for labels in ([0.9], [True], np.array([2.0])):
        with pytest.raises(ValueError, match="is not an integer class index"):
            grad_check(model, inputs, labels)


def test_inputs_reject_entity_ids_that_are_not_integers():
    # a float or a bool is no entity index: it is refused, not truncated
    model = TeacherModel(derive_rng(0, "ids-init"), schema())
    views = ViewBatch("vector", MODALITY_V, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="entity id 0.7 at row 0 is not an integer entity index"):
        model.inputs(views, [0.7, True], [4.9, 2])
    with pytest.raises(ValueError, match="entity id 4.9 at row 0 is not an integer"):
        model.inputs(views, [0, 1], [4.9, 2])
    for scalar in (True, 0.7):
        with pytest.raises(ValueError, match=f"entity id {scalar} at row 0 is not an integer"):
            model.inputs(views, scalar, 2)
    _, subj, obj = model.inputs(views, 3, np.array([4, 2]))  # one id stands for every row
    assert subj.tolist() == [3, 3] and obj.tolist() == [4, 2]


def inputs_with_ids(kind, subj, obj):
    """``inputs`` of a fresh ``kind`` model on two rows with these entity ids."""
    u = ViewBatch("vector", MODALITY_U, np.zeros((2, 3)))
    v = ViewBatch("vector", MODALITY_V, np.zeros((2, 4)))
    if kind == "teacher":
        return TeacherModel(derive_rng(0, "ids-init"), schema()).inputs(v, subj, obj)
    if kind == "student":
        return StudentModel(derive_rng(0, "ids-init"), schema()).inputs(u, v, subj, obj)
    return UnimodalModel(derive_rng(0, "ids-init"), schema()).inputs(u, subj, obj)


@pytest.mark.parametrize("kind", ["teacher", "student", "unimodal"])
@pytest.mark.parametrize(
    "subj, obj, message",
    [
        ([-1, 4], [0, 0], r"entity id -1 at row 0 is outside the vocabulary \[0, 5\)"),
        ([0, 5], [0, 0], r"entity id 5 at row 1 is outside the vocabulary \[0, 5\)"),
        ([0, 0], [2, -3], r"entity id -3 at row 1 is outside"),
        (1, 7, r"entity id 7 at row 0 is outside"),
    ],
    ids=["negative_subject", "subject_at_vocab", "negative_object", "scalar_object"],
)
def test_inputs_refuse_entity_ids_outside_the_vocabulary(kind, subj, obj, message):
    # a negative id would wrap to the end of the embedding table, and one at
    # the vocabulary size would fail later with a bare IndexError
    with pytest.raises(ValueError, match=message):
        inputs_with_ids(kind, subj, obj)
    *_, subj_rows, obj_rows = inputs_with_ids(kind, [0, 4], 4)
    assert subj_rows.tolist() == [0, 4] and obj_rows.tolist() == [4, 4]


def test_empty_sample_list_rejected():
    model = TinyLinearModel(derive_rng(0, "e"), 2)
    with pytest.raises(ValueError):
        train(model, (np.empty((0, 2)),), [], TrainConfig(), 0)


def test_nan_loss_aborts_with_step_number():
    class PoisonModel:
        def __init__(self):
            self.params = {"w": np.zeros(1)}

        def logits(self, inputs):
            return np.zeros((len(inputs[0]), 2))

        def loss_and_grads(self, inputs, labels, grads=None):
            return np.full(len(labels), np.nan), {"w": np.zeros(1)}

    with pytest.raises(TrainingDivergedError) as err:
        train(PoisonModel(), (np.zeros((1, 1)),), [0], TrainConfig(steps=3), 0)
    assert "step 0" in str(err.value)


@pytest.mark.parametrize(
    "rng_stream, phase",
    [(("teacher-train", 0), "teacher, selection 0"), (("student-train",), "student"), (("unimodal-train",), "unimodal")],
)
def test_divergence_names_the_phase_without_numpy_warnings(rng_stream, phase):
    inputs, labels = separable_toy(20, seed=2)
    model = TinyLinearModel(derive_rng(2, "diverge-init"), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, inputs, labels, TrainConfig(learning_rate=1e308, steps=5, batch_size=5), 0, rng_stream=rng_stream)
    assert err.value.phase == phase
    assert str(err.value).startswith(f"{phase} training: ")


def test_divergence_in_the_last_step_is_caught():
    # the last update is never followed by a checked step; the final frozen
    # pass must not hand back non-finite losses
    inputs, labels = separable_toy(20, seed=2)
    model = TinyLinearModel(derive_rng(2, "diverge-init"), 2)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, inputs, labels, TrainConfig(learning_rate=1e308, steps=1, batch_size=5), 0)
    assert err.value.step == 1


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # integer fields take integers only; the learning rate takes a finite number
    for field, bad in (("steps", 2.5), ("steps", "3"), ("batch_size", True)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: bad})
    with pytest.raises(TypeError, match="seed"):  # the run's seed is train's argument
        TrainConfig(seed=0)
    for bad in ("fast", float("nan"), float("inf"), False, 10**400):  # 10**400 is too large for a float
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)


def test_flat_adamw_matches_a_per_key_update():
    rng = derive_rng(3, "adamw")
    params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "idle": rng.normal(size=(2, 2))}
    reference = {key: w.copy() for key, w in params.items()}
    optimizer = AdamW(params)
    m = {key: np.zeros_like(w) for key, w in reference.items()}
    v = {key: np.zeros_like(w) for key, w in reference.items()}
    for t in range(1, 7):
        grads = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}  # "idle" has no gradient
        for key, view in optimizer.grads.items():
            view[...] = grads.get(key, 0.0)
        lr = 0.05 / t
        optimizer.step(lr)
        for key, w in reference.items():
            g = grads.get(key, np.zeros_like(w))
            m[key] = ADAM_BETA1 * m[key] + (1 - ADAM_BETA1) * g
            v[key] = ADAM_BETA2 * v[key] + (1 - ADAM_BETA2) * g * g
            m_hat = m[key] / (1 - ADAM_BETA1**t)
            v_hat = v[key] / (1 - ADAM_BETA2**t)
            w -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        for key in reference:
            assert params[key].shape == reference[key].shape
            assert params[key].tobytes() == reference[key].tobytes()
    assert all(np.shares_memory(w, optimizer.flat) for w in params.values())

    # after training the model's params are views into the optimizer's
    # buffer; the finite-difference check perturbs them in place, so a
    # perturbation that missed the model would read as a zero gradient
    model = TeacherModel(derive_rng(3, "adamw-init"), schema())
    samples = [teacher_sample(derive_rng(3, "adamw-data", i)) for i in range(6)]
    train(model, *as_inputs(model, samples), TrainConfig(learning_rate=0.05, steps=5, batch_size=3), 0)
    assert len({id(w.base) for w in model.params.values()}) == 1
    assert grad_check(model, *as_inputs(model, samples[:2])) < 1e-4


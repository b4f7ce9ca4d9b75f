"""Shared builders for the test suite.

Everything here is deliberately tiny: three classes in two dimensions with
near-identity channels, so full pipeline runs finish in well under a second
while still exercising every phase.
"""

import base64

import numpy as np
import pytest

# test_acceptance appends one verdict line per criterion; replaying them in
# the terminal summary keeps them visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)

from chainviews.channels import BenchmarkWorld, LinearGaussianChannel, generate_benchmark
from chainviews.datamodel import (
    MODALITY_U,
    MODALITY_V,
    STEP_U_TO_V,
    STEP_V_TO_U,
    DatasetSchema,
    Instance,
    Pool,
    ViewBatch,
    ViewSpec,
    vector_view,
)
from chainviews.models import TrainConfig
from chainviews.pipeline import PipelineConfig


def tiny_world(seed=0, sigma=0.6, noise=0.3):
    means = 2.5 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    world = BenchmarkWorld(
        class_means=means,
        within_class_sigma=sigma,
        entity_vocab=6,
        entity_pairs_by_class=(((0, 1),), ((2, 3),), ((4, 5),)),
        seed=seed,
    )
    eye, zero = np.eye(2), np.zeros(2)
    g_uv = LinearGaussianChannel(eye, zero, noise, MODALITY_U, MODALITY_V)
    g_vu = LinearGaussianChannel(eye, zero, noise, MODALITY_V, MODALITY_U)
    return world, g_uv, g_vu, ViewSpec("vector", 2)


def tiny_config(**overrides):
    base = dict(
        ccg_rounds=2,
        initial_views=5,
        spawn_per_kept=(2, 1),
        keep_fraction=0.6,
        train_views=3,
        infer_views=3,
        teacher=TrainConfig(learning_rate=0.05, steps=30, batch_size=8),
        student=TrainConfig(learning_rate=0.02, steps=40, batch_size=8),
        seed=7,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def tiny_benchmark(seed=0, n_train=4, n_test=6):
    world, g_uv, g_vu, v_spec = tiny_world(seed)
    train, schema = generate_benchmark(world, n_train, v_spec, stream="train")
    test, _ = generate_benchmark(world, n_test, v_spec, stream="test")
    return train, test, schema, g_uv, g_vu


def make_pool(rows):
    """A pool of vector views from ``(round, step, parent_id, data)`` rows,
    each optionally followed by a teacher loss (NaN: unscored) and a
    survival count."""
    rows = [tuple(row) + (float("nan"), 0)[len(row) - 4 :] for row in rows]

    def side(step, modality):
        data = [row[3] for row in rows if row[1] == step]
        return ViewBatch("vector", modality, data) if data else None

    return Pool(
        round=[row[0] for row in rows],
        step=[row[1] for row in rows],
        parent_id=[row[2] for row in rows],
        teacher_loss=[row[4] for row in rows],
        survived=[row[5] for row in rows],
        v=side(STEP_U_TO_V, MODALITY_V),
        u=side(STEP_V_TO_U, MODALITY_U),
    )


def recolumn(pool_record, key, edit):
    """Re-encode column ``key`` of a dataset line's ``pool`` record, decoded
    by hand as the format describes: ``edit`` takes its values as a list and
    returns the new ones."""
    wire = "<f8" if key == "teacher_loss" else "<i8"
    values = edit(np.frombuffer(base64.b64decode(pool_record[key]), wire).tolist())
    pool_record[key] = base64.b64encode(np.array(values, dtype=wire).tobytes()).decode("ascii")


def scored_pool(losses, round=0):
    """A pool of v-side views whose teacher losses are the given values."""
    return make_pool([(round, STEP_U_TO_V, -1, [float(i), 0.0], loss) for i, loss in enumerate(losses)])


@pytest.fixture
def small_schema():
    return DatasetSchema(
        class_count=3,
        entity_vocab=6,
        u_spec=ViewSpec("vector", 2),
        v_spec=ViewSpec("vector", 2),
    )


@pytest.fixture
def small_instance(small_schema):
    return Instance(id=0, label=1, subject=2, object=3, real_view=vector_view([0.5, -1.0], MODALITY_U))

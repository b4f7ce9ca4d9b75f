"""The benchmark's traced runs wrap every layer boundary of the library.

``benchmarks/tracing.py`` replaces each function listed in its
``BOUNDARIES`` table wherever the library binds it. A binding the table does
not list -- say a new ``from .channels import sample_channel`` in another
module -- would otherwise fail only in a traced benchmark run.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tiny_benchmark, tiny_config

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_boundary_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")]))
    code = "import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("model", ["TeacherModel", "StudentModel", "UnimodalModel"])
def test_every_training_step_goes_through_the_traced_loss_and_grads(model):
    # train must reach the model through its loss_and_grads method, or the
    # traced runs' models.fwd_bwd_calls would stop counting its steps
    code = f"""
import numpy as np
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chainviews import datamodel, models
from chainviews.rng import derive_rng
schema = datamodel.DatasetSchema(3, 5, datamodel.ViewSpec("vector", 3), datamodel.ViewSpec("vector", 4))
model = models.{model}(derive_rng(0, "trace-init"), schema)
rng = derive_rng(0, "trace-data")
real = datamodel.ViewBatch("vector", "u", rng.normal(size=(10, 3)))
views = datamodel.ViewBatch("vector", "v", rng.normal(size=(10, 4)))
subj, obj = rng.integers(5, size=10), rng.integers(5, size=10)
inputs = {{
    "TeacherModel": lambda: model.inputs(views, subj, obj),
    "StudentModel": lambda: model.inputs(real, views, subj, obj),
    "UnimodalModel": lambda: model.inputs(real, subj, obj),
}}["{model}"]()
tracer.enabled = True
models.train(model, inputs, rng.integers(3, size=10), models.TrainConfig(steps=7, batch_size=4), 0)
names = [span[tracing.NAME] for span in tracer.spans]
print(names.count("models.{model}.loss_and_grads"), names.count("models.AdamW.step"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7", "7"]


def test_dataset_write_and_read_are_each_one_span(tmp_path):
    # datamodel.write_s and datamodel.read_s sum these spans: a path that
    # opened the file and recursed would be two nested spans, and an I/O
    # path that bypassed the boundaries none
    code = f"""
import numpy as np
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chainviews import datamodel
schema = datamodel.DatasetSchema(3, 5, datamodel.ViewSpec("vector", 2), datamodel.ViewSpec("vector", 2))
pool = datamodel.Pool([0] * 3, ["u_to_v"] * 3, [-1] * 3, [np.nan] * 3, [0] * 3, v=datamodel.ViewBatch("vector", "v", np.ones((3, 2))))
real = datamodel.vector_view([0.5, -1.0], "u")
instances = [datamodel.Instance(i, 0, 0, 1, real, pool) for i in range(2)]
path = {str(tmp_path / "dataset.jsonl")!r}
tracer.enabled = True
datamodel.write_dataset(instances, schema, path)
read, _ = datamodel.read_dataset(path)
names = [span[tracing.NAME] for span in tracer.spans]
print(names.count("datamodel.write_dataset"), names.count("datamodel.read_dataset"), len(read))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "2"]


def test_evaluation_is_one_student_call_and_one_teacher_call_per_chunk():
    # models.student_infer_s and models.score_calls count these spans: after
    # the student's training, the test split is one StudentModel.logits call
    # and its generated views ceil(rows / SCORE_CHUNK_ROWS) teacher calls
    code = """
import math
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chainviews import pipeline
from conftest import tiny_benchmark, tiny_config
pipeline.SCORE_CHUNK_ROWS = 16
train, test, schema, g_uv, g_vu = tiny_benchmark()
config = tiny_config()
tracer.enabled = True
pipeline.run_pipeline(train, test, schema, g_uv, g_vu, config)
spans = tracer.spans

def in_train(span):
    while span[tracing.PARENT] is not None:
        span = spans[span[tracing.PARENT]]
        if span[tracing.NAME] == "models.train":
            return True
    return False

students = [s for s in spans if s[tracing.NAME] == "models.StudentModel.logits" and not in_train(s)]
(trained,) = [s for s in spans if s[tracing.NAME] == "models.train" and s[tracing.TAG] == "StudentModel"]
teachers = [s for s in spans if s[tracing.NAME] == "models.TeacherModel.logits" and s[tracing.START] > trained[tracing.END]]
rows = len(test) * config.initial_views
print(len(students), len(teachers), math.ceil(rows / 16))
"""
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src"), str(ROOT / "tests")])
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    students, teachers, chunks = proc.stdout.split()
    assert students == "1"
    assert teachers == chunks != "1"


def test_generation_is_one_channel_call_per_hop_and_one_stream_per_instance():
    # channels.sample_calls counts these spans: each hop is one
    # sample_channel call over every instance (per infer chunk at test
    # time), while every instance still draws from its own derived stream.
    # A stream is a derive_rng span or one path handed to derive_rngs, which
    # derives a split's per-instance streams in one batch and is counted by
    # wrapping it wherever the package binds it.
    code = """
import sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chainviews import pipeline, rng
from conftest import tiny_benchmark, tiny_config
batched = []
original = rng.derive_rngs
def counted(master_seed, paths):
    batched.append(len(paths))
    return original(master_seed, paths)
for name, module in list(sys.modules.items()):
    if name.startswith("chainviews") and getattr(module, "derive_rngs", None) is original:
        module.derive_rngs = counted
pipeline.SCORE_CHUNK_ROWS = 16
train, test, schema, g_uv, g_vu = tiny_benchmark()
for full_chain in (False, True):
    config = tiny_config(infer_full_chain=full_chain)
    tracer.spans.clear()
    batched.clear()
    tracer.enabled = True
    pipeline.run_pipeline(train, test, schema, g_uv, g_vu, config)
    tracer.enabled = False
    names = [span[tracing.NAME] for span in tracer.spans]
    print(names.count("channels.sample_channel"), names.count("rng.derive_rng") + sum(batched))
"""
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src"), str(ROOT / "tests")])
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    train, test, _, _, _ = tiny_benchmark()
    config = tiny_config()
    spawning = sum(1 for g in config.spawn_per_kept if g)
    chunks = math.ceil(len(test) / (16 // config.initial_views))
    assert chunks > 1
    # streams: ("gen", id, 0), ("gen", id, round) per spawning round,
    # ("infer-gen", id), teacher init and training per selection, student
    # init and training
    streams = len(train) * (1 + spawning) + len(test) + 2 * config.ccg_rounds + 2
    for line, infer_hops in zip(proc.stdout.splitlines(), (1, 1 + 2 * config.ccg_rounds), strict=True):
        assert line.split() == [str(1 + 2 * spawning + chunks * infer_hops), str(streams)]

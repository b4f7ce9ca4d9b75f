"""The benchmark's traced runs wrap every layer boundary of the library.

``benchmarks/tracing.py`` replaces each function listed in its
``BOUNDARIES`` table wherever the library binds it. A binding the table does
not list -- say a new ``from .channels import sample_channel`` in another
module -- would otherwise fail only in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_boundary_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")]))
    code = "import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_training_step_goes_through_the_traced_loss_and_grads():
    # train must reach the model through its loss_and_grads method, or the
    # traced runs' models.fwd_bwd_calls would stop counting its steps
    code = """
import numpy as np
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chainviews import datamodel, models
from chainviews.rng import derive_rng
schema = datamodel.DatasetSchema(3, 5, datamodel.ViewSpec("vector", 3), datamodel.ViewSpec("vector", 4))
teacher = models.TeacherModel(derive_rng(0, "trace-init"), schema)
rng = derive_rng(0, "trace-data")
views = datamodel.ViewBatch("vector", "v", rng.normal(size=(10, 4)))
inputs = teacher.inputs(views, rng.integers(5, size=10), rng.integers(5, size=10))
tracer.enabled = True
models.train(teacher, inputs, rng.integers(3, size=10), models.TrainConfig(steps=7, batch_size=4))
names = [span[tracing.NAME] for span in tracer.spans]
print(names.count("models.TeacherModel.loss_and_grads"), names.count("models.AdamW.step"))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7", "7"]

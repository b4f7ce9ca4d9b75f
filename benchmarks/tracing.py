"""Span tracing for the benchmark's traced runs.

The traced run wraps every layer boundary of ``chainviews`` from outside the
library: each (module, attribute) pair listed in ``BOUNDARIES`` is replaced
by a wrapper that records a span while the tracer is enabled. Spans stay in
memory; ``workload.py`` writes them out after the timed body has ended.

A span is a list ``[name, tag, start, end, parent, thread, rep]`` indexed by
the constants below. ``parent`` is the index of the enclosing span, or None.
Each thread keeps its own parent stack; ``parallel_map`` hands its span to
the worker threads it feeds, so spans made in the pool nest under it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "chainviews"

NAME, TAG, START, END, PARENT, THREAD, REP = range(7)

# Every layer boundary, one line each: (defining module, attribute, layer,
# the other modules that bind the same object through ``from .x import y``
# -- "" is the package itself). "Class.method" is wrapped on the class. The
# layers are the library's modules; extract_stages lives in pipeline but is
# the diversity layer's input. ``chainviews.cli`` is not listed: the
# benchmark drives the library through its public API and never imports it.
# A renamed or removed name fails the traced run with an error naming it.
BOUNDARIES = (
    ("rng", "derive_rng", "rng", ("", "channels", "diversity", "info", "pipeline", "selection", "verification")),
    ("channels", "sample_channel", "channels", ("", "pipeline")),
    ("models", "train", "models", ("", "pipeline")),
    ("models", "TeacherModel.loss_and_grads", "models", ()),
    ("models", "StudentModel.loss_and_grads", "models", ()),
    ("models", "UnimodalModel.loss_and_grads", "models", ()),
    ("models", "TeacherModel.logits", "models", ()),
    ("models", "StudentModel.logits", "models", ()),
    ("models", "UnimodalModel.logits", "models", ()),
    ("models", "AdamW.step", "models", ()),
    ("selection", "keep_count", "selection", ("", "pipeline", "verification")),
    ("selection", "random_scores", "selection", ("pipeline",)),
    ("selection", "similarity_scores", "selection", ("pipeline",)),
    ("pipeline", "run_pipeline", "pipeline", ("",)),
    ("pipeline", "parallel_map", "pipeline", ()),
    ("pipeline", "extract_stages", "diversity", ("",)),
    ("diversity", "diversity_report", "diversity", ("", "pipeline")),
    ("datamodel", "write_dataset", "datamodel", ("",)),
    ("datamodel", "read_dataset", "datamodel", ("", "config")),
)

# The boundary whose first argument is run per item, possibly on pool threads.
FAN_OUT = "pipeline.parallel_map"
# Train spans are tagged with the model class they train.
TAGGED = {"models.train": lambda args: type(args[0]).__name__}

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in BOUNDARIES))


class BoundaryError(RuntimeError):
    """A listed boundary no longer exists, or the library binds a traced
    function somewhere the table does not list."""


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute}"


LAYER_OF = {span_name(m, a): layer for m, a, layer, _ in BOUNDARIES}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.rep = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag) -> int:
        stack = self.stack()
        record = [name, tag, time.perf_counter(), None, stack[-1] if stack else None,
                  threading.get_ident(), self.rep]
        with self._lock:
            self.spans.append(record)
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self.stack().pop()


def _wrap(tracer: Tracer, fn, name: str):
    tag_of = TAGGED.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.open(name, tag_of(args) if tag_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def _wrap_fan_out(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(item_fn, *args, **kwargs):
        if not tracer.enabled:
            return fn(item_fn, *args, **kwargs)
        sid = tracer.open(name, None)

        def traced_item(item):
            stack = tracer.stack()
            stack.append(sid)
            try:
                return item_fn(item)
            finally:
                stack.pop()

        try:
            return fn(traced_item, *args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}" if name else PACKAGE)


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES; raise BoundaryError naming any
    pair that is missing or any library binding the table leaves out."""
    originals = {}
    for module_name, attribute, _, aliases in BOUNDARIES:
        name = span_name(module_name, attribute)
        module = _module(module_name)
        make = _wrap_fan_out if name == FAN_OUT else _wrap
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name, None)
            original = vars(owner).get(method) if isinstance(owner, type) else None
            if original is None:
                raise BoundaryError(f"{PACKAGE}.{module_name} has no {attribute}; update BOUNDARIES")
            setattr(owner, method, make(tracer, original, name))
            continue
        original = getattr(module, attribute, None)
        if original is None:
            raise BoundaryError(f"{PACKAGE}.{module_name} has no {attribute}; update BOUNDARIES")
        wrapper = make(tracer, original, name)
        for alias in (module_name,) + aliases:
            target = _module(alias)
            if getattr(target, attribute, None) is not original:
                raise BoundaryError(
                    f"{target.__name__} does not bind {module_name}.{attribute}; update BOUNDARIES"
                )
            setattr(target, attribute, wrapper)
        originals[id(original)] = name
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attribute, value in vars(module).items():
            if id(value) in originals:
                raise BoundaryError(
                    f"{module_name}.{attribute} still binds untraced {originals[id(value)]}; "
                    "add the module to its BOUNDARIES line"
                )


# --- arithmetic over finished spans -----------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap each other, so the covered part is
    the measure of the union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name, so that a
    boundary calling itself (write_dataset on a path) is counted once."""
    flags = []
    for span in spans:
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        flags.append(parent is None)
    return flags


def layer_metrics(spans, wall_s: float, timing: dict, dataset_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, plus self time per layer.

    ``wall_s`` is the traced body's wall time and ``timing`` the summed
    ``timing`` fields of the run reports it produced.
    """
    selfs = self_times(spans)
    top = outermost(spans)
    under_train = [s[PARENT] is not None and spans[s[PARENT]][NAME] == "models.train" for s in spans]

    def total(match):
        calls, seconds = 0, 0.0
        for i, span in enumerate(spans):
            if top[i] and match(i, span):
                calls += 1
                seconds += span[END] - span[START]
        return calls, seconds

    def named(*names):
        return lambda i, s: s[NAME] in names

    layer_self = dict.fromkeys(LAYERS, 0.0)
    per_call = defaultdict(list)
    for span, own in zip(spans, selfs):
        layer_self[LAYER_OF[span[NAME]]] += own
        per_call[(span[NAME], span[TAG])].append(own)
    modelled = sum(len(v) * statistics.median(v) for v in per_call.values())

    m = {}
    m["rng.derive_calls"], m["rng.derive_s"] = total(named("rng.derive_rng"))
    m["channels.sample_calls"], m["channels.sample_s"] = total(named("channels.sample_channel"))
    m["models.train_calls"], _ = total(named("models.train"))
    for model, key in (("TeacherModel", "teacher"), ("StudentModel", "student"), ("UnimodalModel", "unimodal")):
        _, m[f"models.{key}_train_s"] = total(lambda i, s, model=model: s[NAME] == "models.train" and s[TAG] == model)
    m["models.fwd_bwd_calls"], m["models.fwd_bwd_s"] = total(lambda i, s: s[NAME].endswith(".loss_and_grads"))
    m["models.opt_steps"], m["models.adamw_s"] = total(named("models.AdamW.step"))
    _, m["models.frozen_pass_s"] = total(lambda i, s: s[NAME].endswith(".logits") and under_train[i])
    m["models.score_calls"], m["models.score_s"] = total(
        lambda i, s: s[NAME] == "models.TeacherModel.logits" and not under_train[i]
    )
    _, m["models.student_infer_s"] = total(lambda i, s: s[NAME] == "models.StudentModel.logits" and not under_train[i])
    m["selection.score_calls"], m["selection.score_s"] = total(lambda i, s: LAYER_OF[s[NAME]] == "selection")
    for phase in ("generate_initial", "rounds", "train_student", "evaluate"):
        m[f"pipeline.{phase}_s"] = float(timing.get(phase, 0.0))
    m["pipeline.self_s"] = layer_self["pipeline"]
    _, m["pipeline.parallel_map_s"] = total(named("pipeline.parallel_map"))
    _, m["diversity.extract_stages_s"] = total(named("pipeline.extract_stages"))
    m["diversity.report_calls"], m["diversity.report_s"] = total(named("diversity.diversity_report"))
    _, m["datamodel.write_s"] = total(named("datamodel.write_dataset"))
    _, m["datamodel.read_s"] = total(named("datamodel.read_dataset"))
    m["datamodel.bytes"] = dataset_bytes
    m["trace.coverage"] = sum(selfs) / wall_s
    m["trace.count_model"] = modelled / wall_s
    return m, layer_self

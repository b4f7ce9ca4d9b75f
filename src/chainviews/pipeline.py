"""End-to-end curation runs.

One run is: generate an initial batch of synthetic views per instance, then
alternate selection (train a fresh teacher on the candidate pool, score it,
keep the best fraction per instance) with generation (every kept view spawns
children through the v-to-u and u-to-v channels). After the last round the
student trains on each instance's best-scored views plus its real view, and
test instances are classified by generating fresh views, scoring them with
the final teacher, and fusing the winners.

With the stock schedule (30 initial views, keep 60%, spawn [4, 1]) the
per-instance pool evolves 30 -> keep 18 -> +72 -> 90 -> keep 54 -> +54 ->
108. ``ccg_rounds=0`` still performs the initial selection (it just spawns
nothing), which is the "no chained generation" ablation.

``run_pipeline`` is the one run path: every condition, the unimodal
baseline included, ends in one ``compute_metrics`` call and one
``RunReport``. A curated one grows the train split's pools as ``curate``
does, in one private store (whole arrays, the same round and step at every
pool index, each instance's candidates ranked by one row-wise sort), trains
the student from it and classifies the test split with ``infer``, all under
one ``Scorer``. An empty split is a ``PipelineError``.

Everything is a pure function of (config, seed): generation draws one
stream per (instance, round) -- ``("gen", id, round)`` in training,
``("infer-gen", id)`` at test time -- and a split's streams for one round
are derived in one ``derive_rngs`` batch. Each hop is one channel call over every
instance's rows, each instance's rows drawing from its own stream
(``channels.Streams``), so an instance's views never depend on the other
instances. At test time one loop over chunks of whole instances, at most
``SCORE_CHUNK_ROWS`` generated views each, generates, scores with the final
teacher and picks; one student call then classifies every instance. All
work runs in order on the calling thread. Wall-clock timings in the report
are the one explicitly non-deterministic field.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .channels import Streams, sample_channel, stack_views
from .datamodel import (
    MODALITY_V, REAL_PARENT, STEP_U_TO_V, STEP_V_TO_U, DatasetSchema, Instance, Pool, ViewBatch, check_int, is_real
)
from .diversity import diversity_report  # noqa: F401 -- unused here; benchmarks/tracing.py traces this binding
from .models import StudentModel, TeacherModel, TrainConfig, UnimodalModel, train
from .nn import check_labels, featurize_rows, log_softmax, softmax_xent
from .rng import derive_rng, derive_rngs
from .selection import POLICY_NAMES, SelectionError, keep_count, random_scores, rank_rows
from .selection import similarity_scores  # noqa: F401 -- unused here; benchmarks/tracing.py traces this binding

# Test-time generation and teacher scoring run on chunks of whole instances
# of at most this many generated views (68 instances at 30 views each; one
# instance when it alone has more). Scoring a 600-instance test split
# (18,000 views) in one call took the benchmark's ablation run from 50.5 to
# 60.6 MiB peak RSS; chunks this size, 51.7 MiB.
SCORE_CHUNK_ROWS = 2048

# Each ablation condition as the config fields it sets on the base config.
# condition_name takes the last entry a config matches, so a policy's entry
# wins over no_ccg, every entry over full, and no_teacher (the uniform draw
# keeping every candidate) over random_teacher. "unimodal" runs the base
# config through a model that takes no synthetic views.
CONDITION_FIELDS = {
    "full": {},
    "no_ccg": {"ccg_rounds": 0, "spawn_per_kept": ()},
    "random_teacher": {"policy_name": "random"},
    "no_teacher": {"policy_name": "random", "keep_fraction": 1.0},
    "unimodal": {},
}
CONDITIONS = tuple(CONDITION_FIELDS)

METRIC_COLUMNS = ("condition", "accuracy", "precision", "recall", "f1")


class PipelineError(RuntimeError):
    pass


INERT_FIELDS = ("pca_dim", "gmm_components", "workers")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one curation run; see the module docstring for the loop."""

    ccg_rounds: int = 2  # selection+generation rounds after the initial batch
    initial_views: int = 30  # round-0 views per instance, and test-time candidates
    spawn_per_kept: tuple[int, ...] = (4, 1)  # children per kept view, one entry per round
    keep_fraction: float = 0.6
    policy_name: str = "teacher_loss"
    train_views: int = 6  # synthetic views fed to the student per instance
    infer_views: int = 6  # synthetic views fused per test instance
    teacher: TrainConfig = field(default_factory=lambda: TrainConfig(learning_rate=0.02, steps=250, batch_size=48))
    student: TrainConfig = field(default_factory=lambda: TrainConfig(learning_rate=0.01, steps=350, batch_size=32))
    seed: int = 0
    infer_full_chain: bool = False  # test-time views pass through the whole chain
    # Inert (INERT_FIELDS): accepted so that older callers still construct a
    # config, but never read, checked or digested. The diversity table is
    # ``chainviews diversity``'s, and all work runs on the calling thread.
    pca_dim: object = None
    gmm_components: object = None
    workers: object = None

    def __post_init__(self):
        for name in ("ccg_rounds", "seed"):
            check_int(name, getattr(self, name), 0)
        for name in ("initial_views", "train_views", "infer_views"):
            check_int(name, getattr(self, name), 1)
        if self.infer_views > self.initial_views:  # the test-time pick chooses among initial_views views
            raise ValueError(f"infer_views ({self.infer_views}) must not exceed initial_views ({self.initial_views})")
        if not isinstance(self.spawn_per_kept, tuple) or len(self.spawn_per_kept) != self.ccg_rounds:
            raise ValueError(
                f"spawn_per_kept must be a tuple of non-negative integers, one per round (ccg_rounds="
                f"{self.ccg_rounds}), got {type(self.spawn_per_kept).__name__} {self.spawn_per_kept!r}"
            )
        for g in self.spawn_per_kept:
            check_int("spawn_per_kept entries", g, 0)
        if not isinstance(self.infer_full_chain, bool):
            raise ValueError(f"infer_full_chain must be true or false, got {self.infer_full_chain!r}")
        if self.policy_name not in POLICY_NAMES:
            raise SelectionError(f"unknown policy {self.policy_name!r}; choose one of {POLICY_NAMES}")
        if not is_real(self.keep_fraction) or not 0.0 < self.keep_fraction <= 1.0:
            raise SelectionError(f"keep_fraction must be a finite number in (0, 1], got {self.keep_fraction!r}")
        live = self.initial_views  # each instance's candidates for the student after the last round
        for spawn in self.spawn_per_kept or (0,):
            live = keep_count(self.keep_fraction, live) * (1 + spawn)
        if self.train_views > live:
            raise ValueError(
                f"train_views ({self.train_views}) exceeds the {live} candidate views per instance the schedule leaves"
            )

    def to_dict(self) -> dict:
        """Every field but the inert ones, which never change a result."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in INERT_FIELDS}
        out["spawn_per_kept"] = list(self.spawn_per_kept)
        out["teacher"], out["student"] = vars(self.teacher).copy(), vars(self.student).copy()
        return out


def config_hash(payload: dict) -> str:
    """sha256 of the canonical JSON rendering of a config mapping."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class InstanceSelectionRecord:
    instance_id: int
    candidate_ids: tuple[int, ...]  # pool indices scored this round
    scores: tuple[float, ...]  # lower is better; teacher losses under the default policy
    kept_ids: tuple[int, ...]


@dataclass(frozen=True)
class RoundRecord:
    selection_index: int
    pool_size: int  # candidates per instance entering the selection
    kept_size: int  # survivors per instance
    spawned: int  # children per kept view generated after the selection
    per_instance: tuple[InstanceSelectionRecord, ...]


@dataclass(frozen=True)
class RunReport:
    condition: str
    config_digest: str
    seed: int
    ccg_rounds: int  # configured K; 0 still runs one selection-only pass
    final_pool_size: int  # v-side candidates per instance after the last generation
    metrics: dict
    rounds: tuple[RoundRecord, ...]
    timing: dict  # wall-clock seconds; excluded from determinism guarantees


@dataclass
class RunResult:
    instances: list[Instance]
    report: RunReport
    teacher: TeacherModel | None
    student: object  # StudentModel or UnimodalModel


def parallel_map(fn, items: Sequence) -> list:
    """Map ``fn`` over ``items`` in order on the calling thread.

    Nothing in the package calls it; it stays because the benchmark traces
    it as the per-instance fan-out boundary.
    """
    return [fn(item) for item in items]


# --- metrics -----------------------------------------------------------------


def compute_metrics(predictions: Sequence[int], labels: Sequence[int], schema: DatasetSchema) -> dict:
    """Accuracy plus micro precision/recall/F1.

    When the schema names a none-of-the-above class it is left out of the
    micro counts (predicting "none" for a "none" instance earns nothing).
    Empty denominators yield 0. A value outside ``[0, class_count)`` is a
    ValueError naming its row.
    """
    predictions = check_labels(predictions, "prediction")
    labels = check_labels(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1 or predictions.shape[0] == 0:
        raise ValueError("predictions and labels must be equal-length non-empty vectors")
    for name, values in (("prediction", predictions), ("label", labels)):
        if (bad := (values < 0) | (values >= schema.class_count)).any():
            row = int(np.argmax(bad))
            raise ValueError(f"{name} {values[row]} at row {row} is outside [0, {schema.class_count})")
    accuracy = float(np.mean(predictions == labels))
    tp = fp = fn = 0
    for c in range(schema.class_count):
        if c == schema.none_class:
            continue
        tp += int(np.sum((predictions == c) & (labels == c)))
        fp += int(np.sum((predictions == c) & (labels != c)))
        fn += int(np.sum((labels == c) & (predictions != c)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": accuracy,
        "precision": float(precision),
        "recall": float(recall),
        "f1": float(f1),
        "count": int(labels.shape[0]),
    }


# --- scoring -------------------------------------------------------------------


def _per_row(instances: Sequence[Instance], counts=1) -> np.ndarray:
    """Subject ids, object ids and labels of ``instances`` (three rows), each
    repeated ``counts`` times (one count per instance, or one for all)."""
    rows = np.array([(i.subject, i.object, i.label) for i in instances], dtype=np.int64)
    return np.repeat(rows.reshape(-1, 3), counts, axis=0).T


def _copies(instances: Sequence[Instance], n) -> ViewBatch:
    """``n`` copies of each instance's real view (one count per instance, or
    one for all), instance-major."""
    reals = stack_views([inst.real_view for inst in instances])
    return ViewBatch(reals.kind, reals.modality, np.repeat(reals.data, n, axis=0))


class Scorer:
    """The run's selection policy, ``config.policy_name``: one scoring call
    per use over every instance's rows, instance-major and the same count per
    instance, for a selection (``select``), the student's pick and test time
    (``pick``). Each gives one row of lower-is-better scores per instance,
    which ``rank_rows`` ranks by (score, index).

    The teacher-loss policy scores a selection by the frozen final-pass
    losses of a fresh teacher trained on its candidates (``teacher`` holds
    the latest, ``None`` until the first selection), the student's pick by
    those stored losses and test-time views by the teacher's confidence.
    The random policy draws per (step, instance) at every use; at
    ``keep_fraction`` 1.0 its selections keep every candidate.
    """

    def __init__(self, config: PipelineConfig, schema: DatasetSchema):
        self.config = config
        self.schema = schema
        self.teacher: TeacherModel | None = None

    def untrained(self, instances: Sequence[Instance], views: ViewBatch, stream) -> np.ndarray:
        """One draw per instance on its ``("random-selection", stream, id)`` stream."""
        return random_scores(len(views) // len(instances), self.config.seed, [(stream, inst.id) for inst in instances])

    def select(self, instances: Sequence[Instance], views: ViewBatch, selection_index: int) -> np.ndarray:
        """Scores of every instance's candidates ``views`` at one selection."""
        if self.config.policy_name != "teacher_loss":
            return self.untrained(instances, views, selection_index)
        seed = self.config.seed
        self.teacher = TeacherModel(derive_rng(seed, "teacher-init", selection_index), self.schema)
        subj, obj, labels = _per_row(instances, len(views) // len(instances))
        inputs = self.teacher.inputs(views, subj, obj)
        _, losses = train(
            self.teacher, inputs, labels, self.config.teacher, seed, rng_stream=("teacher-train", selection_index)
        )
        return losses.reshape(len(instances), -1)

    def pick(self, instances: Sequence[Instance], views: ViewBatch) -> np.ndarray:
        """Row indices of the ``config.infer_views`` best test-time views of
        each instance, best first: one row per instance, indexing its own
        rows of ``views``, which holds the same count per instance.

        With a teacher, the teacher-loss policy scores every view by its loss
        against the teacher's own most likely label (label-free), in one
        ``logits`` call over ``views``; without one the views tie.
        """
        if self.config.policy_name != "teacher_loss":
            scores = self.untrained(instances, views, "infer-pick")
        elif self.teacher is None:
            scores = np.zeros(len(views))
        else:
            subj, obj, _ = _per_row(instances, len(views) // len(instances))
            scores = -np.max(log_softmax(self.teacher.logits(self.teacher.inputs(views, subj, obj))), axis=1)
        return rank_rows(scores.reshape(len(instances), -1))[:, : self.config.infer_views]


# --- one store per split ---------------------------------------------------------


class _SplitPools:
    """A split's synthetic pools as one store, which each step updates in place.

    Every instance starts with ``initial_views`` views and keeps and spawns
    the same counts, so every pool has the same ``round`` and ``step`` at
    each index. The store holds them as shared ``(L,)`` columns, the view
    state as ``(instances, L)`` arrays and, in ``sides``, each side's kind
    and ``(instances, rows, width)`` data. ``instances_out`` builds each
    instance's Pool once, from read-only row views. A v-side view first
    faces selection ``round``, and each selection that keeps it moves it on
    to the next, so it is a candidate at selection ``s`` exactly when
    ``round + survived == s``.
    """

    def __init__(self, instances: Sequence[Instance]):
        """An empty store for ``instances``, in their order."""
        if not instances:
            raise PipelineError("a split needs at least one instance")
        count = len(instances)
        self.instances, self.at = list(instances), np.arange(count)[:, None]  # a row index per instance
        self.round, self.step, self.is_v = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.str_), np.zeros(0, dtype=bool)
        self.parent_id, self.survived = np.zeros((count, 0), dtype=np.int64), np.zeros((count, 0), dtype=np.int64)
        self.teacher_loss, self.sides = np.zeros((count, 0)), {}

    def live(self, selection_index: int) -> np.ndarray:
        """The pool indices of each instance's candidates at selection
        ``selection_index``, one row per instance."""
        mask = self.is_v & (self.round + self.survived == selection_index)
        return np.nonzero(mask)[1].reshape(len(mask), -1)

    def v_rows(self, at, ids) -> ViewBatch:
        """The v-side views at pool indices ``ids`` of instances ``at``, as one
        batch in the row-major order of ``ids``."""
        kind, data = self.sides[MODALITY_V]
        return ViewBatch(kind, MODALITY_V, data[at, (np.cumsum(self.is_v) - 1)[ids]].reshape(-1, data.shape[2]))

    def add(self, round_index: int, step: np.ndarray, parent_id: np.ndarray, *batches: ViewBatch) -> None:
        """Append unscored views of round ``round_index`` with steps ``step``, parents
        ``parent_id`` (a row per instance) and each side's views in ``batches``."""
        count, n = parent_id.shape
        self.round = np.concatenate([self.round, np.full(n, round_index, dtype=np.int64)])
        self.step = np.concatenate([self.step, step])
        self.is_v = self.step == STEP_U_TO_V
        self.parent_id = np.concatenate([self.parent_id, parent_id], axis=1)
        self.teacher_loss = np.concatenate([self.teacher_loss, np.full((count, n), np.nan)], axis=1)
        self.survived = np.concatenate([self.survived, np.zeros((count, n), dtype=np.int64)], axis=1)
        for batch in batches:
            data = batch.data.reshape(count, -1, batch.data.shape[1])
            if batch.modality in self.sides:
                data = np.concatenate([self.sides[batch.modality][1], data], axis=1)
            self.sides[batch.modality] = (batch.kind, data)

    def instances_out(self) -> list[Instance]:
        """Each instance with its pool built from this store: every column
        and matrix a read-only row view of the whole split's array. The
        store is read-only from then on."""
        arrays = [self.round, self.step, self.parent_id, self.teacher_loss, self.survived]
        for array in arrays + [data for _, data in self.sides.values()]:
            array.flags.writeable = False
        return [
            replace(inst, synthetic_pool=Pool(
                self.round, self.step, self.parent_id[k], self.teacher_loss[k], self.survived[k],
                **{side: ViewBatch(kind, side, data[k]) for side, (kind, data) in self.sides.items()},
            ))
            for k, inst in enumerate(self.instances)
        ]


# --- the curation loop -----------------------------------------------------------


def curate(instances: Sequence[Instance], g_uv, g_vu, scorer: Scorer) -> list[Instance]:
    """``instances`` with the pools every round of ``scorer.config`` grows:
    ``run_pipeline``'s train split, byte for byte. The last teacher stays in
    ``scorer.teacher``. Occupied pools or no instances are a PipelineError."""
    pools = _round0(instances, g_uv, scorer.config)
    _rounds(pools, g_vu, g_uv, scorer)
    return pools.instances_out()


def _round0(instances: Sequence[Instance], g_uv, config: PipelineConfig) -> _SplitPools:
    """The split's store, holding every instance's initial batch of generated views.

    Requires empty synthetic pools, which are left as they are; each
    instance gets exactly ``config.initial_views`` round-0 views parented to
    its real view. One u-to-v call covers every instance, each instance's
    copies of its real view drawing from its own ``("gen", id, 0)`` stream.
    """
    occupied = [inst.id for inst in instances if len(inst.synthetic_pool)]
    if occupied:
        raise PipelineError(f"instances already hold synthetic views: {occupied[:5]}")
    n, pools = config.initial_views, _SplitPools(instances)
    streams = Streams(derive_rngs(config.seed, [("gen", inst.id, 0) for inst in instances]), [n] * len(instances))
    views = sample_channel(g_uv, _copies(instances, n), streams)
    pools.add(0, np.full(n, STEP_U_TO_V), np.full((len(instances), n), REAL_PARENT), views)
    return pools


def _rounds(pools: _SplitPools, g_vu, g_uv, scorer: Scorer) -> list[RoundRecord]:
    """Every selection-plus-generation round of ``scorer.config`` over a store
    fresh from ``_round0``, updated in place; one RoundRecord per round.

    Selection ``s`` (from 0; ``ccg_rounds=0`` runs one, which spawns
    nothing) scores every live candidate with ``scorer``; the teacher policy
    trains a fresh teacher on them and writes its frozen final-pass losses
    back as ``teacher_loss``. The ``keep_count`` best per instance count one
    more survival, and each spawns round ``s + 1``'s ``spawn_per_kept``
    entry of children (u-side then v-side, both recorded): one v-to-u call
    over every instance's kept parents (parent-major), then one u-to-v call
    over its outputs, each instance's rows on its own ``("gen", id, s + 1)``
    stream. Then every v-side view still without a loss gets one from the
    final teacher, in one ``logits`` call over every instance's rows, so the
    student's pick compares every live candidate.
    """
    config, instances = scorer.config, pools.instances
    rounds = [_round(pools, s, spawn, g_vu, g_uv, scorer) for s, spawn in enumerate(config.spawn_per_kept or (0,))]
    if config.policy_name == "teacher_loss" and (todo := pools.is_v & np.isnan(pools.teacher_loss)).any():
        teacher, (at, ids) = scorer.teacher, np.nonzero(todo)
        subj, obj, labels = _per_row(instances, np.count_nonzero(todo, axis=1))
        logits = teacher.logits(teacher.inputs(pools.v_rows(at, ids), subj, obj))
        pools.teacher_loss[at, ids], _ = softmax_xent(logits, labels)
    return rounds


def _round(pools: _SplitPools, selection_index: int, spawn: int, g_vu, g_uv, scorer: Scorer) -> RoundRecord:
    """One selection and the children it spawns, as ``_rounds`` describes;
    a call of its own, so that the round's scores and batches are freed before
    the next teacher or the trailing scores run (held, they raised peak memory)."""
    config, instances, at = scorer.config, pools.instances, pools.at
    live = pools.live(selection_index)
    n, k = live.shape[1], keep_count(config.keep_fraction, live.shape[1])
    scores = scorer.select(instances, pools.v_rows(at, live), selection_index)
    kept = np.sort(np.take_along_axis(live, rank_rows(scores)[:, :k], axis=1), axis=1)
    if config.policy_name == "teacher_loss":
        pools.teacher_loss[at, live] = scores
    pools.survived[at, kept] += 1
    records = zip(instances, live.tolist(), scores.tolist(), kept.tolist())
    per_instance = tuple(InstanceSelectionRecord(inst.id, *map(tuple, row)) for inst, *row in records)
    if spawn > 0:  # (u, v) pairs in turn: u a child of its kept parent, v of u
        sources = np.repeat(kept, spawn, axis=1)
        count, m = sources.shape
        round_index = selection_index + 1
        streams = Streams(derive_rngs(config.seed, [("gen", inst.id, round_index) for inst in instances]), [m] * count)
        u_views = sample_channel(g_vu, pools.v_rows(at, sources), streams)
        v_views = sample_channel(g_uv, u_views, streams)
        parent_id = np.empty((count, 2 * m), dtype=np.int64)
        parent_id[:, 0::2], parent_id[:, 1::2] = sources, len(pools.round) + np.arange(0, 2 * m, 2)
        pools.add(round_index, np.tile([STEP_V_TO_U, STEP_U_TO_V], m), parent_id, u_views, v_views)
    return RoundRecord(selection_index, n, k, spawn, per_instance)


def _train_student(pools: _SplitPools, scorer: Scorer) -> StudentModel:
    """Train the fusion student on each instance's best live candidates in the store.

    The live candidates are the v-side views that would face the next
    selection (the largest ``round + survived`` of a v-side view): the last
    selection's keepers plus the views generated after it. Per instance the
    ``train_views`` best under ``scorer`` join the real view and entities.
    The teacher-loss policy ranks by stored loss, which ``_rounds`` gives
    every live candidate; the random policy by a fresh draw. A NaN score
    leaves a view unscored, and an instance with fewer than ``train_views``
    scored views is a PipelineError (a guard: no known channel makes a
    teacher loss NaN).
    """
    config, instances, at = scorer.config, pools.instances, pools.at
    live = pools.live(int(np.max(pools.round + pools.survived, where=pools.is_v, initial=0)))
    if config.policy_name == "teacher_loss":
        scores = np.take_along_axis(pools.teacher_loss, live, axis=1)
    else:
        scores = scorer.untrained(instances, pools.v_rows(at, live), "student-pick")
    scored, n = np.count_nonzero(~np.isnan(scores), axis=1), config.train_views
    if (short := scored < n).any():
        k = int(np.argmax(short))
        raise PipelineError(f"instance {instances[k].id} has {scored[k]} scored candidate views, needs {n}")
    picked = pools.v_rows(at, np.take_along_axis(live, rank_rows(scores)[:, :n], axis=1))
    student = StudentModel(derive_rng(config.seed, "student-init"), scorer.schema)
    subj, obj, labels = _per_row(instances)
    inputs = student.inputs(stack_views([inst.real_view for inst in instances]), picked, subj, obj)
    train(student, inputs, labels, config.student, config.seed, rng_stream=("student-train",))
    return student


def infer(student: StudentModel, instances: Sequence[Instance], g_uv, g_vu, scorer: Scorer) -> np.ndarray:
    """Classify a test split: one int64 label per instance, in order.

    Per instance, ``initial_views`` fresh views come from the round-0
    channel, or from the whole chain when ``infer_full_chain`` (which needs
    ``g_vu``), on the instance's own ``("infer-gen", id)`` stream, all read
    from ``scorer.config``. ``scorer.pick`` keeps each instance's
    ``infer_views`` best: under teacher loss the ones its teacher classifies
    most confidently (the first generated without a teacher), otherwise a
    uniform draw. One loop over chunks of whole instances, at most
    ``SCORE_CHUNK_ROWS`` views each (one instance at least),
    generates with one channel call per hop, scores with one teacher call
    and picks, so that peak memory stays near that of one chunk. One student
    call then classifies the whole split. An instance's label depends only
    on the instance, never on the rest of the split or on the chunking.
    """
    config = scorer.config
    if config.infer_full_chain and g_vu is None:
        raise PipelineError("infer_full_chain needs g_vu, the v-to-u channel")
    if not instances:
        return np.zeros(0, dtype=np.int64)
    n = config.initial_views
    per_chunk = max(1, SCORE_CHUNK_ROWS // n)
    generators = derive_rngs(config.seed, [("infer-gen", inst.id) for inst in instances])
    chosen = []  # each chunk's picks, instance-major
    for start in range(0, len(instances), per_chunk):
        chunk = instances[start : start + per_chunk]
        streams = Streams(generators[start : start + per_chunk], [n] * len(chunk))
        views = sample_channel(g_uv, _copies(chunk, n), streams)
        if config.infer_full_chain:
            for _ in range(config.ccg_rounds):
                views = sample_channel(g_uv, sample_channel(g_vu, views, streams), streams)
        chosen.append(views.take((scorer.pick(chunk, views) + n * np.arange(len(chunk))[:, None]).ravel()))
    subj, obj, _ = _per_row(instances)
    real = stack_views([inst.real_view for inst in instances])
    logits = student.logits(student.inputs(real, stack_views(chosen), subj, obj))
    return np.argmax(logits, axis=1)


# --- the run --------------------------------------------------------------------


def run_pipeline(
    train_instances: Sequence[Instance],
    test_instances: Sequence[Instance],
    schema: DatasetSchema,
    g_uv,
    g_vu,
    config: PipelineConfig,
    condition: str = "full",
    config_digest: str | None = None,
) -> RunResult:
    """Execute one condition end to end and return instances plus report.

    A curated condition runs ``_round0``, ``_rounds`` and ``_train_student``
    over the train split's store, as ``curate`` does plus the student, then
    ``infer`` over the test split, all sharing one Scorer of ``config``.
    ``unimodal`` instead trains a UnimodalModel on the real views with the
    student's settings and classifies the test split's real views: no
    rounds, no pools and no teacher. Every condition is scored by one
    ``compute_metrics`` call into one RunReport.
    """
    if condition not in CONDITIONS:
        raise PipelineError(f"unknown condition {condition!r}; choose one of {CONDITIONS}")
    for name, split in (("train", train_instances), ("test", test_instances)):
        if not split:
            raise PipelineError(f"the {name} split holds no instances")
    digest = config_digest or config_hash({"pipeline": config.to_dict(), "condition": condition})
    unimodal = condition == "unimodal"
    timing: dict[str, float] = {}
    rounds, final_pool_size, teacher = [], 0, None

    t0 = time.perf_counter()
    if unimodal:
        student = UnimodalModel(derive_rng(config.seed, "unimodal-init"), schema)
        subj, obj, labels = _per_row(train_instances)
        inputs = student.inputs(stack_views([inst.real_view for inst in train_instances]), subj, obj)
        train(student, inputs, labels, config.student, config.seed, rng_stream=("unimodal-train",))
    else:
        pools = _round0(train_instances, g_uv, config)
        timing["generate_initial"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        scorer = Scorer(config, schema)
        rounds = _rounds(pools, g_vu, g_uv, scorer)
        teacher = scorer.teacher
        final_pool_size = pools.live(len(rounds)).shape[1]
        timing["rounds"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        student = _train_student(pools, scorer)
    timing["train_student"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if unimodal:
        subj, obj, _ = _per_row(test_instances)
        inputs = student.inputs(stack_views([inst.real_view for inst in test_instances]), subj, obj)
        predictions = np.argmax(student.logits(inputs), axis=1)
    else:
        predictions = infer(student, test_instances, g_uv, g_vu, scorer)
    metrics = compute_metrics(predictions, [inst.label for inst in test_instances], schema)
    timing["evaluate"] = time.perf_counter() - t0

    report = RunReport(
        condition=condition, config_digest=digest, seed=config.seed, ccg_rounds=0 if unimodal else config.ccg_rounds,
        final_pool_size=final_pool_size, metrics=metrics, rounds=tuple(rounds), timing=timing,
    )
    instances = list(train_instances) if unimodal else pools.instances_out()
    return RunResult(instances=instances, report=report, teacher=teacher, student=student)


def condition_config(base: PipelineConfig, condition: str) -> PipelineConfig:
    """Config tweaks per ablation condition; everything else stays shared."""
    if condition not in CONDITION_FIELDS:
        raise PipelineError(f"unknown condition {condition!r}")
    changes = CONDITION_FIELDS[condition]
    return replace(base, **changes) if changes else base


def condition_name(config: PipelineConfig) -> str:
    """The ablation condition a plain run of ``config`` is: the last one,
    unimodal aside, whose fields ``config`` already has."""
    matches = [
        condition
        for condition, changes in CONDITION_FIELDS.items()
        if condition != "unimodal" and all(getattr(config, k) == v for k, v in changes.items())
    ]
    return matches[-1]


# --- stage extraction ---------------------------------------------------------


def extract_stages(instances: Sequence[Instance], schema: DatasetSchema) -> dict[str, np.ndarray]:
    """Per-stage view matrices read from the survival counts.

    Kept stage "V{s}" holds the v-side views selection ``s`` kept
    (``round <= s < round + survived``); raw stage "V{r}'" holds the v-side
    views generated in round ``r >= 1``. Stages come in run order, V0, V1',
    V1, V2', ..., and empty ones are left out.
    """
    pools = [inst.synthetic_pool for inst in instances if inst.synthetic_pool.v is not None]
    if not pools:
        return {}
    rounds = np.concatenate([p.round[p.is_v] for p in pools])
    survived = np.concatenate([p.survived[p.is_v] for p in pools])
    features = np.concatenate([featurize_rows(p.v.kind, p.v.data, schema.v_spec.size) for p in pools])
    stages: dict[str, np.ndarray] = {}
    for s in range(int(np.max(rounds + survived, initial=0))):
        kept = (rounds <= s) & (s < rounds + survived)
        raw = rounds == s + 1
        if kept.any():
            stages[f"V{s}"] = features[kept]
        if raw.any():
            stages[f"V{s + 1}'"] = features[raw]
    return stages


# --- ablation -----------------------------------------------------------------


def run_ablation(
    make_data,
    base_config: PipelineConfig,
    seeds: Sequence[int],
    conditions: Sequence[str] = CONDITIONS,
) -> list[RunReport]:
    """Run every condition on shared per-seed data; one report per run,
    seed-major in ``conditions`` order.

    ``make_data`` maps a seed to ``(train, test, schema, g_uv, g_vu)``, as
    ``config.load_experiment_data(config, seed)`` does; the same train/test
    instances and the same master seed feed every condition, so reports
    differ only in the condition itself. Every condition's config is built,
    and so checked, before the first run.
    """
    configs = {condition: condition_config(base_config, condition) for condition in conditions}
    reports: list[RunReport] = []
    for seed in seeds:
        data = make_data(seed)  # (train, test, schema, g_uv, g_vu)
        reports += [run_pipeline(*data, replace(configs[c], seed=seed), c).report for c in conditions]
    return reports


def ablation_table(reports: Sequence[RunReport]) -> list[dict]:
    """Per-run rows plus one ``<condition>_mean`` row per condition, all with
    the metric columns condition/accuracy/precision/recall/f1."""
    columns = METRIC_COLUMNS[1:]
    table = [{"condition": report.condition, **{c: report.metrics[c] for c in columns}} for report in reports]
    for condition in dict.fromkeys(report.condition for report in reports):
        group = [report.metrics for report in reports if report.condition == condition]
        table.append({"condition": f"{condition}_mean", **{c: float(np.mean([m[c] for m in group])) for c in columns}})
    return table


# --- report serialization ------------------------------------------------------


def report_to_dict(record) -> dict:
    """A report record as report.json's mapping, keyed by its fields in
    declaration order: a tuple of records becomes a list of mappings, any
    other tuple a list."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, tuple):
            value = [report_to_dict(v) for v in value] if value and is_dataclass(value[0]) else list(value)
        out[f.name] = value
    return out


def save_report(report: RunReport, path) -> None:
    """Write ``report.json`` as one line: ``json.dumps`` without ``indent``
    takes the C encoder."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report_to_dict(report)))
        handle.write("\n")


def metrics_table_text(rows: Sequence[dict]) -> str:
    """Render metric rows as the canonical CSV (deterministic float text)."""
    lines = [",".join(METRIC_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                [str(row["condition"])]
                + [repr(float(row[c])) for c in METRIC_COLUMNS[1:]]
            )
        )
    return "\n".join(lines) + "\n"

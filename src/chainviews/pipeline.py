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

Everything is a pure function of (config, seed): worker threads only spread
per-instance work whose random streams are derived per item, so worker count
cannot change any output. Wall-clock timings in the report are the one
explicitly non-deterministic field.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .channels import generate_benchmark, sample_channel
from .datamodel import (
    MODALITY_V,
    REAL_PARENT,
    STEP_U_TO_V,
    STEP_V_TO_U,
    DatasetSchema,
    Instance,
    Label,
    SyntheticView,
    View,
)
from .diversity import StageDiversity, diversity_report, views_to_matrix
from .models import StudentModel, TeacherModel, TrainConfig, UnimodalModel, train
from .nn import log_softmax, softmax_xent
from .rng import derive_rng
from .selection import (
    RandomLinearEmbedder,
    SelectionPolicy,
    keep_count,
    rank_keep,
    random_scores,
    similarity_scores,
)

CONDITIONS = ("full", "no_ccg", "similarity_teacher", "random_teacher", "no_teacher", "unimodal")

METRIC_COLUMNS = ("condition", "accuracy", "precision", "recall", "f1")


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one curation run; see the module docstring for the loop."""

    ccg_rounds: int = 2  # selection+generation rounds after the initial batch
    initial_views: int = 30
    spawn_per_kept: tuple[int, ...] = (4, 1)  # children per kept view, one entry per round
    keep_fraction: float = 0.6
    policy_name: str = "teacher_loss"
    train_views: int = 6  # synthetic views fed to the student per instance
    infer_views: int = 6  # synthetic views fused per test instance
    infer_generate: int | None = None  # candidates generated at test time (None: initial_views)
    teacher: TrainConfig = field(default_factory=lambda: TrainConfig(learning_rate=0.02, steps=250, batch_size=48))
    student: TrainConfig = field(default_factory=lambda: TrainConfig(learning_rate=0.01, steps=350, batch_size=32))
    seed: int = 0
    shared_attention: bool = True
    teacher_warm_start: bool = False  # reuse the previous round's teacher weights
    infer_full_chain: bool = False  # test-time views pass through the whole chain
    pca_dim: int = 2
    gmm_components: int = 3
    workers: int = 1

    def __post_init__(self):
        if self.ccg_rounds < 0:
            raise ValueError("ccg_rounds must be >= 0")
        if len(self.spawn_per_kept) != self.ccg_rounds:
            raise ValueError(
                f"spawn_per_kept needs exactly {self.ccg_rounds} entries, got {len(self.spawn_per_kept)}"
            )
        if any(g < 0 for g in self.spawn_per_kept):
            raise ValueError("spawn counts must be non-negative")
        if self.initial_views < 1 or self.train_views < 1 or self.infer_views < 1:
            raise ValueError("view counts must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        SelectionPolicy(self.policy_name, self.keep_fraction)  # validates both

    def to_dict(self) -> dict:
        """Every field but ``workers``, which never changes a result."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
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
    rounds: tuple[RoundRecord, ...]
    final_pool_size: int  # v-side candidates per instance after the last generation
    metrics: dict
    diversity: tuple[StageDiversity, ...]
    timing: dict  # wall-clock seconds; excluded from determinism guarantees


@dataclass
class RunResult:
    instances: list[Instance]
    report: RunReport
    teacher: TeacherModel | None
    student: object  # StudentModel or UnimodalModel


def parallel_map(fn, items: Sequence, workers: int) -> list:
    """Order-preserving map; thread count never affects the result because
    every item draws from its own derived random stream."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# --- metrics -----------------------------------------------------------------


def compute_metrics(
    predictions: Sequence[int],
    labels: Sequence[int],
    schema: DatasetSchema,
    include_none: bool = False,
) -> dict:
    """Accuracy plus micro precision/recall/F1.

    When the schema names a none-of-the-above class it is excluded from the
    micro counts by default (predicting "none" for a "none" instance earns
    nothing); pass ``include_none=True`` to count it like any other class.
    Empty denominators yield 0.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1 or predictions.shape[0] == 0:
        raise ValueError("predictions and labels must be equal-length non-empty vectors")
    accuracy = float(np.mean(predictions == labels))
    excluded = None if include_none else schema.none_class
    tp = fp = fn = 0
    for c in range(schema.class_count):
        if c == excluded:
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


class Scorer:
    """The selection policy, chosen once from its name, as a scoring function.

    Scores are lower-is-better and ``rank_keep`` breaks ties by index. The
    teacher-loss policy scores a selection's candidates by the frozen
    final-pass losses of a teacher trained on them (``teacher`` holds the
    latest; ``warm_start`` trains it further instead of a fresh one), the
    student's pick by those stored losses and test-time views by the
    teacher's confidence. The other policies score every step alike:
    similarity to the real view, or a uniform draw per (step, instance);
    keep_all keeps every candidate, so its selection scores are all zero.
    """

    def __init__(self, policy_name: str, schema: DatasetSchema, seed: int, teacher=None, warm_start=False):
        self.policy = SelectionPolicy(policy_name)
        self.schema = schema
        self.seed = seed
        self.teacher = teacher
        self.warm_start = warm_start
        self.embedder = (
            RandomLinearEmbedder(schema.u_spec, schema.v_spec, self.policy.embed_dim, seed=seed)
            if policy_name == "similarity"
            else None
        )

    def scores(self, instance: Instance, views: Sequence, stream) -> list:
        """Scores of one instance's views at selection ``stream`` (its index),
        at the student's pick ("student-pick") or at test time ("infer-pick").
        Teacher-loss selections go through ``select``."""
        name = self.policy.name
        if name == "similarity":
            return similarity_scores(views, instance.real_view, self.embedder)
        if name == "teacher_loss":
            if stream == "student-pick":
                return [sv.teacher_loss for sv in views]
            if self.teacher is None:
                return [0.0] * len(views)
            # the loss against the teacher's own most likely label: label-free
            logits = self.teacher.logits([(v, instance.entities) for v in views])
            return (-np.max(log_softmax(logits), axis=1)).tolist()
        if name == "keep_all" and isinstance(stream, int):
            return [0.0] * len(views)
        return random_scores(len(views), self.seed, stream, instance.id)

    def select(
        self, instances: Sequence[Instance], live: list[list[int]], selection_index: int, teacher_config: TrainConfig
    ) -> list[list[float]]:
        """Per-instance scores of the live candidates at one selection."""
        if not self.policy.needs_teacher:
            return [
                self.scores(inst, [inst.synthetic_pool[c] for c in ids], selection_index)
                for inst, ids in zip(instances, live)
            ]
        if not (self.warm_start and self.teacher is not None):
            self.teacher = TeacherModel(derive_rng(self.seed, "teacher-init", selection_index), self.schema)
        samples = [
            ((inst.synthetic_pool[c].view, inst.entities), inst.label.value)
            for inst, ids in zip(instances, live)
            for c in ids
        ]
        cfg = replace(teacher_config, seed=self.seed)
        _, losses = train(self.teacher, samples, cfg, rng_stream=("teacher-train", selection_index))
        per_instance, cursor = [], 0
        for ids in live:
            per_instance.append([float(x) for x in losses[cursor : cursor + len(ids)]])
            cursor += len(ids)
        return per_instance


# --- stepwise building blocks ---------------------------------------------------
#
# run_pipeline is these calls in order, so driving them by hand with one
# Scorer reproduces it exactly. Liveness is explicit: a v-side view is a
# candidate for the next selection if the previous selection kept it (its
# ``selected`` flag) or if it was generated after that selection, i.e. in
# the round after it.


def _live_ids(instance: Instance, fresh_round: int) -> list[int]:
    return [
        i
        for i, sv in enumerate(instance.synthetic_pool)
        if sv.step == STEP_U_TO_V and (sv.selected or sv.round == fresh_round)
    ]


def run_round0(
    instances: Sequence[Instance], g_uv, config: PipelineConfig
) -> list[Instance]:
    """Give every instance its initial batch of generated views.

    Requires empty synthetic pools; each instance ends up with exactly
    ``config.initial_views`` round-0 views parented to the real view.
    """
    occupied = [inst.id for inst in instances if inst.synthetic_pool]
    if occupied:
        raise PipelineError(f"instances already hold synthetic views: {occupied[:5]}")

    def build(instance: Instance) -> Instance:
        pool = []
        for j in range(config.initial_views):
            rng = derive_rng(config.seed, "gen", instance.id, 0, j)
            view = sample_channel(g_uv, instance.real_view, rng)
            pool.append(SyntheticView(view=view, round=0, step=STEP_U_TO_V, parent_id=REAL_PARENT))
        return instance.with_pool(pool)

    return parallel_map(build, instances, config.workers)


def _spawn_children(instance: Instance, parents: list[int], round_index: int, spawn: int, g_vu, g_uv, seed: int):
    pool = list(instance.synthetic_pool)
    for parent_idx in parents:
        for j in range(spawn):
            rng = derive_rng(seed, "gen", instance.id, round_index, parent_idx, j)
            u_view = sample_channel(g_vu, pool[parent_idx].view, rng)
            pool.append(SyntheticView(view=u_view, round=round_index, step=STEP_V_TO_U, parent_id=parent_idx))
            v_view = sample_channel(g_uv, u_view, rng)
            pool.append(SyntheticView(view=v_view, round=round_index, step=STEP_U_TO_V, parent_id=len(pool) - 1))
    return instance.with_pool(pool)


def run_ccg_round(
    instances: Sequence[Instance],
    round_index: int,
    g_vu,
    g_uv,
    spawn: int,
    teacher_config: TrainConfig,
    keep_fraction: float,
    schema: DatasetSchema,
    seed: int = 0,
    workers: int = 1,
    *,
    scorer: Scorer | None = None,
    rounds: list[RoundRecord] | None = None,
) -> list[Instance]:
    """One selection-plus-generation round.

    ``round_index`` is 1-based: round 1 judges the initial views. ``scorer``
    (default: teacher loss) scores every live candidate; the teacher policy
    trains a teacher on them and writes its frozen final-pass losses back as
    ``teacher_loss``. The best ``keep_fraction`` per instance (all of them
    under keep_all) keep their ``selected`` flag, and each kept view spawns
    ``spawn`` children (u-side then v-side, both recorded). Pass one scorer
    (built for this ``schema`` and ``seed``) to every round to keep its
    teacher, and a list as ``rounds`` to collect each round's RoundRecord.
    """
    if round_index < 1:
        raise PipelineError("round_index is 1-based")
    if spawn < 0:
        raise PipelineError("spawn must be non-negative")
    scorer = scorer or Scorer("teacher_loss", schema, seed)
    selection_index = round_index - 1
    instances = list(instances)
    live = [_live_ids(inst, selection_index) for inst in instances]
    if any(not ids for ids in live):
        raise PipelineError("every instance needs at least one live candidate view")

    scores = scorer.select(instances, live, selection_index, teacher_config)
    records, kept = [], []
    for idx, instance in enumerate(instances):
        ids = live[idx]
        k = len(ids) if scorer.policy.name == "keep_all" else keep_count(keep_fraction, len(ids))
        kept_local = set(rank_keep(scores[idx], k))
        pool = list(instance.synthetic_pool)
        for local, cand in enumerate(ids):
            sv = pool[cand].scored(scores[idx][local]) if scorer.policy.needs_teacher else pool[cand]
            pool[cand] = sv.with_selected(local in kept_local)
        instances[idx] = instance.with_pool(pool)
        kept.append([cand for local, cand in enumerate(ids) if local in kept_local])
        records.append(InstanceSelectionRecord(instance.id, tuple(ids), tuple(scores[idx]), tuple(kept[-1])))
    if rounds is not None:
        pool_sizes = {len(r.candidate_ids) for r in records}
        kept_sizes = {len(r.kept_ids) for r in records}
        if len(pool_sizes) != 1 or len(kept_sizes) != 1:
            raise PipelineError("instances diverged in pool size; balanced worlds cannot do that")
        rounds.append(RoundRecord(selection_index, pool_sizes.pop(), kept_sizes.pop(), spawn, tuple(records)))
    if spawn > 0:
        instances = parallel_map(
            lambda pair: _spawn_children(pair[0], pair[1], round_index, spawn, g_vu, g_uv, seed),
            list(zip(instances, kept)),
            workers,
        )
    return instances


def score_trailing(instances: Sequence[Instance], teacher: TeacherModel, workers: int = 1) -> list[Instance]:
    """Give every v-side view that carries no loss one from ``teacher``.

    After the last selection these are its children, so the student's pick
    then compares every live candidate under the final teacher.
    """

    def score(instance: Instance) -> Instance:
        pool = list(instance.synthetic_pool)
        todo = [i for i, sv in enumerate(pool) if sv.step == STEP_U_TO_V and sv.teacher_loss is None]
        if not todo:
            return instance
        logits = teacher.logits([(pool[i].view, instance.entities) for i in todo])
        losses, _ = softmax_xent(logits, [instance.label.value] * len(todo))
        for i, loss in zip(todo, losses):
            pool[i] = pool[i].scored(float(loss))
        return instance.with_pool(pool)

    return parallel_map(score, instances, workers)


def train_student(
    instances: Sequence[Instance],
    n_train: int,
    student_config: TrainConfig,
    schema: DatasetSchema,
    seed: int = 0,
    teacher: TeacherModel | None = None,
    shared_attention: bool = True,
    *,
    policy_name: str = "teacher_loss",
    fresh_round: int | None = None,
) -> StudentModel:
    """Train the fusion student on each instance's best live candidates.

    The live candidates are the last selection's keepers plus the views
    generated in ``fresh_round`` (default: the newest round in the pools).
    Per instance the policy's ``n_train`` best join the real view and
    entities. The teacher-loss policy ranks by stored loss: pass the final
    round's ``teacher`` to first score the views generated after the last
    selection (as ``score_trailing`` does); without one, only views that
    already carry a loss are ranked.
    """
    if teacher is not None:
        instances = score_trailing(instances, teacher)
    if fresh_round is None:
        fresh_round = max((sv.round for inst in instances for sv in inst.synthetic_pool), default=0)
    scorer = Scorer(policy_name, schema, seed)
    samples = []
    for instance in instances:
        views = [instance.synthetic_pool[c] for c in _live_ids(instance, fresh_round)]
        ranked = [(s, sv.view) for s, sv in zip(scorer.scores(instance, views, "student-pick"), views) if s is not None]
        if len(ranked) < n_train:
            raise PipelineError(
                f"instance {instance.id} has {len(ranked)} scored candidate views, needs {n_train}"
            )
        chosen = tuple(ranked[i][1] for i in rank_keep([s for s, _ in ranked], n_train))
        samples.append(((instance.real_view, chosen, instance.entities), instance.label.value))
    student = StudentModel(derive_rng(seed, "student-init"), schema, shared_attention=shared_attention)
    train(student, samples, replace(student_config, seed=seed), rng_stream=("student-train",))
    return student


def infer(
    student: StudentModel,
    teacher: TeacherModel | None,
    instance: Instance,
    g_uv,
    config: PipelineConfig,
    g_vu=None,
    real_v: View | None = None,
) -> Label:
    """Classify one test instance.

    Fresh views come from the round-0 channel, or from the whole chain when
    ``config.infer_full_chain`` (which needs ``g_vu``). The config's policy
    keeps the ``config.infer_views`` best: under teacher loss the ones the
    teacher classifies most confidently (the first generated without a
    teacher), under similarity the closest to the real view, otherwise a
    uniform draw. A real v-side view, when supplied, joins the set unscored.
    """
    if config.infer_full_chain and g_vu is None:
        raise PipelineError("infer_full_chain needs g_vu, the v-to-u channel")
    views = []
    for j in range(config.infer_generate or config.initial_views):
        rng = derive_rng(config.seed, "infer-gen", instance.id, j)
        view = sample_channel(g_uv, instance.real_view, rng)
        if config.infer_full_chain:
            for _ in range(config.ccg_rounds):
                view = sample_channel(g_uv, sample_channel(g_vu, view, rng), rng)
        views.append(view)
    scorer = Scorer(config.policy_name, student.schema, config.seed, teacher=teacher)
    chosen = [views[i] for i in rank_keep(scorer.scores(instance, views, "infer-pick"), config.infer_views)]
    if real_v is not None:
        if real_v.modality != MODALITY_V or not real_v.matches(student.schema.v_spec):
            raise PipelineError("appended real view does not match the synthetic-side spec")
        chosen.append(real_v)
    (logits,) = student.logits([(instance.real_view, tuple(chosen), instance.entities)])
    return Label(int(np.argmax(logits)))


def stage_diversity(
    instances: Sequence[Instance], schema: DatasetSchema, config: PipelineConfig
) -> tuple[StageDiversity, ...]:
    """Generalized variance of every stage of a finished run with two or
    more views."""
    stages = extract_stages(instances, schema)
    usable = {name: m for name, m in stages.items() if m.shape[0] >= 2}
    if not usable:
        return ()
    pca_dim = min(config.pca_dim, schema.v_spec.size)
    return tuple(diversity_report(usable, pca_dim, config.gmm_components, seed=config.seed))


# --- the run --------------------------------------------------------------------


def _run_unimodal(train_instances, test_instances, schema, config: PipelineConfig, digest: str) -> RunResult:
    t0 = time.perf_counter()
    rng = derive_rng(config.seed, "unimodal-init")
    model = UnimodalModel(rng, schema)
    samples = [((inst.real_view, inst.entities), inst.label.value) for inst in train_instances]
    cfg = replace(config.student, seed=config.seed)
    train(model, samples, cfg, rng_stream=("unimodal-train",))
    train_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    predictions = np.argmax(model.logits([(inst.real_view, inst.entities) for inst in test_instances]), axis=1)
    labels = [inst.label.value for inst in test_instances]
    metrics = compute_metrics(predictions, labels, schema)
    report = RunReport(
        condition="unimodal",
        config_digest=digest,
        seed=config.seed,
        ccg_rounds=0,
        rounds=(),
        final_pool_size=0,
        metrics=metrics,
        diversity=(),
        timing={"train_student": train_seconds, "evaluate": time.perf_counter() - t0},
    )
    return RunResult(instances=list(train_instances), report=report, teacher=None, student=model)


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

    The run is the stepwise calls in order: ``run_round0``, one
    ``run_ccg_round`` per round (one selection with no children when
    ``ccg_rounds=0``), ``score_trailing``, ``train_student`` and ``infer``
    per test instance, all sharing one Scorer.
    """
    if condition not in CONDITIONS:
        raise PipelineError(f"unknown condition {condition!r}; choose one of {CONDITIONS}")
    digest = config_digest or config_hash({"pipeline": config.to_dict(), "condition": condition})
    if condition == "unimodal":
        return _run_unimodal(train_instances, test_instances, schema, config, digest)
    seed, workers = config.seed, config.workers
    timing: dict[str, float] = {}

    t0 = time.perf_counter()
    instances = run_round0(train_instances, g_uv, config)
    timing["generate_initial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scorer = Scorer(config.policy_name, schema, seed, warm_start=config.teacher_warm_start)
    rounds: list[RoundRecord] = []
    for round_index, spawn in enumerate(config.spawn_per_kept or (0,), start=1):
        instances = run_ccg_round(
            instances, round_index, g_vu, g_uv, spawn, config.teacher, config.keep_fraction, schema, seed, workers,
            scorer=scorer, rounds=rounds,
        )
    if scorer.teacher is not None:
        instances = score_trailing(instances, scorer.teacher, workers)
    timing["rounds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    student = train_student(
        instances, config.train_views, config.student, schema, seed,
        shared_attention=config.shared_attention, policy_name=config.policy_name, fresh_round=len(rounds),
    )
    timing["train_student"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    predictions = parallel_map(
        lambda inst: infer(student, scorer.teacher, inst, g_uv, config, g_vu).value, test_instances, workers
    )
    metrics = compute_metrics(predictions, [inst.label.value for inst in test_instances], schema)
    timing["evaluate"] = time.perf_counter() - t0

    report = RunReport(
        condition=condition,
        config_digest=digest,
        seed=seed,
        ccg_rounds=config.ccg_rounds,
        rounds=tuple(rounds),
        final_pool_size=len(_live_ids(instances[0], len(rounds))) if instances else 0,
        metrics=metrics,
        diversity=stage_diversity(instances, schema, config),
        timing=timing,
    )
    return RunResult(instances=instances, report=report, teacher=scorer.teacher, student=student)


def condition_config(base: PipelineConfig, condition: str) -> PipelineConfig:
    """Config tweaks per ablation condition; everything else stays shared."""
    if condition in ("full", "unimodal"):
        return base
    if condition == "no_ccg":
        return replace(base, ccg_rounds=0, spawn_per_kept=())
    if condition == "similarity_teacher":
        return replace(base, policy_name="similarity")
    if condition == "random_teacher":
        return replace(base, policy_name="random")
    if condition == "no_teacher":
        return replace(base, policy_name="keep_all")
    raise PipelineError(f"unknown condition {condition!r}")


# --- stage extraction ---------------------------------------------------------


def extract_stages(instances: Sequence[Instance], schema: DatasetSchema) -> dict[str, np.ndarray]:
    """Per-stage view matrices recovered from provenance alone.

    Raw stages gather v-side views by generation round ("V1'", "V2'", ...).
    Kept stages ("V0", "V1", ...) are the parents of the next round's
    children -- a view was kept at selection s exactly when a round-(s+1)
    u-side view points at it -- with the final selection falling back to the
    stored ``selected`` flags when no later round exists to encode it.
    """
    rounds = {sv.round for inst in instances for sv in inst.synthetic_pool}
    if not rounds:
        return {}
    max_round = max(rounds)

    kept_by_stage: dict[int, list[View]] = {}
    raw_by_round: dict[int, list[View]] = {}
    # A selection with no children after it leaves no parent links, but its
    # verdict is still in the selected flags (nothing later rewrote them).
    # That happened exactly when the newest round's views carry a True flag;
    # the kept set is then every currently-flagged v-side view.
    ended_with_selection = any(
        sv.selected
        for inst in instances
        for sv in inst.synthetic_pool
        if sv.step == STEP_U_TO_V and sv.round == max_round
    )
    flagged: list[View] = []
    for inst in instances:
        pool = inst.synthetic_pool
        for sv in pool:
            if sv.step == STEP_U_TO_V:
                raw_by_round.setdefault(sv.round, []).append(sv.view)
                if sv.selected:
                    flagged.append(sv.view)
        for s in range(max_round):
            parents = sorted(
                {
                    sv.parent_id
                    for sv in pool
                    if sv.round == s + 1 and sv.step == STEP_V_TO_U and sv.parent_id != REAL_PARENT
                }
            )
            if parents:
                kept_by_stage.setdefault(s, []).extend(pool[p].view for p in parents)
    if ended_with_selection:
        kept_by_stage.setdefault(max_round, []).extend(flagged)

    stages: dict[str, np.ndarray] = {}
    for s in range(max_round + 1):
        if s in kept_by_stage:
            stages[f"V{s}"] = views_to_matrix(kept_by_stage[s], schema.v_spec)
        if s + 1 in raw_by_round:
            stages[f"V{s + 1}'"] = views_to_matrix(raw_by_round[s + 1], schema.v_spec)
    return stages


# --- ablation -----------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    condition: str
    seed: int
    accuracy: float
    precision: float
    recall: float
    f1: float


def run_ablation(
    make_world,
    base_config: PipelineConfig,
    seeds: Sequence[int],
    conditions: Sequence[str] = CONDITIONS,
    n_train_per_class: int = 35,
    n_test_per_class: int = 75,
) -> tuple[list[AblationRow], list[RunReport]]:
    """Run every condition on shared per-seed benchmarks.

    ``make_world`` maps a seed to ``(world, g_uv, g_vu, v_spec)``; the same
    generated train/test instances and the same master seed feed every
    condition, so rows differ only in the condition itself.
    """
    for condition in conditions:
        if condition not in CONDITIONS:
            raise PipelineError(f"unknown condition {condition!r}")
    rows: list[AblationRow] = []
    reports: list[RunReport] = []
    for seed in seeds:
        world, g_uv, g_vu, v_spec = make_world(seed)
        train_instances, schema = generate_benchmark(world, n_train_per_class, v_spec, stream="train")
        test_instances, _ = generate_benchmark(world, n_test_per_class, v_spec, stream="test")
        for condition in conditions:
            config = replace(condition_config(base_config, condition), seed=seed)
            result = run_pipeline(train_instances, test_instances, schema, g_uv, g_vu, config, condition)
            rows.append(AblationRow(condition, seed, *(result.report.metrics[c] for c in METRIC_COLUMNS[1:])))
            reports.append(result.report)
    return rows, reports


def ablation_table(rows: Sequence[AblationRow]) -> list[dict]:
    """Per-seed rows plus one ``<condition>_mean`` row per condition, all with
    the metric columns condition/accuracy/precision/recall/f1."""
    columns = METRIC_COLUMNS[1:]
    table = [{"condition": row.condition, **{c: getattr(row, c) for c in columns}} for row in rows]
    for condition in dict.fromkeys(row.condition for row in rows):
        group = [row for row in rows if row.condition == condition]
        means = {c: float(np.mean([getattr(r, c) for r in group])) for c in columns}
        table.append({"condition": f"{condition}_mean", **means})
    return table


# --- report serialization ------------------------------------------------------


def report_to_dict(report: RunReport) -> dict:
    return {
        "condition": report.condition,
        "config_digest": report.config_digest,
        "seed": report.seed,
        "ccg_rounds": report.ccg_rounds,
        "final_pool_size": report.final_pool_size,
        "metrics": report.metrics,
        "rounds": [
            {
                "selection_index": r.selection_index,
                "pool_size": r.pool_size,
                "kept_size": r.kept_size,
                "spawned": r.spawned,
                "per_instance": [
                    {
                        "instance_id": p.instance_id,
                        "candidate_ids": list(p.candidate_ids),
                        "scores": list(p.scores),
                        "kept_ids": list(p.kept_ids),
                    }
                    for p in r.per_instance
                ],
            }
            for r in report.rounds
        ],
        "diversity": [asdict(d) for d in report.diversity],
        "timing": report.timing,
    }


def save_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=False)
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

"""Core value types and the on-disk dataset format.

An :class:`Instance` is one labeled example: an entity pair, one real view in
the primary modality ("u"), and a pool of synthetic views produced by
cross-modal channels. Synthetic views carry provenance (generation round,
channel direction, parent view) plus curation state (teacher loss and
survival count), which is everything later stages need to reconstruct how
the pool evolved.

Datasets serialize to line-delimited JSON: the first line is the schema
record, every following line is one instance. The encoding is canonical
(fixed key order, shortest round-trip floats), so ``read(write(x))`` followed
by another ``write`` is byte-identical. Layout of an instance line::

    {"id": 0, "label": 2, "subject": 1, "object": 5,
     "real_view": {"kind": "vector", "data": [...]},
     "synthetic_views": [
        {"round": 0, "step": "u_to_v", "parent_id": -1,
         "teacher_loss": 0.41, "survived": 2,
         "view": {"kind": "vector", "data": [...]}},
        ...]}

``parent_id`` is the index of the parent view within ``synthetic_views``;
``-1`` denotes the instance's real view. ``teacher_loss`` is present iff a
teacher has scored the view. ``survived`` counts the consecutive
selections that kept the view, starting with selection ``round``, the first
one that judges it; a discarded view is never a candidate again, so the
count is its whole selection history. Views on the "u" side of a ``v_to_u``
step are intermediate products, kept for provenance with ``survived`` 0.

Version 1 files stored a boolean selection flag instead of ``survived``;
they are read only when no instance holds synthetic views.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

FORMAT_VERSION = 2

MODALITY_U = "u"
MODALITY_V = "v"

STEP_U_TO_V = "u_to_v"
STEP_V_TO_U = "v_to_u"

REAL_PARENT = -1


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ViewSpec:
    """Shape contract for one modality: vector dimension or alphabet size."""

    kind: str  # "vector" | "discrete"
    size: int

    def __post_init__(self):
        if self.kind not in ("vector", "discrete"):
            raise ValueError(f"unknown view kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("view size must be positive")


@dataclass(frozen=True, eq=False)
class View:
    """One observation in one modality.

    ``data`` is a float vector for kind "vector" and an int symbol sequence
    for kind "discrete". Arrays are treated as immutable once constructed.
    """

    kind: str
    data: np.ndarray
    modality: str

    def __post_init__(self):
        if self.kind == "vector":
            arr = np.asarray(self.data, dtype=np.float64)
        elif self.kind == "discrete":
            arr = np.asarray(self.data, dtype=np.int64)
        else:
            raise ValueError(f"unknown view kind {self.kind!r}")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("view data must be a non-empty 1-d array")
        object.__setattr__(self, "data", arr)
        if self.modality not in (MODALITY_U, MODALITY_V):
            raise ValueError(f"unknown modality {self.modality!r}")

    def matches(self, spec: ViewSpec) -> bool:
        if self.kind != spec.kind:
            return False
        if self.kind == "vector":
            return self.data.shape[0] == spec.size
        return bool(self.data.shape[0] >= 1 and np.all(self.data >= 0) and np.all(self.data < spec.size))

    def equals(self, other: "View") -> bool:
        return (
            self.kind == other.kind
            and self.modality == other.modality
            and np.array_equal(self.data, other.data)
        )


def vector_view(data, modality: str) -> View:
    return View(kind="vector", data=np.asarray(data, dtype=np.float64), modality=modality)


def discrete_view(data, modality: str) -> View:
    return View(kind="discrete", data=np.asarray(data, dtype=np.int64), modality=modality)


@dataclass(frozen=True)
class Label:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("label must be non-negative")


@dataclass(frozen=True)
class EntityPair:
    subject: int
    object: int

    def __post_init__(self):
        if self.subject < 0 or self.object < 0:
            raise ValueError("entity ids must be non-negative")


@dataclass(frozen=True, eq=False)
class SyntheticView:
    """A generated view plus its provenance and curation state."""

    view: View
    round: int
    step: str  # STEP_U_TO_V | STEP_V_TO_U
    parent_id: int  # index into the instance pool, REAL_PARENT for the real view
    teacher_loss: float | None = None
    survived: int = 0  # consecutive selections that kept it, from selection ``round`` on

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round must be non-negative")
        if self.step not in (STEP_U_TO_V, STEP_V_TO_U):
            raise ValueError(f"unknown step {self.step!r}")
        if self.parent_id < REAL_PARENT:
            raise ValueError("parent_id must be >= -1")
        expected = MODALITY_V if self.step == STEP_U_TO_V else MODALITY_U
        if self.view.modality != expected:
            raise ValueError(f"step {self.step} must produce a {expected!r}-side view")
        if self.survived < 0:
            raise ValueError("survived must be non-negative")
        if self.survived and self.step != STEP_U_TO_V:
            raise ValueError("only v-side views face selection")

    def scored(self, loss: float) -> "SyntheticView":
        return replace(self, teacher_loss=float(loss))

    def kept(self) -> "SyntheticView":
        """This view after one more selection kept it."""
        return replace(self, survived=self.survived + 1)


@dataclass(frozen=True, eq=False)
class Instance:
    id: int
    label: Label
    entities: EntityPair
    real_view: View
    synthetic_pool: tuple[SyntheticView, ...] = ()

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("instance id must be non-negative")
        if self.real_view.modality != MODALITY_U:
            raise ValueError("real view must live on the u side")

    def with_pool(self, pool: Iterable[SyntheticView]) -> "Instance":
        return replace(self, synthetic_pool=tuple(pool))


@dataclass(frozen=True)
class DatasetSchema:
    class_count: int
    entity_vocab: int
    u_spec: ViewSpec
    v_spec: ViewSpec
    none_class: int | None = None

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.entity_vocab < 1:
            raise ValueError("entity vocabulary must be positive")
        if self.none_class is not None and not (0 <= self.none_class < self.class_count):
            raise ValueError("none_class outside label range")


@dataclass(frozen=True)
class Violation:
    instance_id: int | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def raise_if_invalid(self):
        if not self.ok:
            lines = "; ".join(
                f"[{v.instance_id if v.instance_id is not None else 'schema'}] {v.message}"
                for v in self.violations[:10]
            )
            raise ValueError(f"dataset failed validation: {lines}")


def _ancestry_depth(instance: Instance, index: int) -> int | None:
    """Hops from pool view ``index`` to the real view, None on a broken chain."""
    hops = 0
    seen = set()
    current = index
    while current != REAL_PARENT:
        if current in seen or not (0 <= current < len(instance.synthetic_pool)):
            return None
        seen.add(current)
        parent = instance.synthetic_pool[current].parent_id
        # a parent must predate its child in the pool, which rules out cycles
        if parent >= current:
            return None
        hops += 1
        current = parent
    return hops


def validate_instance(instance: Instance, schema: DatasetSchema) -> list[Violation]:
    out: list[Violation] = []

    def bad(message: str):
        out.append(Violation(instance.id, message))

    if not (0 <= instance.label.value < schema.class_count):
        bad(f"label {instance.label.value} outside [0, {schema.class_count})")
    for name, ent in (("subject", instance.entities.subject), ("object", instance.entities.object)):
        if not (0 <= ent < schema.entity_vocab):
            bad(f"{name} entity {ent} outside vocabulary of size {schema.entity_vocab}")
    if not instance.real_view.matches(schema.u_spec):
        bad("real view does not match the u-side spec")
    if instance.real_view.kind == "vector" and not np.all(np.isfinite(instance.real_view.data)):
        bad("real view contains non-finite values")

    for i, sv in enumerate(instance.synthetic_pool):
        spec = schema.v_spec if sv.view.modality == MODALITY_V else schema.u_spec
        if not sv.view.matches(spec):
            bad(f"view {i} does not match the {sv.view.modality}-side spec")
        if sv.view.kind == "vector" and not np.all(np.isfinite(sv.view.data)):
            bad(f"view {i} contains non-finite values")
        if sv.teacher_loss is not None and not (math.isfinite(sv.teacher_loss) and sv.teacher_loss >= 0):
            bad(f"view {i} has invalid teacher loss {sv.teacher_loss}")
        depth = _ancestry_depth(instance, i)
        if depth is None:
            bad(f"view {i} has a broken ancestry chain")
        elif depth > 2 * (sv.round + 1):
            bad(f"view {i} ancestry depth {depth} exceeds 2*(round+1)={2 * (sv.round + 1)}")
    return out


def validate_dataset(instances: Iterable[Instance], schema: DatasetSchema) -> ValidationReport:
    """Check every instance against the schema and structural invariants."""
    violations: list[Violation] = []
    seen_ids: set[int] = set()
    for instance in instances:
        if instance.id in seen_ids:
            violations.append(Violation(instance.id, "duplicate instance id"))
        seen_ids.add(instance.id)
        violations.extend(validate_instance(instance, schema))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# --- serialization ---------------------------------------------------------


def _encode_view(view: View) -> dict:
    if view.kind == "vector":
        data = [float(x) for x in view.data]
    else:
        data = [int(x) for x in view.data]
    return {"kind": view.kind, "data": data}


def _decode_view(record: dict, modality: str, line: int) -> View:
    try:
        kind = record["kind"]
        data = record["data"]
    except (KeyError, TypeError):
        raise DatasetFormatError("view record must carry 'kind' and 'data'", line)
    try:
        return View(kind=kind, data=data, modality=modality)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DatasetFormatError(f"bad view: {exc}", line)


def _encode_spec(spec: ViewSpec) -> dict:
    return {"kind": spec.kind, "size": spec.size}


def _int_field(record: dict, key: str, line: int) -> int:
    """``record[key]`` as an int; bools, strings and non-integral numbers
    are rejected rather than coerced."""
    value = record[key]
    if type(value) is int:  # not a bool
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DatasetFormatError(f"{key} must be an integer, got {value!r}", line)


def _decode_spec(record: dict, line: int) -> ViewSpec:
    try:
        return ViewSpec(kind=record["kind"], size=_int_field(record, "size", line))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad view spec: {exc}", line)


def _encode_instance(instance: Instance) -> dict:
    views = []
    for sv in instance.synthetic_pool:
        record = {
            "round": sv.round,
            "step": sv.step,
            "parent_id": sv.parent_id,
        }
        if sv.teacher_loss is not None:
            record["teacher_loss"] = float(sv.teacher_loss)
        record["survived"] = sv.survived
        record["view"] = _encode_view(sv.view)
        views.append(record)
    return {
        "id": instance.id,
        "label": instance.label.value,
        "subject": instance.entities.subject,
        "object": instance.entities.object,
        "real_view": _encode_view(instance.real_view),
        "synthetic_views": views,
    }


def _check_finite(real_view: View, pool: list[SyntheticView], line: int) -> None:
    """One finiteness check over all view data of an instance line.

    ``json.loads`` reads a literal that overflows a float, such as ``1e999``,
    as infinity without calling ``parse_constant``, so it is caught here.
    """
    datas = [real_view.data] + [sv.view.data for sv in pool]
    if np.isfinite(np.concatenate(datas)).all():
        return
    bad = next(i for i, data in enumerate(datas) if not np.isfinite(data).all())
    where = "the real view" if bad == 0 else f"synthetic view {bad - 1}"
    raise DatasetFormatError(f"{where} holds a non-finite number", line)


def _decode_instance(record: dict, line: int) -> Instance:
    try:
        pool = []
        for sv_rec in record["synthetic_views"]:
            step = sv_rec["step"]
            if step not in (STEP_U_TO_V, STEP_V_TO_U):
                raise DatasetFormatError(f"unknown step {step!r}", line)
            modality = MODALITY_V if step == STEP_U_TO_V else MODALITY_U
            loss = sv_rec.get("teacher_loss")
            if loss is not None:
                loss = float(loss)
                if not math.isfinite(loss):
                    raise DatasetFormatError(f"view {len(pool)} has a non-finite teacher loss", line)
            pool.append(
                SyntheticView(
                    view=_decode_view(sv_rec["view"], modality, line),
                    round=_int_field(sv_rec, "round", line),
                    step=step,
                    parent_id=_int_field(sv_rec, "parent_id", line),
                    teacher_loss=loss,
                    survived=_int_field(sv_rec, "survived", line),
                )
            )
        real_view = _decode_view(record["real_view"], MODALITY_U, line)
        _check_finite(real_view, pool, line)
        return Instance(
            id=_int_field(record, "id", line),
            label=Label(_int_field(record, "label", line)),
            entities=EntityPair(subject=_int_field(record, "subject", line), object=_int_field(record, "object", line)),
            real_view=real_view,
            synthetic_pool=tuple(pool),
        )
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad instance record: {exc}", line)


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def write_dataset(instances: Iterable[Instance], schema: DatasetSchema, sink) -> None:
    """Write schema plus instances to ``sink`` (path or text file object)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="\n") as handle:
            write_dataset(instances, schema, handle)
            return
    header = {
        "version": FORMAT_VERSION,
        "class_count": schema.class_count,
        "entity_vocab": schema.entity_vocab,
        "u_spec": _encode_spec(schema.u_spec),
        "v_spec": _encode_spec(schema.v_spec),
        "none_class": schema.none_class,
    }
    sink.write(_dumps(header) + "\n")
    for instance in instances:
        sink.write(_dumps(_encode_instance(instance)) + "\n")


def dataset_to_string(instances: Iterable[Instance], schema: DatasetSchema) -> str:
    buf = io.StringIO()
    write_dataset(instances, schema, buf)
    return buf.getvalue()


def read_dataset(source) -> tuple[list[Instance], DatasetSchema]:
    """Parse a dataset from ``source`` (path, text file object, or string).

    Raises :class:`DatasetFormatError` with a line number on malformed input.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "r", encoding="utf-8") as handle:
            return read_dataset(handle)
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = source.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty dataset: missing schema line")

    def parse_json(text: str, line: int) -> dict:
        def reject_constant(name: str):
            # the writer never emits these (allow_nan=False)
            raise DatasetFormatError(f"non-finite number {name} is not allowed", line)

        try:
            record = json.loads(text, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON ({exc.msg})", line)
        if not isinstance(record, dict):
            raise DatasetFormatError("expected a JSON object", line)
        return record

    header = parse_json(lines[0], 1)
    version = header.get("version")
    if version not in (1, FORMAT_VERSION):
        raise DatasetFormatError(f"unsupported format version {version!r}", 1)
    try:
        schema = DatasetSchema(
            class_count=_int_field(header, "class_count", 1),
            entity_vocab=_int_field(header, "entity_vocab", 1),
            u_spec=_decode_spec(header["u_spec"], 1),
            v_spec=_decode_spec(header["v_spec"], 1),
            none_class=None if header.get("none_class") is None else _int_field(header, "none_class", 1),
        )
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad schema record: {exc}", 1)

    instances = []
    for offset, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        record = parse_json(text, offset)
        if version == 1 and record.get("synthetic_views"):
            raise DatasetFormatError(
                "format version 1 stores selection flags, not survival counts; "
                "re-run to write this dataset in the current format",
                offset,
            )
        instances.append(_decode_instance(record, offset))
    return instances, schema

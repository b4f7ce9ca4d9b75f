"""Core value types and the on-disk dataset format.

An :class:`Instance` holds the fields of its record (below): ints ``id``,
``label``, ``subject`` and ``object``, the real view as a one-row u-side
:class:`ViewBatch` and a :class:`Pool` of synthetic views produced by
cross-modal channels. A pool is columnar: one array per field, indexed in
pool order -- ``round``, ``step`` and ``parent_id`` (provenance),
``teacher_loss`` (NaN while unscored) and ``survived`` (curation state) --
plus one read-only data matrix per side, holding that side's views as rows
in pool order. That is everything later stages need to reconstruct how the
pool evolved. A pool is never updated: the pipeline curates a split in one
store and builds each instance's pool once, at the end, from read-only rows
of the store's arrays. A :class:`ViewBatch` is the same kind of matrix on its
own: what a channel takes and returns.

Datasets are line-delimited JSON, format version 4 (the only one read): a
schema line, then one line per instance, laid out as the pool is held::

    {"id": 0, "label": 2, "subject": 1, "object": 5, "real_view": M,
     "pool": {"round": C, "step": C, "parent_id": C, "teacher_loss": C,
              "survived": C, "v": M, "u": M}}

``C`` is a pool column as the base64 of its little-endian 8-byte values:
``<f8`` for ``teacher_loss``, ``<i8`` for the rest, ``step`` stored as 0 for
``u_to_v`` and 1 for ``v_to_u``. ``M`` is ``{"kind", "shape": [rows, width],
"data"}``, ``data`` the base64 of the rows' little-endian bytes (``<f8``
vectors, ``<i8`` symbols); the real view is one row and an empty side is
``null``. Decoded by hand::

    column = np.frombuffer(base64.b64decode(c), "<i8")  # "<f8" for teacher_loss
    dtype = "<f8" if m["kind"] == "vector" else "<i8"
    matrix = np.frombuffer(base64.b64decode(m["data"]), dtype).reshape(m["shape"])

``parent_id`` -1 is the real view. ``teacher_loss`` is NaN (its bits kept)
until a teacher scores the view. ``survived`` counts the consecutive selections that kept
the view from selection ``round``, the first that judges it, on; a discarded
view is never a candidate again. ``v_to_u`` views are intermediate products,
kept for provenance with ``survived`` 0. The encoding is canonical, so
``write(read(write(x)))`` is byte-identical to ``write(x)``.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

FORMAT_VERSION = 4

MODALITY_U = "u"
MODALITY_V = "v"

STEP_U_TO_V = "u_to_v"
STEP_V_TO_U = "v_to_u"

REAL_PARENT = -1

_DTYPES = {"vector": np.float64, "discrete": np.int64}


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_int(name: str, value, low: int, error=ValueError):
    """``value`` if it is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer of at least {low}")
        raise error(f"{name} must be {kind}, got {value!r}")
    return value


def is_real(value) -> bool:
    """Whether ``value`` is an int or float (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_number(name: str, value, error=ValueError, positive: bool = False):
    """``value`` if it is a finite real number above 0 (``positive``) or at least 0."""
    if not (is_real(value) and (value > 0 if positive else value >= 0)):
        raise error(f"{name} must be a finite {'positive' if positive else 'non-negative'} number, got {value!r}")
    return value


@dataclass(frozen=True)
class ViewSpec:
    """Shape contract for one modality: vector dimension or alphabet size."""

    kind: str  # "vector" | "discrete"
    size: int

    def __post_init__(self):
        if self.kind not in ("vector", "discrete"):
            raise ValueError(f"unknown view kind {self.kind!r}")
        check_int("view size", self.size, 1)


def rows_match(kind: str, data: np.ndarray, spec: ViewSpec) -> np.ndarray:
    """Per row of ``data`` (one view per row): does that view fit ``spec``?"""
    if kind != spec.kind:
        return np.zeros(data.shape[0], dtype=bool)
    if kind == "vector":
        return np.full(data.shape[0], data.shape[1] == spec.size)
    return np.all((data >= 0) & (data < spec.size), axis=1)


@dataclass(frozen=True, eq=False)
class ViewBatch:
    """``B`` views of one kind on one side as one ``(B, width)`` array: float
    vectors for kind "vector", symbol sequences of one length for
    "discrete". Channels take and return batches."""

    kind: str
    modality: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in _DTYPES:
            raise ValueError(f"unknown view kind {self.kind!r}")
        if self.modality not in (MODALITY_U, MODALITY_V):
            raise ValueError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "data", np.asarray(self.data, dtype=_DTYPES[self.kind]))
        if self.data.ndim != 2 or self.data.shape[1] == 0:
            raise ValueError("view data must be a 2-d array of non-empty views")

    def __len__(self) -> int:
        return self.data.shape[0]

    def take(self, rows) -> "ViewBatch":
        return ViewBatch(self.kind, self.modality, self.data[rows])


def vector_view(data, modality: str) -> ViewBatch:
    return ViewBatch("vector", modality, [data])


def discrete_view(data, modality: str) -> ViewBatch:
    return ViewBatch("discrete", modality, [data])


_POOL_COLUMNS = {"round": np.int64, "step": np.str_, "parent_id": np.int64, "teacher_loss": np.float64, "survived": np.int64}


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` read-only; a writeable one is copied first, so that arrays
    the caller still holds stay writeable."""
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Pool:
    """One instance's synthetic views: one read-only array per field, in
    pool order, plus one data matrix per side.

    ``v`` holds the rows of the ``u_to_v`` views and ``u`` those of the
    ``v_to_u`` views, each in pool order (``None`` while a side is empty).
    ``teacher_loss`` is NaN for a view no teacher has scored. A read-only
    array handed in is kept as it is (the pipeline hands in row views of
    whole-split arrays); a writeable one is copied before it is frozen.
    """

    round: np.ndarray
    step: np.ndarray  # STEP_U_TO_V | STEP_V_TO_U per view
    parent_id: np.ndarray  # pool index of the parent, REAL_PARENT for the real view
    teacher_loss: np.ndarray
    survived: np.ndarray  # consecutive selections that kept it, from selection ``round`` on
    v: ViewBatch | None = None
    u: ViewBatch | None = None
    is_v: np.ndarray = field(init=False, repr=False)  # step == STEP_U_TO_V

    def __post_init__(self):
        for name, dtype in _POOL_COLUMNS.items():
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=dtype)))
        shapes = {name: getattr(self, name).shape for name in _POOL_COLUMNS}
        if self.round.ndim != 1 or len(set(shapes.values())) > 1:
            lengths = {name: shape[0] if len(shape) == 1 else shape for name, shape in shapes.items()}
            raise ValueError(f"pool columns must be of one length and 1-d, got lengths {lengths}")
        object.__setattr__(self, "is_v", self.step == STEP_U_TO_V)
        is_u = self.step == STEP_V_TO_U
        for values, bad, fault in (
            (self.step, ~(self.is_v | is_u), "has unknown step {!r}"),
            (self.round, self.round < 0, "has round {}, which must be non-negative"),
            (self.survived, self.survived < 0, "has survival count {}, which must be non-negative"),
            (self.survived, is_u & (self.survived != 0), "has survival count {}, but only v-side views face selection"),
        ):
            if np.count_nonzero(bad):  # count_nonzero is the cheap test on arrays this small
                i = int(np.argmax(bad))
                raise ValueError(f"view {i} {fault.format(values[i].item())}")
        for side, modality, count in ((self.v, MODALITY_V, np.count_nonzero(self.is_v)), (self.u, MODALITY_U, np.count_nonzero(is_u))):
            if side is not None and side.modality != modality:
                raise ValueError(f"the {modality} matrix holds {side.modality}-side views")
            if (rows := 0 if side is None else len(side)) != count:
                raise ValueError(f"the {modality} matrix holds {rows} rows for {count} {modality}-side views")
            if side is not None and side.data.flags.writeable:
                object.__setattr__(self, modality, ViewBatch(side.kind, modality, _frozen(side.data)))

    def __len__(self) -> int:
        return len(self.round)

    def v_rows(self, ids) -> ViewBatch:
        """The v-side views at pool indices ``ids``, in that order."""
        if not self.is_v[ids].all():
            raise ValueError("v_rows takes the pool indices of v-side views only")
        return self.v.take(np.cumsum(self.is_v)[ids] - 1)


EMPTY_POOL = Pool(round=(), step=(), parent_id=(), teacher_loss=(), survived=())


@dataclass(frozen=True, eq=False)
class Instance:
    id: int
    label: int
    subject: int
    object: int
    real_view: ViewBatch
    synthetic_pool: Pool = EMPTY_POOL

    def __post_init__(self):
        for name in ("id", "label", "subject", "object"):
            value = check_int(f"instance {name}", getattr(self, name), 0)
            object.__setattr__(self, name, int(value))  # a plain int, as the line template writes it
        if self.real_view.modality != MODALITY_U or len(self.real_view) != 1:
            raise ValueError("the real view must be one u-side row")


@dataclass(frozen=True)
class DatasetSchema:
    class_count: int
    entity_vocab: int
    u_spec: ViewSpec
    v_spec: ViewSpec
    none_class: int | None = None

    def __post_init__(self):
        if check_int("class_count", self.class_count, 1) < 2:
            raise ValueError("need at least two classes")
        check_int("entity_vocab", self.entity_vocab, 1)
        if self.none_class is not None and check_int("none_class", self.none_class, 0) >= self.class_count:
            raise ValueError("none_class outside label range")


# --- serialization ---------------------------------------------------------

_WIRE = {"vector": np.dtype("<f8"), "discrete": np.dtype("<i8")}  # 8 bytes per element on disk
_COLUMN_WIRE = {"round": "<i8", "step": "<i8", "parent_id": "<i8", "teacher_loss": "<f8", "survived": "<i8"}
_STEPS = np.array([STEP_U_TO_V, STEP_V_TO_U])  # indexed by the step code on disk


def _integer(value, key: str, line: int) -> int:
    """``value``, read for ``key``, as an int; bools, strings and
    non-integral numbers are rejected rather than coerced."""
    if type(value) is int:  # not a bool
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DatasetFormatError(f"{key} must be an integer, got {value!r}", line)


def _decode_spec(record: dict, line: int) -> ViewSpec:
    try:
        return ViewSpec(kind=record["kind"], size=_integer(record["size"], "size", line))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad view spec: {exc}", line)


def _base64(array: np.ndarray, wire) -> str:
    return base64.b64encode(array.astype(wire, copy=False).tobytes()).decode("ascii")  # row-major whatever the strides


def _unbase64(text, what: str, line: int) -> bytes:
    """Strict base64: the alphabet and its padding, nothing else."""
    if type(text) is not str:
        raise DatasetFormatError(f"{what} must be a base64 string, got {type(text).__name__}", line)
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise DatasetFormatError(f"{what} is not base64 ({exc})", line)


def _encode_matrix(batch: ViewBatch | None) -> str:
    """A batch of views as the JSON text of its kind, shape and the base64
    of its row-major little-endian bytes."""
    if batch is None:
        return "null"
    rows, width = batch.data.shape
    return f'{{"kind":"{batch.kind}","shape":[{rows},{width}],"data":"{_base64(batch.data, _WIRE[batch.kind])}"}}'


def _decode_matrix(record, modality: str, line: int) -> ViewBatch:
    """The inverse of :func:`_encode_matrix`; :func:`_check_instance` checks
    the views against the schema."""
    try:
        kind, shape, text = record["kind"], record["shape"], record["data"]
    except (KeyError, TypeError):
        raise DatasetFormatError("bad view: a matrix must carry 'kind', 'shape' and 'data'", line)
    if type(shape) is not list or len(shape) != 2 or not all(type(n) is int and n > 0 for n in shape):
        raise DatasetFormatError(f"bad view: shape must be two positive integers, got {shape!r}", line)
    if kind not in _WIRE:
        raise DatasetFormatError(f"bad view: unknown view kind {kind!r}", line)
    rows, width = shape
    raw = _unbase64(text, "bad view: data", line)
    if len(raw) != rows * width * 8:
        raise DatasetFormatError(f"bad view: shape {shape} needs {rows * width * 8} bytes, data holds {len(raw)}", line)
    return ViewBatch(kind, modality, np.frombuffer(raw, dtype=_WIRE[kind]).reshape(rows, width))


def _check_instance(instance: Instance, schema: DatasetSchema) -> None:
    """Refuse, as a ValueError naming the field or view, what the reader
    refuses in a well-formed instance: a label or entity outside the
    schema's counts; a view of another kind or width than its side's spec,
    or holding a symbol outside the alphabet or a non-finite number; a
    negative or infinite teacher loss (NaN is unscored); a view that does
    not descend from an earlier one as the generator alternates its steps.
    The reader and the writer both call it; a Pool does not, as the
    pipeline builds many more Pools than it writes."""
    for name, bound in (("label", schema.class_count), ("subject", schema.entity_vocab), ("object", schema.entity_vocab)):
        if (value := getattr(instance, name)) >= bound:
            raise ValueError(f"{name} {value} is outside [0, {bound})")
    pool = instance.synthetic_pool
    sides = ((pool.v, schema.v_spec, pool.is_v), (pool.u, schema.u_spec, ~pool.is_v), (instance.real_view, schema.u_spec, None))
    for batch, spec, on_side in sides:
        if batch is None:
            continue
        if batch.kind != spec.kind or (batch.kind == "vector" and batch.data.shape[1] != spec.size):
            raise ValueError(
                f"bad view: the schema's {batch.modality}-side views are {spec.kind} of size {spec.size}, "
                f"got {batch.kind} views of length {batch.data.shape[1]}"
            )
        fits, finite = rows_match(batch.kind, batch.data, spec), np.isfinite(batch.data).all(axis=1)
        for ok, fault in ((fits, f"a symbol outside [0, {spec.size})"), (finite, "a non-finite number")):
            if not ok.all():
                view = "the real view" if on_side is None else f"synthetic view {np.flatnonzero(on_side)[np.argmin(ok)]}"
                raise ValueError(f"{view} holds {fault}")
    losses = pool.teacher_loss
    for bad, fault in ((np.isinf(losses), "has a non-finite teacher loss"), (losses < 0, "has a negative teacher loss")):
        if bad.any():
            raise ValueError(f"view {int(np.argmax(bad))} {fault}")
    # a parent predates its child, so every chain reaches the real view; the
    # generator alternates, so a u_to_v view descends from the real view or a
    # v_to_u view of its round, a v_to_u view from a u_to_v view of an earlier
    # one. Together these bound a chain at 2 * (round + 1) hops.
    parent, rounds, is_v = pool.parent_id, pool.round, pool.is_v
    real = parent == REAL_PARENT
    linked = (parent >= REAL_PARENT) & (parent < np.arange(len(parent)))
    at = np.where(linked & ~real, parent, 0)
    parent_v, parent_round = is_v[at], rounds[at]
    fits = linked & np.where(is_v, real | (~parent_v & (parent_round == rounds)), ~real & parent_v & (parent_round < rounds))
    if not fits.all():
        i = int(np.argmin(fits))
        raise ValueError(f"view {i} ({pool.step[i]}, round {rounds[i]}) cannot descend from view {parent[i]}")


_LINE = (
    '{{"id":{},"label":{},"subject":{},"object":{},"real_view":{},"pool":{{"round":"{}","step":"{}",'
    '"parent_id":"{}","teacher_loss":"{}","survived":"{}","v":{},"u":{}}}}}\n'
)


def _encode_instance(instance: Instance, schema: DatasetSchema) -> str:
    """One instance's line, filled into :data:`_LINE`: every field is an int,
    a kind name, base64 text or null, so the line is the text of
    ``json.dumps(record, separators=(",", ":"))`` without its string scan.
    An instance the reader would refuse is a ValueError naming its id."""
    try:
        _check_instance(instance, schema)
    except ValueError as exc:
        raise ValueError(f"instance {instance.id}: {exc}") from None
    pool = instance.synthetic_pool
    columns = map(_base64, (pool.round, ~pool.is_v, pool.parent_id, pool.teacher_loss, pool.survived), _COLUMN_WIRE.values())
    fields = (instance.id, instance.label, instance.subject, instance.object, _encode_matrix(instance.real_view))
    return _LINE.format(*fields, *columns, _encode_matrix(pool.v), _encode_matrix(pool.u))


def _decode_column(text, key: str, line: int) -> np.ndarray:
    """The pool column ``key``: base64 of little-endian 8-byte values."""
    raw = _unbase64(text, f"bad pool column: {key}", line)
    if len(raw) % 8:
        raise DatasetFormatError(f"bad pool column: {key} holds {len(raw)} bytes, not a whole number of 8-byte values", line)
    return np.frombuffer(raw, _COLUMN_WIRE[key])


def _decode_pool(record: dict, line: int) -> Pool:
    """One instance's ``pool`` record as a :class:`Pool`."""
    columns = {key: _decode_column(record[key], key, line) for key in _COLUMN_WIRE}
    codes = columns["step"]
    if (unknown := (codes != 0) & (codes != 1)).any():
        i = int(np.argmax(unknown))
        raise DatasetFormatError(f"view {i} has unknown step code {codes[i]}", line)
    columns["step"] = _STEPS[codes]
    sides = {m: _decode_matrix(record[m], m, line) for m, code in ((MODALITY_V, 0), (MODALITY_U, 1))
             if record[m] is not None or (codes == code).any()}
    try:
        return Pool(**columns, **sides)
    except ValueError as exc:
        raise DatasetFormatError(str(exc), line) from None


def _decode_instance(record: dict, line: int, schema: DatasetSchema) -> Instance:
    try:
        pool = _decode_pool(record["pool"], line)
        instance = Instance(
            id=_integer(record["id"], "id", line),
            label=_integer(record["label"], "label", line),
            subject=_integer(record["subject"], "subject", line),
            object=_integer(record["object"], "object", line),
            real_view=_decode_matrix(record["real_view"], MODALITY_U, line),
            synthetic_pool=pool,
        )
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"bad instance record: {exc}", line)
    try:
        _check_instance(instance, schema)
    except ValueError as exc:
        raise DatasetFormatError(str(exc), line) from None
    return instance


def _dataset_lines(instances: Iterable[Instance], schema: DatasetSchema) -> Iterator[str]:
    header = {
        "version": FORMAT_VERSION,
        "class_count": schema.class_count,
        "entity_vocab": schema.entity_vocab,
        "u_spec": asdict(schema.u_spec),
        "v_spec": asdict(schema.v_spec),
        "none_class": schema.none_class,
    }
    yield json.dumps(header, separators=(",", ":")) + "\n"
    for instance in instances:
        yield _encode_instance(instance, schema)


def write_dataset(instances: Iterable[Instance], schema: DatasetSchema, sink) -> None:
    """Write schema plus instances to the path ``sink`` (``str`` or ``Path``;
    :func:`dataset_to_string` is the in-memory form).

    The path gets the whole dataset or nothing: the lines go to a temporary
    file beside it that replaces it only after the last line, so an
    instance that fails to encode leaves no file, or the old one untouched.
    """
    if not isinstance(sink, (str, Path)):
        raise TypeError(f"write_dataset takes a path (str or Path), not {type(sink).__name__}")
    path = Path(sink)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_dataset_lines(instances, schema))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def dataset_to_string(instances: Iterable[Instance], schema: DatasetSchema) -> str:
    return "".join(_dataset_lines(instances, schema))


def _utf8_lines(handle) -> Iterator[str]:
    """The lines of a binary file, split at ``b"\\n"`` and decoded one at a
    time; a line that is not UTF-8 is a format error on that line."""
    for number, raw in enumerate(handle, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"not UTF-8 ({exc})", number) from None


def read_dataset(path) -> tuple[list[Instance], DatasetSchema]:
    """Parse the dataset file at ``path`` (a ``str`` or a ``Path``; anything
    else is a ``TypeError``).

    The file is read one line at a time, so beyond the instances a read
    holds about one line. A line ends at ``b"\\n"``, as the writer writes it
    (a ``"\\r"`` before it is JSON whitespace), and is decoded as UTF-8 on
    its own.

    This is the one check of a dataset. Beyond a malformed line, it refuses
    a label or entity outside the schema's counts, a repeated id, a view that
    does not fit its side's spec or holds a non-finite number, a negative or
    infinite teacher loss, and a view that does not descend from an earlier
    one as the generator alternates its steps. Each raises
    :class:`DatasetFormatError` naming the line.
    """
    if not isinstance(path, (str, Path)):
        raise TypeError(f"read_dataset takes a path (str or Path), not {type(path).__name__}")
    with open(path, "rb") as handle:
        return _parse_lines(_utf8_lines(handle))


def _parse_lines(lines: Iterator[str]) -> tuple[list[Instance], DatasetSchema]:
    first = next(lines, None)
    if first is None:
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

    header = parse_json(first, 1)
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported format version {version!r}: only version {FORMAT_VERSION} is read; "
            "re-run to write the dataset in it",
            1,
        )
    try:
        schema = DatasetSchema(
            class_count=_integer(header["class_count"], "class_count", 1),
            entity_vocab=_integer(header["entity_vocab"], "entity_vocab", 1),
            u_spec=_decode_spec(header["u_spec"], 1),
            v_spec=_decode_spec(header["v_spec"], 1),
            none_class=None if header.get("none_class") is None else _integer(header["none_class"], "none_class", 1),
        )
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad schema record: {exc}", 1)

    instances, ids = [], set()
    for offset, text in enumerate(lines, start=2):
        if not text or text.isspace():
            continue
        instance = _decode_instance(parse_json(text, offset), offset, schema)
        if instance.id in ids:
            raise DatasetFormatError(f"duplicate instance id {instance.id}", offset)
        ids.add(instance.id)
        instances.append(instance)
    return instances, schema

"""Domain types and the line-delimited dataset format, with the checks reading it makes."""

import base64
import io
import itertools
import json
import re
import struct
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainviews.datamodel import (
    MODALITY_U,
    MODALITY_V,
    REAL_PARENT,
    STEP_U_TO_V,
    STEP_V_TO_U,
    DatasetFormatError,
    DatasetSchema,
    Instance,
    Pool,
    ViewBatch,
    ViewSpec,
    dataset_to_string,
    discrete_view,
    read_dataset,
    rows_match,
    vector_view,
    write_dataset,
)
from conftest import make_pool, recolumn


def make_instance(iid=0, label=0, pool=()):
    return Instance(
        id=iid,
        label=label,
        subject=0,
        object=1,
        real_view=vector_view([0.1 * iid, -1.0], MODALITY_U),
        synthetic_pool=make_pool(pool),
    )


_TEXT_FILES = tempfile.TemporaryDirectory(prefix="chainviews-datasets-")
_TEXT_FILE_NUMBERS = itertools.count()


def from_text(text):
    """Dataset text written to a new file: the path ``read_dataset`` reads."""
    path = Path(_TEXT_FILES.name) / f"{next(_TEXT_FILE_NUMBERS)}.jsonl"
    path.write_bytes(text.encode("utf-8"))
    return path


def make_schema(**overrides):
    fields = dict(
        class_count=3,
        entity_vocab=4,
        u_spec=ViewSpec("vector", 2),
        v_spec=ViewSpec("vector", 2),
    )
    fields.update(overrides)
    return DatasetSchema(**fields)


# --- construction invariants -------------------------------------------------


# one entity may fill both roles
GOOD_FIELDS = dict(id=0, label=0, subject=2, object=2, real_view=vector_view([0.0, 0.0], MODALITY_U))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", -1, "instance id must be a non-negative integer, got -1"),
        ("label", -1, "instance label must be a non-negative integer, got -1"),
        ("subject", -1, "instance subject must be a non-negative integer, got -1"),
        ("object", -1, "instance object must be a non-negative integer, got -1"),
        ("real_view", ViewBatch("vector", MODALITY_U, np.zeros((0, 2))), "one u-side row"),
        ("real_view", ViewBatch("vector", MODALITY_U, np.zeros((2, 2))), "one u-side row"),
        ("real_view", vector_view([0.0, 0.0], MODALITY_V), "one u-side row"),
    ],
    ids=["negative_id", "negative_label", "negative_subject", "negative_object", "no_rows", "two_rows", "v_side"],
)
def test_instance_refuses_negative_ints_and_a_real_view_not_one_u_side_row(field, value, message):
    Instance(**GOOD_FIELDS)
    with pytest.raises(ValueError, match=message):
        Instance(**{**GOOD_FIELDS, field: value})


@pytest.mark.parametrize("value", [True, 1.5, 1.0, "1", np.float64(2.0), None], ids=["bool", "fraction", "float", "string", "numpy_float", "none"])
@pytest.mark.parametrize("field", ["id", "label", "subject", "object"])
def test_instance_refuses_a_non_integer_field_naming_it(field, value):
    # the line template writes each field as is: 1.5 must never reach it as a label
    with pytest.raises(ValueError, match=re.escape(f"instance {field} must be a non-negative integer, got {value!r}")):
        Instance(**{**GOOD_FIELDS, field: value})


def test_instance_stores_numpy_ints_as_int():
    inst = Instance(np.int64(3), np.int32(1), np.uint8(2), np.int16(0), GOOD_FIELDS["real_view"])
    assert [type(getattr(inst, name)) for name in ("id", "label", "subject", "object")] == [int] * 4
    text = dataset_to_string([inst], make_schema())
    assert '{"id":3,"label":1,"subject":2,"object":0,' in text
    assert read_dataset(from_text(text))[0][0].id == 3


def test_label_rejects_negative():
    with pytest.raises(ValueError, match="instance label must be a non-negative integer, got -1"):
        Instance(**{**GOOD_FIELDS, "label": -1})


@pytest.mark.parametrize("size", [2.5, 2.0, True, "2", None, 0, -1])
def test_view_spec_size_must_be_a_positive_integer(size):
    with pytest.raises(ValueError, match=re.escape(f"view size must be a positive integer, got {size!r}")):
        ViewSpec("vector", size)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("class_count", 1.5, "class_count must be a positive integer, got 1.5"),
        ("class_count", True, "class_count must be a positive integer, got True"),
        ("class_count", "3", "class_count must be a positive integer, got '3'"),
        ("class_count", 1, "need at least two classes"),
        ("entity_vocab", 4.0, "entity_vocab must be a positive integer, got 4.0"),
        ("entity_vocab", 0, "entity_vocab must be a positive integer, got 0"),
        ("none_class", 0.5, "none_class must be a non-negative integer, got 0.5"),
        ("none_class", False, "none_class must be a non-negative integer, got False"),
        ("none_class", -1, "none_class must be a non-negative integer, got -1"),
        ("none_class", 3, "none_class outside label range"),
    ],
)
def test_schema_refuses_counts_that_are_not_integers_in_range(field, value, message):
    make_schema()
    with pytest.raises(ValueError, match=re.escape(message)):
        make_schema(**{field: value})


def test_entity_pair_allows_same_id_distinct_roles():
    inst = Instance(**GOOD_FIELDS)
    assert inst.subject == inst.object == 2


def test_view_rejects_unknown_kind_and_modality():
    with pytest.raises(ValueError, match="unknown view kind"):
        ViewBatch(kind="audio", modality=MODALITY_U, data=[[1.0]])
    with pytest.raises(ValueError, match="unknown modality"):
        ViewBatch(kind="vector", modality="w", data=[[1.0]])
    with pytest.raises(ValueError, match="non-empty views"):
        vector_view([], MODALITY_U)


def test_a_nan_real_view_is_refused_at_read_time():
    # the writer refuses it as well (test_nan_payload_cannot_be_written)
    text = edited([make_instance()], make_schema(), 2, lambda record: with_bits(record, "real_view", 0, 1, np.nan))
    with pytest.raises(DatasetFormatError, match="^line 2: the real view holds a non-finite number") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


def test_negative_symbols_fail_the_spec_match():
    schema = make_schema(v_spec=ViewSpec("discrete", 4))
    views = ViewBatch("discrete", MODALITY_V, [[0, 3], [0, -2]])
    assert rows_match(views.kind, views.data, schema.v_spec).tolist() == [True, False]


def test_view_matches_spec():
    view = vector_view([1.0, 2.0], MODALITY_V)
    assert rows_match(view.kind, view.data, ViewSpec("vector", 2)).tolist() == [True]
    assert rows_match(view.kind, view.data, ViewSpec("vector", 3)).tolist() == [False]
    assert rows_match(view.kind, view.data, ViewSpec("discrete", 2)).tolist() == [False]


def test_a_pool_leaves_the_callers_arrays_writeable():
    data, survived = np.array([[0.0, 1.0]]), np.array([0])
    v = ViewBatch("vector", MODALITY_V, data)
    pool = Pool(round=[0], step=[STEP_U_TO_V], parent_id=[REAL_PARENT], teacher_loss=[np.nan], survived=survived, v=v)
    assert data.flags.writeable and v.data.flags.writeable and survived.flags.writeable
    assert not pool.v.data.flags.writeable and not pool.survived.flags.writeable
    data[0, 0], survived[0] = 5.0, 3
    assert pool.v.data[0, 0] == 0.0 and pool.survived[0] == 0  # the pool froze copies


@pytest.mark.parametrize("index", [0, 2])
def test_a_negative_teacher_loss_names_the_pool_index(index):
    # a teacher's loss is a cross-entropy: never below 0, though -0.0 is 0
    def edit(record):
        recolumn(record["pool"], "teacher_loss", lambda losses: [-0.5 if i == index else x for i, x in enumerate(losses)])

    with pytest.raises(DatasetFormatError, match=f"^line 2: view {index} has a negative teacher loss$"):
        read_dataset(from_text(edited([make_instance(pool=THREE_VIEWS)], make_schema(), 2, edit)))
    losses = [np.nan] * 3
    losses[index] = -0.0
    pool = [row + (loss,) for row, loss in zip(THREE_VIEWS, losses)]
    [loaded], _ = read_dataset(from_text(dataset_to_string([make_instance(pool=pool)], make_schema())))
    assert_same_bits(loaded.synthetic_pool.teacher_loss[index : index + 1], np.array([-0.0]))


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("round", [0, -1, 1], "view 1 has round -1, which must be non-negative"),
        ("step", [STEP_U_TO_V, STEP_V_TO_U, "sideways"], "view 2 has unknown step 'sideways'"),
        ("survived", [0, 0, -2], "view 2 has survival count -2, which must be non-negative"),
        ("survived", [0, 1, 0], "view 1 has survival count 1, but only v-side views face selection"),
        ("parent_id", [REAL_PARENT, 0], "pool columns must be of one length and 1-d, got lengths "
         "{'round': 3, 'step': 3, 'parent_id': 2, 'teacher_loss': 3, 'survived': 3}"),
    ],
    ids=["negative_round", "unknown_step", "negative_survival", "u_side_survival", "unequal_columns"],
)
def test_pool_refusals_name_the_view_and_its_value(column, values, message):
    # the reader turns each of these into a DatasetFormatError on the line
    pool = make_pool(THREE_VIEWS)
    columns = {name: getattr(pool, name) for name in ("round", "step", "parent_id", "teacher_loss", "survived")}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Pool(**{**columns, column: values}, v=pool.v, u=pool.u)


@pytest.mark.parametrize(
    "pool, message",
    [
        ([(0, STEP_U_TO_V, 1, [0.0, 0.0]), (0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0])], "view 0 (u_to_v, round 0) cannot descend from view 1"),
        ([(0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0], -0.5)], "view 0 has a negative teacher loss"),
        ([(0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0], float("inf"))], "view 0 has a non-finite teacher loss"),
    ],
    ids=["parent_after_child", "negative_loss", "infinite_loss"],
)
def test_the_writer_refuses_a_pool_the_reader_refuses(tmp_path, pool, message):
    # a Pool holds these, but no file is written that would not read back
    instances = [make_instance(0), make_instance(3, pool=pool)]
    with pytest.raises(ValueError, match=f"^{re.escape(f'instance 3: {message}')}$"):
        dataset_to_string(instances, make_schema())
    with pytest.raises(ValueError, match=re.escape(message)):
        write_dataset(instances, make_schema(), tmp_path / "dataset.jsonl")
    assert list(tmp_path.iterdir()) == []


def discrete_pool(*rows):
    """A pool of round-0 v-side symbol sequences ``rows``, each parented to the real view."""
    n = len(rows)
    return Pool([0] * n, [STEP_U_TO_V] * n, [REAL_PARENT] * n, [float("nan")] * n, [0] * n, v=ViewBatch("discrete", MODALITY_V, rows))


@pytest.mark.parametrize(
    "instance, schema, message",
    [
        (make_instance(3, 3), make_schema(class_count=3), "label 3 is outside [0, 3)"),
        (replace(make_instance(3), subject=4), make_schema(), "subject 4 is outside [0, 4)"),
        (replace(make_instance(3), object=9), make_schema(), "object 9 is outside [0, 4)"),
        (replace(make_instance(3), real_view=vector_view([0.0, 0.0, 0.0], MODALITY_U)), make_schema(),
         "bad view: the schema's u-side views are vector of size 2, got vector views of length 3"),
        (make_instance(3, pool=[(0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0, 0.0])]), make_schema(),
         "bad view: the schema's v-side views are vector of size 2, got vector views of length 3"),
        (make_instance(3, pool=[(0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0])]), make_schema(v_spec=ViewSpec("discrete", 4)),
         "bad view: the schema's v-side views are discrete of size 4, got vector views of length 2"),
        (replace(make_instance(3), synthetic_pool=discrete_pool([0, 3], [0, 7])), make_schema(v_spec=ViewSpec("discrete", 4)),
         "synthetic view 1 holds a symbol outside [0, 4)"),
        (make_instance(3, pool=[(0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0]), (0, STEP_U_TO_V, REAL_PARENT, [np.nan, 0.0])]),
         make_schema(), "synthetic view 1 holds a non-finite number"),
        (replace(make_instance(3), real_view=vector_view([np.inf, 0.0], MODALITY_U)), make_schema(),
         "the real view holds a non-finite number"),
    ],
    ids=["label", "subject", "object", "real_view_width", "pool_view_width", "pool_view_kind", "symbol", "synthetic_nan", "real_inf"],
)
def test_the_writer_refuses_what_the_reader_refuses_against_the_schema(tmp_path, instance, schema, message):
    # the reader refuses each of these on the line; the writer names the id
    instances = [make_instance(0), instance]
    with pytest.raises(ValueError, match=f"^{re.escape(f'instance 3: {message}')}$"):
        dataset_to_string(instances, schema)
    with pytest.raises(ValueError, match=f"^{re.escape(f'instance 3: {message}')}$"):
        write_dataset(instances, schema, tmp_path / "dataset.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_the_writer_takes_a_path_only():
    with pytest.raises(TypeError, match="^write_dataset takes a path \\(str or Path\\), not StringIO$"):
        write_dataset([make_instance()], make_schema(), io.StringIO())


def test_step_and_modality_must_agree():
    with pytest.raises(ValueError):
        Pool(
            round=[0],
            step=[STEP_U_TO_V],  # u_to_v must land on the v side
            parent_id=[REAL_PARENT],
            teacher_loss=[float("nan")],
            survived=[0],
            u=ViewBatch("vector", MODALITY_U, [[0.0, 0.0]]),
        )


# --- the checks a read makes ---------------------------------------------------


def read_text(instances, schema):
    """What ``read_dataset`` makes of the text the writer writes for ``instances``."""
    return read_dataset(from_text(dataset_to_string(instances, schema)))


def test_a_well_formed_dataset_reads_back():
    instances = [make_instance(i, i % 3) for i in range(3)]
    loaded, schema = read_text(instances, make_schema())
    assert schema == make_schema()
    assert [(i.id, i.label) for i in loaded] == [(0, 0), (1, 1), (2, 2)]


def read_under(instances, schema, **header):
    """What ``read_dataset`` makes of ``instances`` written under ``schema``
    with the schema line's ``header`` fields replaced. The writer refuses
    an instance that does not fit its schema, so a misfit is made this way."""
    return read_dataset(from_text(edited(instances, schema, 1, lambda record: record.update(header))))


def test_a_label_outside_the_classes_names_the_line():
    # 3 == class_count, one past the end
    instances = [make_instance(0, 2), replace(make_instance(1, 2), label=3)]
    with pytest.raises(DatasetFormatError, match=re.escape("line 3: label 3 is outside [0, 3)")) as err:
        read_under(instances, make_schema(class_count=4), class_count=3)
    assert err.value.line == 3


def test_a_real_view_of_another_width_than_the_schema_names_the_line():
    with pytest.raises(DatasetFormatError, match="^line 2: bad view: the schema's u-side views are vector of size 3, got vector views of length 2") as err:
        read_under([make_instance()], make_schema(), u_spec={"kind": "vector", "size": 3})
    assert err.value.line == 2


def test_a_real_view_of_two_rows_names_the_line():
    # the Instance refuses it, and the reader reports that on the line
    text = edited([make_instance()], make_schema(), 2, lambda record: record.update(real_view=encode("vector", [[0.0, 1.0], [2.0, 3.0]])))
    with pytest.raises(DatasetFormatError, match="^line 2: bad instance record: the real view must be one u-side row$") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


def test_a_repeated_instance_id_names_its_second_line():
    with pytest.raises(DatasetFormatError, match="^line 4: duplicate instance id 5$") as err:
        read_text([make_instance(5), make_instance(6), make_instance(5)], make_schema())
    assert err.value.line == 4


@pytest.mark.parametrize("field", ["subject", "object"])
def test_an_entity_outside_the_vocabulary_names_the_line(field):
    instance = replace(make_instance(), **{field: 4})
    with pytest.raises(DatasetFormatError, match=re.escape(f"line 2: {field} 4 is outside [0, 4)")) as err:
        read_under([instance], make_schema(entity_vocab=5), entity_vocab=4)
    assert err.value.line == 2


def with_lineage(rows):
    """Dataset text of one instance whose pool holds ``(round, step,
    parent_id)`` rows of [0.0, 0.0] views. The writer refuses a lineage the
    generator cannot make, so views of the real view are written and their
    columns and matrices edited into the text."""
    steps = [int(step == STEP_V_TO_U) for _, step, _ in rows]
    sides = {"v": steps.count(0), "u": steps.count(1)}

    def edit(record):
        pool = record["pool"]
        for key, values in zip(("round", "step", "parent_id"), ([r for r, _, _ in rows], steps, [p for _, _, p in rows])):
            recolumn(pool, key, lambda _: values)
        pool.update({side: encode("vector", [[0.0, 0.0]] * n) if n else None for side, n in sides.items()})

    written = [(0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0])] * len(rows)
    return edited([make_instance(pool=written)], make_schema(), 2, edit)


def test_a_dangling_parent_names_the_view():
    with pytest.raises(DatasetFormatError, match=re.escape("line 2: view 0 (u_to_v, round 0) cannot descend from view 99")):
        read_dataset(from_text(with_lineage([(0, STEP_U_TO_V, 99)])))


def test_a_refused_dataset_is_a_value_error_carrying_its_line():
    # object 1 lies outside a one-entity vocabulary
    with pytest.raises(ValueError) as err:
        read_under([make_instance()], make_schema(), entity_vocab=1)
    assert isinstance(err.value, DatasetFormatError) and err.value.line == 2


def test_a_chain_as_deep_as_its_round_allows_reads_back():
    # chain real -> v0 -> u1 -> v1: every view reaches the real view within
    # 2*(round+1) hops
    v0 = (0, STEP_U_TO_V, REAL_PARENT, [0.0, 0.0])
    u1 = (1, STEP_V_TO_U, 0, [0.0, 0.0])
    v1 = (1, STEP_U_TO_V, 1, [0.0, 0.0])
    [loaded], _ = read_text([make_instance(pool=[v0, u1, v1])], make_schema())
    assert loaded.synthetic_pool.parent_id.tolist() == [REAL_PARENT, 0, 1]


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([(0, STEP_U_TO_V, REAL_PARENT), (0, STEP_U_TO_V, 0)], 1),  # u_to_v from u_to_v
        ([(1, STEP_V_TO_U, REAL_PARENT)], 0),  # v_to_u from the real view
        ([(1, STEP_U_TO_V, REAL_PARENT), (1, STEP_V_TO_U, 0)], 1),  # same round
        ([(0, STEP_U_TO_V, REAL_PARENT), (1, STEP_V_TO_U, 0), (2, STEP_U_TO_V, 1)], 2),  # u_to_v from a v_to_u view of an earlier round
        ([(0, STEP_U_TO_V, REAL_PARENT), (1, STEP_V_TO_U, 0), (2, STEP_V_TO_U, 1)], 2),  # v_to_u from v_to_u
    ],
    ids=["v_from_v", "u_from_real", "u_from_same_round", "v_from_older_u", "u_from_u"],
)
def test_a_read_checks_that_steps_alternate(rows, bad):
    # each pool is within the depth bound; only the generator's step order rules it out
    with pytest.raises(DatasetFormatError, match=rf"^line 2: view {bad} \(.*\) cannot descend from view ") as err:
        read_dataset(from_text(with_lineage(rows)))
    assert err.value.line == 2


def reference_ancestry_depth(parents, index):
    """Hops from pool view ``index`` to the real view, walked one view at a
    time; None on a broken chain (a parent that does not predate its child)."""
    hops, current = 0, index
    while current != REAL_PARENT:
        parent = parents[current]
        if not REAL_PARENT <= parent < current:
            return None
        hops, current = hops + 1, parent
    return hops


def first_refused_by_the_walk(rows):
    """The first view of ``(round, step, parent_id)`` rows whose chain breaks,
    runs deeper than 2 * (round + 1) hops or breaks the generator's step
    order, walked view by view; None when every view passes."""
    parents = [parent for _, _, parent in rows]
    for i, (round_, step, parent) in enumerate(rows):
        depth = reference_ancestry_depth(parents, i)
        if depth is None or depth > 2 * (round_ + 1):
            return i
        if parent == REAL_PARENT:
            step_ok = step == STEP_U_TO_V
        else:
            parent_round, parent_step, _ = rows[parent]
            if step == STEP_U_TO_V:
                step_ok = parent_step == STEP_V_TO_U and parent_round == round_
            else:
                step_ok = parent_step == STEP_U_TO_V and parent_round < round_
        if not step_ok:
            return i
    return None


@st.composite
def lineages(draw, min_views=0, max_views=8):
    """``(round, step, parent_id)`` rows as the generator makes them: a view
    of the real view is u_to_v of any round, a view of a v_to_u view is
    u_to_v of its round, a view of a u_to_v view is v_to_u of a later one."""
    rows = []
    for i in range(draw(st.integers(min_views, max_views))):
        parent = draw(st.integers(REAL_PARENT, i - 1))
        if parent == REAL_PARENT:
            rows.append((draw(st.integers(0, 3)), STEP_U_TO_V, parent))
        elif rows[parent][1] == STEP_V_TO_U:
            rows.append((rows[parent][0], STEP_U_TO_V, parent))
        else:
            rows.append((rows[parent][0] + draw(st.integers(1, 2)), STEP_V_TO_U, parent))
    return rows


ANY_ROW = st.tuples(st.integers(0, 3), st.sampled_from((STEP_U_TO_V, STEP_V_TO_U)), st.integers(-2, 7))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=lineages(min_views=1, max_views=7) | st.lists(ANY_ROW, min_size=1, max_size=7))
def test_a_read_accepts_a_pool_exactly_when_the_ancestry_walk_does(rows):
    parents = [parent for _, _, parent in rows]
    text = with_lineage(rows)
    refused = first_refused_by_the_walk(rows)
    if refused is None:
        [loaded], _ = read_dataset(from_text(text))
        assert loaded.synthetic_pool.parent_id.tolist() == parents
    else:
        with pytest.raises(DatasetFormatError, match=rf"^line 2: view {refused} \(.*\) cannot descend from view {parents[refused]}$"):
            read_dataset(from_text(text))


# --- serialization ---------------------------------------------------------------


def full_dataset(n=100):
    instances = []
    rng = np.random.default_rng(0)
    for i in range(n):
        pool = [
            (0, STEP_U_TO_V, REAL_PARENT, rng.normal(size=2), float(rng.random()) if i % 2 == 0 else np.nan, i % 3),
            (1, STEP_V_TO_U, 0, rng.normal(size=2)),
        ]
        instances.append(make_instance(i, i % 3, pool))
    return instances, make_schema()


def assert_same_bits(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0 and NaN payloads count."""
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_pools_equal(a, b):
    assert len(a) == len(b)
    assert np.array_equal(a.step, b.step)
    for name in ("round", "parent_id", "teacher_loss", "survived"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    for side_a, side_b in ((a.v, b.v), (a.u, b.u)):
        assert (side_a is None) == (side_b is None)
        if side_a is not None:
            assert (side_a.kind, side_a.modality) == (side_b.kind, side_b.modality)
            assert_same_bits(side_a.data, side_b.data)


def test_round_trip_is_identity_and_byte_stable():
    instances, schema = full_dataset()
    text = dataset_to_string(instances, schema)
    loaded, loaded_schema = read_dataset(from_text(text))
    assert loaded_schema == schema
    assert len(loaded) == len(instances)
    for a, b in zip(instances, loaded):
        assert (a.id, a.label, a.subject, a.object) == (b.id, b.label, b.subject, b.object)
        assert_same_bits(a.real_view.data, b.real_view.data)
        assert_pools_equal(a.synthetic_pool, b.synthetic_pool)
    # re-serialization is byte-identical
    assert dataset_to_string(loaded, loaded_schema) == text
    assert f'"survived":"{base64.b64encode(struct.pack("<2q", 2, 0)).decode()}"' in text and '"synthetic_views"' not in text


def test_teacher_loss_omitted_when_unscored():
    # an unscored view's loss is NaN on disk
    instances, schema = full_dataset(2)
    lines = dataset_to_string(instances, schema).splitlines()
    scored, unscored = (np.frombuffer(base64.b64decode(json.loads(line)["pool"]["teacher_loss"]), "<f8") for line in lines[1:])
    assert np.isfinite(scored[0]) and np.isnan(scored[1])  # instance 0 scored its v-side view
    assert np.isnan(unscored).all() and len(unscored) == 2  # instance 1 scored nothing


def test_pool_columns_decode_by_hand_as_little_endian_8_byte_values():
    instances, schema = full_dataset(3)
    for instance, line in zip(instances, dataset_to_string(instances, schema).splitlines()[1:]):
        record, pool = json.loads(line)["pool"], instance.synthetic_pool
        column = {key: np.frombuffer(base64.b64decode(record[key]), "<f8" if key == "teacher_loss" else "<i8") for key in record if key not in ("v", "u")}
        for key in ("round", "parent_id", "survived"):
            assert column[key].tolist() == getattr(pool, key).tolist()
        assert column["step"].tolist() == [0 if step == STEP_U_TO_V else 1 for step in pool.step]
        assert_same_bits(column["teacher_loss"].astype(np.float64), pool.teacher_loss)


def test_round_trip_via_file(tmp_path):
    instances, schema = full_dataset(10)
    path = tmp_path / "data.jsonl"
    write_dataset(instances, schema, path)
    loaded, loaded_schema = read_dataset(path)
    assert dataset_to_string(loaded, loaded_schema) == path.read_text(encoding="utf-8")


def test_truncated_final_line_names_the_line():
    instances, schema = full_dataset(3)
    text = dataset_to_string(instances, schema)
    truncated = text.rstrip("\n")[:-10]
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(from_text(truncated))
    assert err.value.line == 4  # header + 3 instances; the last one is broken


def test_empty_dataset_header_only():
    text = dataset_to_string([], make_schema())
    loaded, schema = read_dataset(from_text(text))
    assert loaded == []
    assert schema == make_schema()


def test_missing_header_is_an_error():
    with pytest.raises(DatasetFormatError):
        read_dataset(from_text(""))


def test_a_path_read_holds_about_one_line_beyond_its_instances(tmp_path):
    rng = np.random.default_rng(1)
    instances = []
    for i in range(160):
        v = ViewBatch("vector", MODALITY_V, rng.normal(size=(400, 2)))
        pool = Pool(np.zeros(400), np.full(400, STEP_U_TO_V), np.full(400, REAL_PARENT), rng.random(400), np.zeros(400), v=v)
        instances.append(replace(make_instance(i, i % 3), synthetic_pool=pool))
    path = tmp_path / "big.jsonl"
    write_dataset(instances, make_schema(), path)
    raw = path.read_bytes()
    longest = max(map(len, raw.split(b"\n")))
    assert len(raw) > 3_000_000 and len(raw) > 100 * longest
    tracemalloc.start()
    try:
        loaded, _ = read_dataset(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(instances)
    # reading the whole text first would add at least one copy of the file
    assert peak - held < 8 * longest, (peak - held, longest)


@pytest.mark.parametrize("line", [1, 2, 4])
def test_a_byte_that_is_not_utf8_is_a_format_error_on_its_line(tmp_path, line):
    instances, schema = full_dataset(3)
    lines = dataset_to_string(instances, schema).encode("utf-8").split(b"\n")
    lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DatasetFormatError, match=f"^line {line}: not UTF-8 ") as err:
        read_dataset(path)
    assert err.value.line == line


@pytest.mark.parametrize("kind", ["open", "StringIO", "list"])
def test_a_text_source_is_refused_naming_the_accepted_sources(tmp_path, kind):
    instances, schema = full_dataset(2)
    text = dataset_to_string(instances, schema)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(text.encode("utf-8").replace(b'"', b'"\xff', 1))
    with pytest.raises(TypeError, match=r"^read_dataset takes a path \(str or Path\), not "):
        if kind == "open":
            with open(path, encoding="utf-8") as handle:  # decoding it would fail at the first read
                read_dataset(handle)
        else:
            read_dataset(io.StringIO(text) if kind == "StringIO" else text.splitlines(keepends=True))


@pytest.mark.parametrize("kind", ["open", "BytesIO"])
def test_a_binary_file_object_is_refused_naming_its_type(tmp_path, kind):
    path = tmp_path / "dataset.jsonl"
    write_dataset(*full_dataset(2), path)
    with open(path, "rb") as handle:
        source = handle if kind == "open" else io.BytesIO(handle.read())
        with pytest.raises(TypeError, match=rf"^read_dataset takes a path \(str or Path\), not {type(source).__name__}$"):
            read_dataset(source)


def test_a_str_is_always_a_path(tmp_path):
    # dataset text, with or without a newline, is not taken for its content
    instances, schema = full_dataset(2)
    text = dataset_to_string(instances, schema)
    for source in (text, dataset_to_string([], schema).rstrip("\n")):
        with pytest.raises(OSError):
            read_dataset(source)
    path = tmp_path / "dataset.jsonl"
    path.write_text(text, encoding="utf-8")
    assert dataset_to_string(*read_dataset(str(path))) == text


def test_a_crlf_copy_reads_identically():
    instances, schema = full_dataset(6)
    text = dataset_to_string(instances, schema)
    loaded, loaded_schema = read_dataset(from_text(text.replace("\n", "\r\n")))
    assert dataset_to_string(loaded, loaded_schema) == text


def test_a_line_separator_inside_a_string_does_not_end_the_line():
    instances, schema = full_dataset(4)
    lines = dataset_to_string(instances, schema).splitlines()
    record = json.loads(lines[1])
    record["note"] = "one\u2028two\u2029three\x85four"  # splitlines() would end the line at each
    lines[1] = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    good = "\n".join(lines) + "\n"
    assert [i.id for i in read_dataset(from_text(good))[0]] == [0, 1, 2, 3]
    bad = "\n".join(lines[:3] + [lines[3][:-10]]) + "\n"  # the last line is cut short
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(from_text(bad))
    assert err.value.line == 4


def test_nan_payload_cannot_be_written():
    inst = Instance(id=0, label=0, subject=0, object=1, real_view=vector_view([float("nan"), 0.0], MODALITY_U))
    with pytest.raises(ValueError):
        dataset_to_string([inst], make_schema())


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_write_leaves_no_partial_dataset(tmp_path, existing):
    # the second instance fails to encode after the first line is out
    bad = Instance(id=1, label=0, subject=0, object=1, real_view=vector_view([float("nan"), 0.0], MODALITY_U))
    path = tmp_path / "dataset.jsonl"
    if existing:
        write_dataset([make_instance(7)], make_schema(), path)
    before = path.read_bytes() if existing else None
    with pytest.raises(ValueError):
        write_dataset([make_instance(0), bad], make_schema(), path)
    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == (["dataset.jsonl"] if existing else [])


def test_writing_a_path_replaces_the_old_file(tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_dataset([make_instance(0), make_instance(1)], make_schema(), str(path))
    write_dataset([make_instance(2)], make_schema(), str(path))
    assert path.read_text(encoding="utf-8") == dataset_to_string([make_instance(2)], make_schema())
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]


def test_unknown_version_rejected():
    text = dataset_to_string([], make_schema())
    bumped = text.replace('"version":4', '"version":99')
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(from_text(bumped))
    assert err.value.line == 1


@pytest.mark.parametrize("version", [1, 2, 3])
def test_earlier_versions_are_rejected_naming_their_version(version):
    instances, schema = full_dataset(2)
    text = dataset_to_string(instances, schema).replace('"version":4', f'"version":{version}', 1)
    with pytest.raises(DatasetFormatError, match=f"unsupported format version {version}: only version 4 is read") as err:
        read_dataset(from_text(text))
    assert err.value.line == 1


def encode(kind, rows):
    """``rows`` as a matrix record, encoded independently of the
    writer: ``struct`` packs little-endian whatever the host's byte order."""
    flat = [x for row in rows for x in row]
    raw = struct.pack(f"<{len(flat)}{'d' if kind == 'vector' else 'q'}", *flat)
    return {"kind": kind, "shape": [len(rows), len(rows[0])], "data": base64.b64encode(raw).decode("ascii")}


def edited(instances, schema, line, edit):
    """The dataset's text with ``edit`` applied to the record on ``line``."""
    lines = dataset_to_string(instances, schema).splitlines()
    record = json.loads(lines[line - 1])
    edit(record)
    lines[line - 1] = json.dumps(record)
    return "\n".join(lines)


def test_a_matrix_decodes_by_hand_as_little_endian_row_major():
    instance = make_instance(pool=[(0, STEP_U_TO_V, REAL_PARENT, [1.5, -0.0]), (0, STEP_U_TO_V, REAL_PARENT, [5e-324, -2.0])])
    record = json.loads(dataset_to_string([instance], make_schema()).splitlines()[1])
    m = record["pool"]["v"]
    assert m == encode("vector", [[1.5, -0.0], [5e-324, -2.0]])
    matrix = np.frombuffer(base64.b64decode(m["data"]), "<f8").reshape(m["shape"])
    assert matrix.tobytes() == instance.synthetic_pool.v.data.astype("<f8").tobytes()
    assert record["real_view"] == encode("vector", [[0.0, -1.0]])
    symbols = Instance(0, 0, 0, 1, discrete_view([3, 2**62, 0], MODALITY_U))
    text = dataset_to_string([symbols], make_schema(u_spec=ViewSpec("discrete", 2**63 - 1)))
    assert json.loads(text.splitlines()[1])["real_view"] == encode("discrete", [[3, 2**62, 0]])


@pytest.mark.parametrize(
    "old, new, message",
    [
        ([1, 0], [-1, 0], "non-negative"),
        ([1, 0], [1, 1], "only v-side"),
    ],
    ids=["negative", "u_side"],
)
def test_bad_survival_count_in_a_file_names_the_line(old, new, message):
    instances, schema = full_dataset(3)

    def edit(survived):
        assert survived == old
        return new

    text = edited(instances, schema, 3, lambda record: recolumn(record["pool"], "survived", edit))
    with pytest.raises(DatasetFormatError, match=message) as err:
        read_dataset(from_text(text))
    assert err.value.line == 3


@pytest.mark.parametrize("value", [1.9, True, "1"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize(
    "line, path",
    [
        (1, ("class_count",)),
        (1, ("entity_vocab",)),
        (1, ("none_class",)),
        (1, ("v_spec", "size")),
        (3, ("id",)),
        (3, ("label",)),
        (3, ("subject",)),
        (3, ("object",)),
        # the pool columns, given as a JSON list holding the value in place of base64
        pytest.param(3, ("pool", "round", 0), id="3-synthetic_views.0.round"),
        pytest.param(3, ("pool", "parent_id", 0), id="3-synthetic_views.0.parent_id"),
        pytest.param(3, ("pool", "survived", 0), id="3-synthetic_views.0.survived"),
    ],
    ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else str(p),
)
def test_integer_fields_reject_other_values(line, path, value):
    instances, schema = full_dataset(3)

    def edit(record):
        if path[0] == "pool":
            record["pool"][path[1]] = [value]
            return
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    pool = path[0] == "pool"
    message = f"bad pool column: {path[1]} must be a base64 string, got list" if pool else f"{path[-1]} must be an integer"
    with pytest.raises(DatasetFormatError, match=message) as err:
        read_dataset(from_text(edited(instances, schema, line, edit)))
    assert err.value.line == line


def test_integral_numbers_read_as_integers():
    instances, schema = full_dataset(3)
    text = dataset_to_string(instances, schema)
    loaded, _ = read_dataset(from_text(text.replace('"id":1,', '"id":1.0,', 1)))
    assert dataset_to_string(loaded, schema) == text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected_at_read_time(value):
    # no float is written as a JSON number, so a NaN or Infinity constant
    # is refused wherever it stands
    instances, schema = full_dataset(3)
    text = edited(instances, schema, 3, lambda record: record.__setitem__("label", value))
    with pytest.raises(DatasetFormatError, match="non-finite number") as err:
        read_dataset(from_text(text))
    assert err.value.line == 3


def with_bits(record, side, row, column, value):
    """Set one element of a matrix record to ``value``'s bits."""
    m = record[side] if side == "real_view" else record["pool"][side]
    data = np.frombuffer(base64.b64decode(m["data"]), "<f8").reshape(m["shape"]).copy()
    data[row, column] = value
    m["data"] = base64.b64encode(data.astype("<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda record: with_bits(record, "real_view", 0, 0, np.inf), "the real view holds a non-finite number"),
        (lambda record: with_bits(record, "u", 0, 1, np.inf), "synthetic view 1 holds a non-finite number"),
        (lambda record: recolumn(record["pool"], "teacher_loss", lambda losses: [np.inf] + losses[1:]), "view 0 has a non-finite teacher loss"),
        (lambda record: record.__setitem__("label", 12345.5), "label must be an integer, got inf"),
    ],
    ids=["real_view", "synthetic_view", "teacher_loss", "label"],
)
def test_literals_that_overflow_a_float_are_rejected_at_read_time(edit, message):
    # json.loads reads 1e999 as inf without calling parse_constant; in a
    # matrix or a pool column, inf is a bit pattern
    instances, schema = full_dataset(3)
    text = edited(instances, schema, 2, edit).replace("12345.5", "1e999")
    with pytest.raises(DatasetFormatError, match=message) as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


@pytest.mark.parametrize(
    "bits, row",
    [(0x7FF8000000000000, 1), (0x7FF0000000000001, 1), (0xFFF8000000000123, 0), (0x7FF0000000000000, 1), (0xFFF0000000000000, 0)],
    ids=["nan", "signalling_nan", "negative_nan_payload", "inf", "-inf"],
)
def test_non_finite_bit_patterns_name_the_pool_index(bits, row):
    # v-side rows 0 and 1 are pool views 0 and 2: the error names the pool index
    pool = [
        (0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0]),
        (1, STEP_V_TO_U, 0, [0.5, 0.5]),
        (1, STEP_U_TO_V, 1, [2.0, 3.0]),
    ]

    def edit(record):
        m = record["pool"]["v"]
        raw = bytearray(base64.b64decode(m["data"]))
        raw[16 * row : 16 * row + 8] = struct.pack("<Q", bits)
        m["data"] = base64.b64encode(bytes(raw)).decode("ascii")

    with pytest.raises(DatasetFormatError, match=f"synthetic view {2 * row} holds a non-finite number") as err:
        read_dataset(from_text(edited([make_instance(pool=pool)], make_schema(), 2, edit)))
    assert err.value.line == 2


THREE_VIEWS = [(0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0]), (1, STEP_V_TO_U, 0, [0.5, 0.5]), (1, STEP_U_TO_V, 1, [2.0, 3.0])]


@pytest.mark.parametrize("bits", [0x7FF0000000000000, 0xFFF0000000000000], ids=["inf", "-inf"])
@pytest.mark.parametrize("index", [0, 2])
def test_an_infinite_teacher_loss_names_the_pool_index(bits, index):
    # NaN bits mean unscored; an infinite loss is no loss a teacher gives
    (inf,) = struct.unpack("<d", struct.pack("<Q", bits))

    def edit(record):
        recolumn(record["pool"], "teacher_loss", lambda losses: [inf if i == index else x for i, x in enumerate(losses)])

    with pytest.raises(DatasetFormatError, match=f"^line 2: view {index} has a non-finite teacher loss") as err:
        read_dataset(from_text(edited([make_instance(pool=THREE_VIEWS)], make_schema(), 2, edit)))
    assert err.value.line == 2


@pytest.mark.parametrize(
    "key, text, message",
    [
        # 24 zero bytes are 32 "A"s: a lax decoder would skip the "*"
        ("round", "A" * 11 + "*" + "A" * 21, "round is not base64"),
        ("parent_id", "A" * 31 + "\n", "parent_id is not base64"),
        ("survived", base64.b64encode(bytes(12)).decode("ascii"), "survived holds 12 bytes, not a whole number of 8-byte values"),
        ("teacher_loss", None, "teacher_loss must be a base64 string, got NoneType"),
    ],
    ids=["non_alphabet", "trailing_newline", "12_bytes", "null"],
)
def test_pool_columns_must_be_strict_base64_of_8_byte_values(key, text, message):
    def edit(record):
        record["pool"][key] = text

    with pytest.raises(DatasetFormatError, match=f"^line 2: bad pool column: {message}") as err:
        read_dataset(from_text(edited([make_instance(pool=THREE_VIEWS)], make_schema(), 2, edit)))
    assert err.value.line == 2


@pytest.mark.parametrize("code", [2, -1])
def test_a_step_code_other_than_0_or_1_names_the_pool_index(code):
    def edit(record):
        recolumn(record["pool"], "step", lambda steps: steps[:2] + [code])

    text = edited([make_instance(pool=THREE_VIEWS)], make_schema(), 2, edit)
    with pytest.raises(DatasetFormatError, match=f"^line 2: view 2 has unknown step code {code}$") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


@pytest.mark.parametrize(
    "column, values, fault",
    [
        ("round", [0, 1, -1], "view 2 has round -1, which must be non-negative"),
        ("survived", [0, 0, -1], "view 2 has survival count -1, which must be non-negative"),
        ("survived", [0, 2, 0], "view 1 has survival count 2, but only v-side views face selection"),
    ],
)
def test_a_bad_round_or_survival_count_names_the_pool_index(column, values, fault):
    text = edited([make_instance(pool=THREE_VIEWS)], make_schema(), 2, lambda record: recolumn(record["pool"], column, lambda _: values))
    with pytest.raises(DatasetFormatError, match=f"^line 2: {fault}$") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


def pool_record(v=None, u=None, **columns):
    """A pool record holding ``columns`` (each empty unless given)."""
    record = {key: "" for key in ("round", "step", "parent_id", "teacher_loss", "survived")}
    for key, values in columns.items():
        recolumn(record, key, lambda _: values)
    return {**record, "v": v, "u": u}


EMPTY_POOL_RECORD = pool_record()


def test_symbol_that_overflows_an_integer_is_a_format_error():
    # symbols are 8-byte integers on disk; the matrix's shape is the JSON
    # number left to overflow
    header = dataset_to_string([], make_schema(u_spec=ViewSpec("discrete", 4)))
    real = json.dumps(encode("discrete", [[1]])).replace('"shape": [1, 1]', '"shape": [1, 1e999]')
    line = f'{{"id":0,"label":0,"subject":0,"object":1,"real_view":{real},"pool":{json.dumps(EMPTY_POOL_RECORD)}}}'
    with pytest.raises(DatasetFormatError, match="bad view: shape must be two positive integers") as err:
        read_dataset(from_text(header + line + "\n"))
    assert err.value.line == 2


@pytest.mark.parametrize("symbol", [4, 7, -1])
@pytest.mark.parametrize("where", ["real", "synthetic"])
def test_symbols_outside_the_alphabet_are_rejected(where, symbol):
    # featurizing counts only the symbols in [0, alphabet): read unchecked, a
    # stray symbol would become counts that no longer sum to 1
    discrete = ViewSpec("discrete", 4)
    header = dataset_to_string([], make_schema(u_spec=discrete, v_spec=discrete))
    real, synthetic = ([0, symbol], [0, 3]) if where == "real" else ([0, 3], [0, symbol])
    pool = pool_record(round=[0], step=[0], parent_id=[-1], teacher_loss=[np.nan], survived=[0])
    record = {
        "id": 0, "label": 0, "subject": 0, "object": 1,
        "real_view": encode("discrete", [real]),
        "pool": {**pool, "v": encode("discrete", [synthetic])},
    }
    name = "the real view" if where == "real" else "synthetic view 0"
    with pytest.raises(DatasetFormatError, match=rf"{name} holds a symbol outside \[0, 4\)") as err:
        read_dataset(from_text(header + json.dumps(record) + "\n"))
    assert err.value.line == 2
    record["real_view"], record["pool"]["v"] = encode("discrete", [[0, 3]]), encode("discrete", [[0, 3]])
    [loaded], _ = read_dataset(from_text(header + json.dumps(record) + "\n"))
    assert loaded.synthetic_pool.v.data.tolist() == [[0, 3]]


def test_views_of_unequal_length_on_one_side_are_rejected():
    # ragged rows cannot be written in a matrix; the nearest malformation is
    # one view cut short, so the data no longer fills the shape
    pool = [(0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0]), (0, STEP_U_TO_V, REAL_PARENT, [2.0, 3.0])]

    def edit(record):
        record["pool"]["v"]["data"] = encode("vector", [[0.0, 1.0, 2.0]])["data"]

    with pytest.raises(DatasetFormatError, match=r"shape \[2, 2\] needs 32 bytes, data holds 24") as err:
        read_dataset(from_text(edited([make_instance(pool=pool)], make_schema(), 2, edit)))
    assert err.value.line == 2


def test_views_that_disagree_with_the_schema_are_rejected():
    # every view of one side cut short: each side's matrix is consistent on
    # its own, but no longer has the width the schema declares
    instances, schema = full_dataset(3)
    text = edited(instances, schema, 3, lambda record: record["pool"].update(u=encode("vector", [[0.5]])))
    with pytest.raises(DatasetFormatError, match="the schema's u-side views are vector of size 2, got vector views of length 1") as err:
        read_dataset(from_text(text))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "where, data, message",
    [
        # the data of a matrix is one base64 string: a JSON list of values,
        # which the reader would have to coerce, is refused outright
        ("synthetic", [1.5, 2.9], "data must be a base64 string, got list"),
        ("synthetic", [True, "2"], "data must be a base64 string, got list"),
        ("real", [1, 2.0], "data must be a base64 string, got list"),
        ("real", None, "data must be a base64 string, got NoneType"),
    ],
    ids=["discrete_fraction", "vector_bool_and_string", "real_discrete_float", "real_vector_null"],
)
def test_view_data_is_never_coerced(where, data, message):
    instances, schema = full_dataset(3)

    def edit(record):
        (record["pool"]["v"] if where == "synthetic" else record["real_view"])["data"] = data

    with pytest.raises(DatasetFormatError, match=f"bad view: {message}") as err:
        read_dataset(from_text(edited(instances, schema, 3, edit)))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "data, message",
    [
        # 32 zero bytes are 43 "A"s and one "=": a lax decoder would skip the
        # "*" and the newline and read the right byte count
        ("A" * 11 + "*" + "A" * 32 + "=", "data is not base64"),
        ("A" * 43, "data is not base64"),
        ("A" * 43 + "=\n", "data is not base64"),
        ("A" * 42 + "é=", "data is not base64"),
        (base64.b64encode(bytes(40)).decode("ascii"), r"shape \[2, 2\] needs 32 bytes, data holds 40"),
        (base64.b64encode(bytes(24)).decode("ascii"), r"shape \[2, 2\] needs 32 bytes, data holds 24"),
    ],
    ids=["non_alphabet", "missing_padding", "trailing_newline", "non_ascii", "too_many_bytes", "too_few_bytes"],
)
def test_matrix_data_must_be_strict_base64_of_the_shape(data, message):
    pool = [(0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0]), (0, STEP_U_TO_V, REAL_PARENT, [2.0, 3.0])]
    text = edited([make_instance(pool=pool)], make_schema(), 2, lambda record: record["pool"]["v"].update(data=data))
    with pytest.raises(DatasetFormatError, match=f"bad view: {message}") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


@pytest.mark.parametrize(
    "shape",
    [[True, 2], [2, True], [0, 2], [2, 0], [2.0, 2], [2, 2.0], [2], [2, 2, 1], "2x2", None],
    ids=["bool_rows", "bool_width", "zero_rows", "zero_width", "float_rows", "float_width", "one_entry", "three_entries", "string", "null"],
)
def test_matrix_shape_must_be_two_positive_integers(shape):
    pool = [(0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0]), (0, STEP_U_TO_V, REAL_PARENT, [2.0, 3.0])]
    text = edited([make_instance(pool=pool)], make_schema(), 2, lambda record: record["pool"]["v"].update(shape=shape))
    with pytest.raises(DatasetFormatError, match="bad view: shape must be two positive integers") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


@pytest.mark.parametrize("column", ["round", "step", "parent_id", "teacher_loss", "survived"])
def test_pool_columns_of_unequal_length_are_rejected(column):
    instances, schema = full_dataset(3)
    text = edited(instances, schema, 3, lambda record: recolumn(record["pool"], column, lambda values: values[:-1]))
    with pytest.raises(DatasetFormatError, match="pool columns must be of one length") as err:
        read_dataset(from_text(text))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "steps, v_rows, message",
    [
        (["u_to_v", "u_to_v", "v_to_u"], 1, "the v matrix holds 1 rows for 2 v-side views"),
        (["u_to_v", "v_to_u", "v_to_u"], 2, "the v matrix holds 2 rows for 1 v-side views"),
        (["v_to_u", "v_to_u", "v_to_u"], 2, "the v matrix holds 2 rows for 0 v-side views"),
    ],
    ids=["too_few_rows", "too_many_rows", "rows_for_no_views"],
)
def test_the_v_matrix_needs_one_row_per_u_to_v_step(steps, v_rows, message):
    def edit(record):
        recolumn(record["pool"], "step", lambda _: [0 if step == STEP_U_TO_V else 1 for step in steps])
        record["pool"]["v"] = encode("vector", [[0.0, 1.0]] * v_rows)

    with pytest.raises(DatasetFormatError, match=message) as err:
        read_dataset(from_text(edited([make_instance(pool=THREE_VIEWS)], make_schema(), 2, edit)))
    assert err.value.line == 2


def test_a_side_with_views_needs_a_matrix():
    pool = [(0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0])]
    text = edited([make_instance(pool=pool)], make_schema(), 2, lambda record: record["pool"].update(v=None))
    with pytest.raises(DatasetFormatError, match="bad view: a matrix must carry 'kind', 'shape' and 'data'") as err:
        read_dataset(from_text(text))
    assert err.value.line == 2


def test_a_schema_that_does_not_fit_the_instances_names_the_first_misfit():
    # every line is well formed, but the third instance's label is no class of the schema's
    instances, _ = full_dataset(3)  # labels 0, 1, 2
    with pytest.raises(DatasetFormatError, match=re.escape("line 4: label 2 is outside [0, 2)")) as err:
        read_under(instances, make_schema(), class_count=2)
    assert err.value.line == 4


# --- the columnar format, property-based ----------------------------------------------

# the bits a text format could lose: the sign of zero, subnormals, the extremes
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, sys.float_info.max, -sys.float_info.max)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# unscored: the canonical NaN, and NaNs whose sign and payload the loss column must keep
NANS = tuple(struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in (0x7FF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001))


def symbols(size):
    return st.integers(0, size - 1) | st.just(size - 1)  # the largest symbol, often


@st.composite
def datasets(draw):
    """Random schemas and pools: either side vector or discrete (up to the
    largest int64 alphabet), lineages as the generator makes them, scored
    and unscored views, any survival counts on the v side."""
    sides = {}
    for modality in (MODALITY_U, MODALITY_V):
        kind = draw(st.sampled_from(("vector", "discrete")))
        sizes = st.integers(1, 4) if kind == "vector" else st.integers(1, 4) | st.sampled_from((2**31, 2**63 - 1))
        sides[modality] = (kind, draw(sizes))
    schema = DatasetSchema(
        class_count=3,
        entity_vocab=4,
        u_spec=ViewSpec(*sides[MODALITY_U]),
        v_spec=ViewSpec(*sides[MODALITY_V]),
        none_class=draw(st.sampled_from((None, 0, 2))),
    )

    def rows(modality, n):
        kind, size = sides[modality]
        width = size if kind == "vector" else draw(st.integers(1, 3))
        values = FINITE if kind == "vector" else symbols(size)
        data = draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=n, max_size=n))
        return ViewBatch(kind, modality, np.array(data, dtype=np.float64 if kind == "vector" else np.int64).reshape(n, width))

    instances = []
    for iid in range(draw(st.integers(0, 3))):
        lineage = draw(lineages())
        n = len(lineage)
        on_v = [step == STEP_U_TO_V for _, step, _ in lineage]
        losses = draw(st.lists(st.one_of(st.sampled_from(NANS), FINITE.filter(lambda x: x >= 0)), min_size=n, max_size=n))
        survived = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        n_v = sum(on_v)
        pool = Pool(
            round=[round_ for round_, _, _ in lineage],
            step=[step for _, step, _ in lineage],
            parent_id=[parent for _, _, parent in lineage],
            teacher_loss=losses,
            survived=[count if v else 0 for v, count in zip(on_v, survived)],
            v=rows(MODALITY_V, n_v) if n_v else None,
            u=rows(MODALITY_U, n - n_v) if n - n_v else None,
        )
        kind, size = sides[MODALITY_U]
        width = size if kind == "vector" else draw(st.integers(1, 3))
        real = draw(st.lists(FINITE if kind == "vector" else symbols(size), min_size=width, max_size=width))
        instances.append(
            Instance(
                id=iid,
                label=draw(st.integers(0, 2)),
                subject=draw(st.integers(0, 3)),
                object=draw(st.integers(0, 3)),
                real_view=ViewBatch(kind, MODALITY_U, [real]),
                synthetic_pool=pool,
            )
        )
    return instances, schema


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dataset=datasets())
def test_write_read_write_is_byte_identical_and_field_equal(dataset):
    instances, schema = dataset
    text = dataset_to_string(instances, schema)
    loaded, loaded_schema = read_dataset(from_text(text))
    assert loaded_schema == schema
    assert dataset_to_string(loaded, loaded_schema) == text
    assert len(loaded) == len(instances)
    for a, b in zip(instances, loaded):
        assert (a.id, a.label, a.subject, a.object) == (b.id, b.label, b.subject, b.object)
        assert (a.real_view.kind, a.real_view.modality) == (b.real_view.kind, b.real_view.modality)
        assert_same_bits(a.real_view.data, b.real_view.data)
        assert_pools_equal(a.synthetic_pool, b.synthetic_pool)


def reference_line(instance):
    """An instance's line as ``json.dumps`` writes its record, each column
    packed by ``struct``, independently of the writer's template."""
    pool = instance.synthetic_pool

    def column(code, values):
        return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")

    def matrix(batch):
        return None if batch is None else encode(batch.kind, batch.data.tolist())

    record = {
        "id": instance.id,
        "label": instance.label,
        "subject": instance.subject,
        "object": instance.object,
        "real_view": matrix(instance.real_view),
        "pool": {
            "round": column("q", pool.round.tolist()),
            "step": column("q", [0 if step == STEP_U_TO_V else 1 for step in pool.step]),
            "parent_id": column("q", pool.parent_id.tolist()),
            "teacher_loss": column("d", pool.teacher_loss.tolist()),
            "survived": column("q", pool.survived.tolist()),
            "v": matrix(pool.v),
            "u": matrix(pool.u),
        },
    }
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dataset=datasets())
def test_the_line_template_writes_what_json_dumps_writes(dataset):
    instances, schema = dataset
    lines = dataset_to_string(instances, schema).split("\n")
    assert lines[1:] == [reference_line(instance) for instance in instances] + [""]


def test_a_non_canonical_nan_loss_keeps_its_bits():
    (nan,) = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000123))
    text = dataset_to_string([make_instance(pool=[(0, STEP_U_TO_V, REAL_PARENT, [0.0, 1.0], nan)])], make_schema())
    [loaded], _ = read_dataset(from_text(text))
    assert struct.unpack("<Q", loaded.synthetic_pool.teacher_loss.tobytes())[0] == 0xFFF8000000000123

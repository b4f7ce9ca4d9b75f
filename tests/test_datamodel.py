"""Domain types, validation, and the line-delimited dataset format."""

import io
import json

import numpy as np
import pytest

from chainviews.datamodel import (
    MODALITY_U,
    MODALITY_V,
    REAL_PARENT,
    STEP_U_TO_V,
    STEP_V_TO_U,
    DatasetFormatError,
    DatasetSchema,
    EntityPair,
    Instance,
    Label,
    SyntheticView,
    View,
    ViewSpec,
    dataset_to_string,
    discrete_view,
    read_dataset,
    validate_dataset,
    vector_view,
    write_dataset,
)


def make_instance(iid=0, label=0, pool=()):
    return Instance(
        id=iid,
        label=Label(label),
        entities=EntityPair(subject=0, object=1),
        real_view=vector_view([0.1 * iid, -1.0], MODALITY_U),
        synthetic_pool=tuple(pool),
    )


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


def test_label_rejects_negative():
    with pytest.raises(ValueError):
        Label(-1)


def test_entity_pair_allows_same_id_distinct_roles():
    pair = EntityPair(subject=2, object=2)
    assert pair.subject == pair.object == 2


def test_view_rejects_unknown_kind_and_modality():
    with pytest.raises(ValueError):
        View(kind="audio", data=[1.0], modality=MODALITY_U)
    with pytest.raises(ValueError):
        View(kind="vector", data=[1.0], modality="w")
    with pytest.raises(ValueError):
        vector_view([], MODALITY_U)


def test_non_finite_values_are_validation_violations():
    inst = Instance(
        id=0,
        label=Label(0),
        entities=EntityPair(0, 1),
        real_view=vector_view([0.0, float("nan")], MODALITY_U),
    )
    report = validate_dataset([inst], make_schema())
    assert any("non-finite" in v.message for v in report.violations)


def test_negative_symbols_fail_the_spec_match():
    schema = make_schema(v_spec=ViewSpec("discrete", 4))
    ok = discrete_view([0, 3], MODALITY_V)
    bad = discrete_view([0, -2], MODALITY_V)
    assert ok.matches(schema.v_spec)
    assert not bad.matches(schema.v_spec)


def test_view_matches_spec():
    view = vector_view([1.0, 2.0], MODALITY_V)
    assert view.matches(ViewSpec("vector", 2))
    assert not view.matches(ViewSpec("vector", 3))
    assert not view.matches(ViewSpec("discrete", 2))


def test_synthetic_view_scored_and_selected_are_copies():
    sv = SyntheticView(
        view=vector_view([0.0, 0.0], MODALITY_V),
        round=0,
        step=STEP_U_TO_V,
        parent_id=REAL_PARENT,
    )
    scored = sv.scored(0.25)
    assert sv.teacher_loss is None
    assert scored.teacher_loss == 0.25
    kept = scored.kept()
    assert scored.survived == 0 and kept.survived == 1
    assert kept.kept().survived == 2 and kept.teacher_loss == 0.25


def test_negative_teacher_loss_is_a_violation():
    pool = [
        SyntheticView(
            view=vector_view([0.0, 0.0], MODALITY_V),
            round=0,
            step=STEP_U_TO_V,
            parent_id=REAL_PARENT,
            teacher_loss=-0.5,
        )
    ]
    report = validate_dataset([make_instance(pool=pool)], make_schema())
    assert any("teacher loss" in v.message for v in report.violations)


def test_step_and_modality_must_agree():
    with pytest.raises(ValueError):
        SyntheticView(
            view=vector_view([0.0, 0.0], MODALITY_U),
            round=0,
            step=STEP_U_TO_V,  # u_to_v must land on the v side
            parent_id=REAL_PARENT,
        )


def test_instance_requires_u_side_real_view():
    with pytest.raises(ValueError):
        Instance(
            id=0,
            label=Label(0),
            entities=EntityPair(0, 1),
            real_view=vector_view([0.0, 0.0], MODALITY_V),
        )


# --- validation ----------------------------------------------------------------


def test_validate_well_formed_dataset_ok():
    schema = make_schema()
    report = validate_dataset([make_instance(i, i % 3) for i in range(3)], schema)
    assert report.ok
    assert report.violations == ()


def test_validate_label_out_of_range():
    schema = make_schema(class_count=3)
    bad = make_instance(0, 2)
    bad = Instance(
        id=0,
        label=Label(3),  # == C, one past the end
        entities=bad.entities,
        real_view=bad.real_view,
    )
    report = validate_dataset([bad], schema)
    assert not report.ok
    assert any("label" in v.message for v in report.violations)
    assert report.violations[0].instance_id == 0


def test_validate_dimension_mismatch():
    schema = make_schema(u_spec=ViewSpec("vector", 3))
    report = validate_dataset([make_instance()], schema)
    assert not report.ok
    assert any("dimension" in v.message or "spec" in v.message for v in report.violations)


def test_validate_duplicate_ids():
    schema = make_schema()
    report = validate_dataset([make_instance(5), make_instance(5)], schema)
    assert any("duplicate" in v.message for v in report.violations)


def test_validate_entity_out_of_vocab():
    schema = make_schema(entity_vocab=1)
    report = validate_dataset([make_instance()], schema)
    assert not report.ok


def test_validate_dangling_parent():
    pool = [
        SyntheticView(
            view=vector_view([0.0, 0.0], MODALITY_V),
            round=0,
            step=STEP_U_TO_V,
            parent_id=99,
        )
    ]
    report = validate_dataset([make_instance(pool=pool)], make_schema())
    assert not report.ok
    assert any("ancestry" in v.message for v in report.violations)


def test_report_raise_if_invalid():
    schema = make_schema(entity_vocab=1)
    report = validate_dataset([make_instance()], schema)
    with pytest.raises(ValueError):
        report.raise_if_invalid()


def test_ancestry_depth_bound():
    # chain real -> v0 -> u1 -> v1: every view reaches the real view within
    # 2*(round+1) hops
    v0 = SyntheticView(vector_view([0.0, 0.0], MODALITY_V), round=0, step=STEP_U_TO_V, parent_id=REAL_PARENT)
    u1 = SyntheticView(vector_view([0.0, 0.0], MODALITY_U), round=1, step=STEP_V_TO_U, parent_id=0)
    v1 = SyntheticView(vector_view([0.0, 0.0], MODALITY_V), round=1, step=STEP_U_TO_V, parent_id=1)
    report = validate_dataset([make_instance(pool=[v0, u1, v1])], make_schema())
    assert report.ok


# --- serialization ---------------------------------------------------------------


def full_dataset(n=100):
    instances = []
    rng = np.random.default_rng(0)
    for i in range(n):
        pool = [
            SyntheticView(
                view=vector_view(rng.normal(size=2), MODALITY_V),
                round=0,
                step=STEP_U_TO_V,
                parent_id=REAL_PARENT,
                teacher_loss=float(rng.random()) if i % 2 == 0 else None,
                survived=i % 3,
            ),
            SyntheticView(
                view=vector_view(rng.normal(size=2), MODALITY_U),
                round=1,
                step=STEP_V_TO_U,
                parent_id=0,
            ),
        ]
        instances.append(make_instance(i, i % 3, pool))
    return instances, make_schema()


def test_round_trip_is_identity_and_byte_stable():
    instances, schema = full_dataset()
    text = dataset_to_string(instances, schema)
    loaded, loaded_schema = read_dataset(text)
    assert loaded_schema == schema
    assert len(loaded) == len(instances)
    for a, b in zip(instances, loaded):
        assert a.id == b.id and a.label == b.label and a.entities == b.entities
        assert a.real_view.equals(b.real_view)
        assert len(a.synthetic_pool) == len(b.synthetic_pool)
        for sa, sb in zip(a.synthetic_pool, b.synthetic_pool):
            assert (sa.round, sa.step, sa.parent_id, sa.teacher_loss, sa.survived) == (
                sb.round,
                sb.step,
                sb.parent_id,
                sb.teacher_loss,
                sb.survived,
            )
            assert sa.view.equals(sb.view)
    # re-serialization is byte-identical
    assert dataset_to_string(loaded, loaded_schema) == text
    assert '"survived":2' in text and '"selected"' not in text


def test_teacher_loss_omitted_when_unscored():
    instances, schema = full_dataset(2)
    lines = dataset_to_string(instances, schema).splitlines()
    assert "teacher_loss" in lines[1]  # instance 0 scored
    assert "teacher_loss" not in lines[2]  # instance 1 unscored


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
        read_dataset(truncated)
    assert err.value.line == 4  # header + 3 instances; the last one is broken


def test_empty_dataset_header_only():
    text = dataset_to_string([], make_schema())
    loaded, schema = read_dataset(text)
    assert loaded == []
    assert schema == make_schema()


def test_missing_header_is_an_error():
    with pytest.raises(DatasetFormatError):
        read_dataset(io.StringIO(""))


def test_nan_payload_cannot_be_written():
    inst = Instance(
        id=0,
        label=Label(0),
        entities=EntityPair(0, 1),
        real_view=vector_view([float("nan"), 0.0], MODALITY_U),
    )
    with pytest.raises(ValueError):
        dataset_to_string([inst], make_schema())


def test_unknown_version_rejected():
    text = dataset_to_string([], make_schema())
    bumped = text.replace('"version":2', '"version":99')
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(bumped)
    assert err.value.line == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"survived":1', '"survived":-1', "non-negative"),
        ('"parent_id":0,"survived":0', '"parent_id":0,"survived":1', "only v-side"),
    ],
    ids=["negative", "u_side"],
)
def test_bad_survival_count_in_a_file_names_the_line(old, new, message):
    instances, schema = full_dataset(3)
    text = dataset_to_string(instances, schema)
    lines = text.splitlines()
    assert old in lines[2]
    lines[2] = lines[2].replace(old, new)
    with pytest.raises(DatasetFormatError, match=message) as err:
        read_dataset("\n".join(lines))
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
        (3, ("synthetic_views", 0, "round")),
        (3, ("synthetic_views", 0, "parent_id")),
        (3, ("synthetic_views", 0, "survived")),
    ],
    ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else str(p),
)
def test_integer_fields_reject_other_values(line, path, value):
    instances, schema = full_dataset(3)
    lines = dataset_to_string(instances, schema).splitlines()
    record = json.loads(lines[line - 1])
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    lines[line - 1] = json.dumps(record)
    with pytest.raises(DatasetFormatError, match=f"{path[-1]} must be an integer") as err:
        read_dataset("\n".join(lines))
    assert err.value.line == line


def test_integral_numbers_read_as_integers():
    instances, schema = full_dataset(3)
    text = dataset_to_string(instances, schema)
    loaded, _ = read_dataset(text.replace('"id":1,', '"id":1.0,', 1))
    assert dataset_to_string(loaded, schema) == text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected_at_read_time(value):
    instances, schema = full_dataset(3)
    lines = dataset_to_string(instances, schema).splitlines()
    record = json.loads(lines[2])
    record["real_view"]["data"][0] = value
    lines[2] = json.dumps(record)
    with pytest.raises(DatasetFormatError, match="non-finite number") as err:
        read_dataset("\n".join(lines))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "path, message",
    [
        (("real_view", "data", 0), "the real view holds a non-finite number"),
        (("synthetic_views", 1, "view", "data", 1), "synthetic view 1 holds a non-finite number"),
        (("synthetic_views", 0, "teacher_loss"), "view 0 has a non-finite teacher loss"),
    ],
    ids=["real_view", "synthetic_view", "teacher_loss"],
)
def test_literals_that_overflow_a_float_are_rejected_at_read_time(path, message):
    # json.loads reads 1e999 as inf without calling parse_constant
    instances, schema = full_dataset(3)
    lines = dataset_to_string(instances, schema).splitlines()
    record = json.loads(lines[1])
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 12345.5
    lines[1] = json.dumps(record).replace("12345.5", "1e999")
    with pytest.raises(DatasetFormatError, match=message) as err:
        read_dataset("\n".join(lines))
    assert err.value.line == 2


def test_symbol_that_overflows_an_integer_is_a_format_error():
    header = dataset_to_string([], make_schema(u_spec=ViewSpec("discrete", 4)))
    line = '{"id":0,"label":0,"subject":0,"object":1,"real_view":{"kind":"discrete","data":[1e999]},"synthetic_views":[]}'
    with pytest.raises(DatasetFormatError, match="bad view") as err:
        read_dataset(header + line + "\n")
    assert err.value.line == 2


def test_version_1_without_synthetic_views_is_read():
    instances = [make_instance(i, i % 3) for i in range(3)]
    text = dataset_to_string(instances, make_schema()).replace('"version":2', '"version":1', 1)
    loaded, schema = read_dataset(text)
    assert schema == make_schema() and [inst.id for inst in loaded] == [0, 1, 2]
    assert all(inst.synthetic_pool == () for inst in loaded)


def test_version_1_with_synthetic_views_asks_for_a_rerun():
    header = dataset_to_string([], make_schema()).replace('"version":2', '"version":1', 1)
    line = (
        '{"id":0,"label":0,"subject":0,"object":1,"real_view":{"kind":"vector","data":[0.0,-1.0]},'
        '"synthetic_views":[{"round":0,"step":"u_to_v","parent_id":-1,"teacher_loss":0.5,"selected":true,'
        '"view":{"kind":"vector","data":[0.0,0.0]}}]}'
    )
    with pytest.raises(DatasetFormatError, match="version 1.*re-run") as err:
        read_dataset(header + line + "\n")
    assert err.value.line == 2


def test_schema_mismatch_surfaces_on_validation():
    # the file parses but the instances violate the declared schema
    instances, _ = full_dataset(3)  # labels 0, 1, 2
    wrong = make_schema(class_count=2)
    text = dataset_to_string(instances, wrong)
    loaded, loaded_schema = read_dataset(text)
    assert not validate_dataset(loaded, loaded_schema).ok

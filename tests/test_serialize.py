import base64
import json

import numpy as np
import pytest

import otfuse.serialize as serialize
from helpers import checkpoint_document, checkpoints_equal, random_checkpoint
from otfuse.errors import CheckpointFormatError, CheckpointVersionError
from otfuse.serialize import (
    checkpoint_from_dict,
    load_checkpoint,
    save_checkpoint,
)


def test_roundtrip_bit_identity(tmp_path):
    rng = np.random.default_rng(14)
    for i in range(20):
        ckpt = random_checkpoint(rng)
        path = tmp_path / f"c{i}.json"
        save_checkpoint(ckpt, path)
        assert checkpoints_equal(load_checkpoint(path), ckpt)


def test_truncated_file_is_corrupt(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "c.json"
    save_checkpoint(random_checkpoint(rng), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_unknown_version_distinct_error(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "c.json"
    save_checkpoint(random_checkpoint(rng), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError) as exc:
        load_checkpoint(path)
    assert not isinstance(exc.value, CheckpointFormatError)


def test_corrupt_and_version_errors_are_distinct_types():
    assert not issubclass(CheckpointFormatError, CheckpointVersionError)
    assert not issubclass(CheckpointVersionError, CheckpointFormatError)


def test_payload_length_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "c.json"
    ckpt = random_checkpoint(rng)
    doc = checkpoint_document(ckpt)
    doc["layers"][0]["w"] = base64.b64encode(b"\x00" * 8).decode()
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_bad_base64(tmp_path):
    rng = np.random.default_rng(4)
    doc = checkpoint_document(random_checkpoint(rng))
    doc["layers"][0]["b"] = "!!! not base64 !!!"
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_dict(doc)


def test_spec_layer_count_disagreement():
    rng = np.random.default_rng(5)
    doc = checkpoint_document(random_checkpoint(rng, max_layers=2))
    doc["specs"].append({"in_dim": 3, "out_dim": 2, "activation": "identity"})
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint_from_dict(doc)


def test_non_finite_payload_rejected():
    rng = np.random.default_rng(6)
    ckpt = random_checkpoint(rng, max_layers=1)
    doc = checkpoint_document(ckpt)
    bad = np.full(ckpt.specs[0].out_dim, np.nan)
    doc["layers"][0]["b"] = base64.b64encode(bad.astype("<f8").tobytes()).decode()
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("training_epochs", -1), ("tag", 5), ("seed", "7"), ("seed", True), ("training_epochs", 1.5),
])
def test_bad_meta_is_corrupt(tmp_path, field, value):
    rng = np.random.default_rng(7)
    doc = checkpoint_document(random_checkpoint(rng, max_layers=1))
    doc["meta"][field] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError, match=field):
        load_checkpoint(path)


def test_golden_minimal_one_layer_file(tmp_path):
    """A file written by hand from the documented format loads correctly."""
    w = np.array([[1.5, -2.0], [0.0, 3.25]])
    b = np.array([0.5, -0.5])
    doc = {
        "format_version": 1,
        "meta": {"seed": 7, "training_epochs": 0, "tag": "golden"},
        "specs": [{"in_dim": 2, "out_dim": 2, "activation": "identity"}],
        "layers": [
            {
                "w": base64.b64encode(w.astype("<f8").tobytes()).decode(),
                "b": base64.b64encode(b.astype("<f8").tobytes()).decode(),
            }
        ],
    }
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc))
    ckpt = load_checkpoint(path)
    assert ckpt.specs[0].in_dim == 2 and ckpt.specs[0].out_dim == 2
    assert np.array_equal(ckpt.layers[0].w, w)
    assert np.array_equal(ckpt.layers[0].b, b)
    assert ckpt.meta.seed == 7 and ckpt.meta.tag == "golden"


@pytest.mark.parametrize(
    "field, value",
    [("specs", 5), ("layers", 7), ("specs", {"in_dim": 2}), ("meta", [1]), ("meta", "x"),
     # integers must be JSON integers: no bool, float or string is coerced
     ("format_version", True), ("format_version", 1.0), ("specs.0.in_dim", 6.7),
     ("specs.2.out_dim", "5"), ("meta.seed", 3.9), ("meta.training_epochs", 2.0),
     ("meta.seed", False),
     # the tag must be a JSON string; no other value is coerced to one
     ("meta.tag", None), ("meta.tag", True), ("meta.tag", 5), ("meta.tag", [1, 2]),
     ("meta.tag", {"a": 1})],
)
def test_wrongly_typed_top_level_field_is_corrupt(field, value):
    """``field`` is a dotted path.  Spec 0 has in_dim 6 and spec 2 out_dim 5,
    so coercing 6.7 or "5" to an int would load without complaint."""
    doc = checkpoint_document(random_checkpoint(np.random.default_rng(7)))
    *parents, last = field.split(".")
    target = doc
    for key in parents:
        target = target[int(key) if key.isdigit() else key]
    target[last] = value
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_dict(doc)


def test_internal_fault_is_not_reported_as_corrupt(monkeypatch):
    """Only a validation failure means a bad file; any other error is a
    fault of the program and must propagate unchanged."""
    doc = checkpoint_document(random_checkpoint(np.random.default_rng(8)))

    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(serialize, "make_checkpoint", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        checkpoint_from_dict(doc)

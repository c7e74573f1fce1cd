"""Checkpoint and transport-map files.

A checkpoint file is a single JSON document::

    {"format_version": 1,
     "meta": {"seed": ..., "training_epochs": ..., "tag": ...},
     "specs": [{"in_dim": ..., "out_dim": ..., "activation": ...}, ...],
     "layers": [{"w": "<base64>", "b": "<base64>"}, ...]}

and a maps file (``otfuse align --maps-out``) is::

    {"format_version": 1,
     "maps": [{"side": ..., "coupling": "<base64>"}, ...],
     "objectives": [...]}

Payloads are base64-encoded little-endian float64 values in row-major
order, so ``load(save(x))`` reproduces ``x`` bit-exactly.

Both files are byte for byte what ``json.dump(doc, fh, indent=1)`` followed
by a newline writes.  ``save_checkpoint`` and ``save_maps`` build the
document with an empty string in each payload's place and hand
``_write_json`` the payloads, ``_encode``'s bytes in document order.
``_write_json`` has ``json`` lay out the document and writes each payload
between the quotes of its empty string as it is: payloads are megabytes of
base64, in which no character needs escaping, so they skip ``json``'s
escape pass.  A payload stays bytes from codec to file: ``_encode`` runs
``base64.b64encode`` on the array's own buffer, with no ``tobytes`` copy of
the array and no decode or re-encode of the base64.  On the way back,
``_decode`` hands the payload string from ``json`` to ``base64.b64decode``
with ``validate=True``, which accepts only valid base64.

``read_json`` is the one reader of a JSON input file, checkpoints and
architecture files alike.  ``checkpoint_from_dict`` reads only the
document's structure: ``validate_spec_chain`` owns the rule for the specs
and ``Checkpoint`` the rules for weights and meta, and ``load_checkpoint``
names the file in each error they raise.  ``check_writable`` is the test
each command makes on its output paths before any work.
"""

from __future__ import annotations

import base64
import json
import os
import re

import numpy as np

from .errors import CheckpointFormatError, CheckpointVersionError, DataFormatError, ValidationError
from .nets import Checkpoint, CheckpointMeta, LayerSpec, LayerWeights, make_checkpoint, validate_spec_chain

FORMAT_VERSION = 1

# the point between the quotes of a payload's empty string in json's text
# ("w", "b" and "coupling" hold payloads and nothing else); a quote inside
# any JSON string is escaped, so nothing else matches
_SLOT = re.compile("|".join(f'(?<="{key}": ")(?=")' for key in ("b", "coupling", "w")).encode())


def _encode(arr: np.ndarray) -> bytes:
    """Base64 of the array's little-endian float64 values in row-major order,
    read from the array's own buffer."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8"))


def _decode(text: str, count: int, what: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValidationError(f"{what}: invalid base64 payload") from exc
    if len(raw) != 8 * count:
        raise ValidationError(
            f"{what}: payload holds {len(raw) // 8} values, expected {count}"
        )
    # read-only over ``raw``; the Checkpoint built from it stores its own copy
    return np.frombuffer(raw, dtype="<f8")


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    if not isinstance(doc, dict):
        raise CheckpointFormatError("checkpoint document is not an object")
    version = doc.get("format_version")
    if type(version) is not int:
        raise CheckpointFormatError("missing or non-integer format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint format_version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    try:
        meta_doc = doc["meta"]
        specs_doc = doc["specs"]
        layers_doc = doc["layers"]
        if len(specs_doc) != len(layers_doc):
            raise CheckpointFormatError(f"{len(specs_doc)} specs but {len(layers_doc)} weight layers")
        specs = [LayerSpec(s["in_dim"], s["out_dim"], s["activation"]) for s in specs_doc]
        payloads = [(entry["w"], entry["b"]) for entry in layers_doc]
        meta = CheckpointMeta(
            meta_doc.get("seed", 0), meta_doc.get("training_epochs", 0), meta_doc.get("tag", "")
        )
    except KeyError as exc:
        raise CheckpointFormatError(f"missing checkpoint field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint fields: {exc}") from exc
    try:
        # the specs are checked before they size a payload, the weights and meta by the build
        specs = validate_spec_chain(specs)
        layers = [
            LayerWeights(
                _decode(w, s.out_dim * s.in_dim, f"layer {i} weights").reshape(s.out_dim, s.in_dim),
                _decode(b, s.out_dim, f"layer {i} bias"),
            )
            for i, (s, (w, b)) in enumerate(zip(specs, payloads))
        ]
        return make_checkpoint(specs, layers, meta)
    except ValidationError as exc:
        raise CheckpointFormatError(f"checkpoint fails validation: {exc}") from exc


def check_writable(*paths) -> None:
    """Open each output path before any work, so an unwritable one fails first
    (exit 2).  A file the check creates is removed again: a failed run leaves
    no output behind, and an existing file is not changed.  Two paths that
    name one file (by inode, so hard links too) raise ``ValidationError``
    before any is opened, as the second write would replace the first."""
    paths = [path for path in paths if path is not None]
    stats = [os.stat(path) if os.path.exists(path) else None for path in paths]
    files = {os.path.realpath(p) if s is None else (s.st_dev, s.st_ino) for p, s in zip(paths, stats)}
    if len(files) < len(paths):
        raise ValidationError(f"output paths name one file twice: {', '.join(map(str, paths))}")
    for path, stat in zip(paths, stats):
        with open(path, "a", encoding="utf-8"):
            pass
        if stat is None:
            os.remove(path)


def _write_json(doc: dict, payloads: list[bytes], path) -> None:
    """Write ``doc`` as ``json.dump(doc, fh, indent=1)`` and a newline would
    write it with each payload in place: ``doc`` holds an empty string in
    each payload's slot, and ``payloads`` holds ``_encode``'s bytes in
    document order."""
    pieces = _SLOT.split(json.dumps(doc, indent=1).encode())
    with open(path, "wb") as fh:
        for piece, payload in zip(pieces, [*payloads, b"\n"], strict=True):
            fh.write(piece)
            fh.write(payload)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "meta": {
            "seed": int(ckpt.meta.seed),
            "training_epochs": int(ckpt.meta.training_epochs),
            "tag": ckpt.meta.tag,
        },
        "specs": [
            {"in_dim": s.in_dim, "out_dim": s.out_dim, "activation": s.activation}
            for s in ckpt.specs
        ],
        "layers": [{"w": "", "b": ""} for _ in ckpt.layers],
    }
    _write_json(doc, [_encode(a) for layer in ckpt.layers for a in (layer.w, layer.b)], path)


def save_maps(layers, path) -> None:
    """Write an alignment's maps file from its per-layer solutions: each
    layer's side and dense coupling, then every objective."""
    doc = {
        "format_version": 1,
        "maps": [{"side": layer.side, "coupling": ""} for layer in layers],
        "objectives": [layer.objective for layer in layers],
    }
    _write_json(doc, [_encode(layer.map) for layer in layers], path)


def read_json(path, error=DataFormatError):
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises
    ``error`` naming it (bad UTF-8, bad JSON, an integer past the digit limit)."""
    # one decode of the whole file: a text-mode read of a 1.4 MB
    # checkpoint took ten times as long
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid UTF-8 JSON ({exc})") from exc


def load_checkpoint(path) -> Checkpoint:
    doc = read_json(path, CheckpointFormatError)
    try:
        return checkpoint_from_dict(doc)
    except (CheckpointFormatError, CheckpointVersionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc

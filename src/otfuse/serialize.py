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
by a newline writes.  ``json`` lays out the document, with every payload
taken out, and ``_write_json`` only fills the payloads into their empty
strings: payloads are megabytes of base64, in which no character needs
escaping, so they skip ``json``'s escape pass.  A payload stays bytes from
codec to file: ``_encode`` runs ``base64.b64encode`` on the array's own
buffer, and the writer puts those bytes into a binary-mode file as they
are, between the pieces of ``json``'s ASCII text, with no ``tobytes`` copy
of the array and no decode or re-encode of the base64.  On the way back,
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

# the keys whose values are base64 payloads; neither format uses them for
# anything else
_PAYLOAD_KEYS = frozenset({"w", "b", "coupling"})
# the point between the quotes of a payload key's empty string in json's
# text; a quote inside any JSON string is escaped, so nothing else matches
_SLOT = re.compile("|".join(f'(?<="{key}": ")(?=")' for key in sorted(_PAYLOAD_KEYS)).encode())


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


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    """The checkpoint file's document, its payloads base64 text."""
    return _checkpoint_doc(ckpt, lambda arr: _encode(arr).decode("ascii"))


def _checkpoint_doc(ckpt: Checkpoint, encode) -> dict:
    """The checkpoint file's document, each array turned into its payload by
    ``encode``."""
    return {
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
        "layers": [{"w": encode(l.w), "b": encode(l.b)} for l in ckpt.layers],
    }


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


def _take_payloads(value, payloads: list):
    """``value`` with each payload replaced by "" and appended to ``payloads``,
    in document order.  Not a closure that calls itself: that reference cycle
    would keep every payload alive until the cycle collector runs."""
    if isinstance(value, dict):
        return {
            key: payloads.append(item) or "" if key in _PAYLOAD_KEYS else _take_payloads(item, payloads)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_take_payloads(item, payloads) for item in value]
    return value


def _write_json(doc: dict, path) -> None:
    """Write ``doc``, whose payloads are ``_encode``'s bytes, as
    ``json.dump(doc, fh, indent=1)`` and a newline would write it with each
    payload decoded to ASCII: each payload goes between the quotes of its
    empty string as it is."""
    payloads = []
    pieces = _SLOT.split(json.dumps(_take_payloads(doc, payloads), indent=1).encode())
    with open(path, "wb") as fh:
        for piece, payload in zip(pieces, [*payloads, b"\n"], strict=True):
            fh.write(piece)
            fh.write(payload)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    _write_json(_checkpoint_doc(ckpt, _encode), path)


def save_maps(layers, path) -> None:
    """Write an alignment's maps file from its per-layer solutions: each
    layer's side and dense coupling, then every objective."""
    _write_json(
        {
            "format_version": 1,
            "maps": [{"side": layer.side, "coupling": _encode(layer.map)} for layer in layers],
            "objectives": [layer.objective for layer in layers],
        },
        path,
    )


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

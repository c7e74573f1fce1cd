"""Each reader passes its file's values to the constructor that owns the rule,
and the error it raises names the file."""

import json
import re

import numpy as np
import pytest

from helpers import random_checkpoint
from otfuse.cli import _load_arch
from otfuse.data import load_dataset_csv
from otfuse.errors import CheckpointFormatError, DataFormatError
from otfuse.scoring import read_hypotheses
from otfuse.serialize import checkpoint_to_dict, load_checkpoint


def _checkpoint_text(edit):
    doc = checkpoint_to_dict(random_checkpoint(np.random.default_rng(9)))
    edit(doc)
    return json.dumps(doc)


_ARCH_TAIL = {"in_dim": 4, "out_dim": 2, "activation": "identity"}

CASES = {
    "checkpoint-spec-is-a-number": (
        load_checkpoint, CheckpointFormatError,
        _checkpoint_text(lambda doc: doc["specs"].__setitem__(0, 5)), "not subscriptable",
    ),
    "checkpoint-zero-in-dim": (
        load_checkpoint, CheckpointFormatError,
        _checkpoint_text(lambda doc: doc["specs"][0].__setitem__("in_dim", 0)), "in_dim",
    ),
    "arch-zero-out-dim": (
        _load_arch, DataFormatError,
        json.dumps([{"in_dim": 2, "out_dim": 0}, _ARCH_TAIL]), "out_dim",
    ),
    "arch-unknown-activation": (
        _load_arch, DataFormatError,
        json.dumps([{"in_dim": 2, "out_dim": 4, "activation": "sigmoid"}, _ARCH_TAIL]), "sigmoid",
    ),
    "arch-empty-list": (_load_arch, DataFormatError, "[]", "empty"),
    "dataset-label-past-classes": (
        lambda path: load_dataset_csv(path, 2), DataFormatError,
        "f0,label\n0.5,0\n1.5,7\n", "got range [0, 7]",
    ),
    # 2**63 does not fit int64: it must be reported as itself, not wrapped to -2**63
    "dataset-label-2**63": (
        lambda path: load_dataset_csv(path, 2), DataFormatError,
        "f0,label\n0.5,0\n1.5,9223372036854775808\n", "got range [0, 9223372036854775808]",
    ),
    "dataset-label-2**63-alone": (
        lambda path: load_dataset_csv(path, 2), DataFormatError,
        "f0,label\n1.5,9223372036854775808\n", "got range [9223372036854775808, 9223372036854775808]",
    ),
    "dataset-label-past-64-bits": (
        lambda path: load_dataset_csv(path, 2), DataFormatError,
        "f0,label\n0.5,-1\n1.5,99999999999999999999\n", "got range [-1, 99999999999999999999]",
    ),
    "hypotheses-nan-confidence": (
        lambda path: read_hypotheses(path, "sys"), DataFormatError, "u1\ta b\tnan 0.5\n", "nan",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_file_is_named(tmp_path, case):
    reader, error, text, detail = CASES[case]
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(error, match=re.escape(str(path))) as exc:
        reader(path)
    assert detail in str(exc.value)

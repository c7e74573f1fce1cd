"""Property tests: malformed input files raise only the package's errors."""

import base64
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from otfuse.cli import _load_arch
from otfuse.data import load_dataset_csv
from otfuse.errors import OtfuseError
from otfuse.scoring import read_hypotheses, read_references
from otfuse.serialize import checkpoint_from_dict, load_checkpoint

READERS = {
    "arch": _load_arch,
    "dataset": lambda path: load_dataset_csv(path, 2),
    "checkpoint": load_checkpoint,
    "references": read_references,
    "hypotheses": lambda path: read_hypotheses(path, "system"),
}

# strings are drawn from a fixed list, which keeps hypothesis from building
# its unicode tables on a first run
_text = st.sampled_from(["", "relu", "tanh", "identity", "in_dim", "w", "b", "seed", "é", "\x00"])
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _text),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(_text, kids, max_size=3)),
    max_leaves=10,
)
_odd = st.sampled_from([0, -1, 10**20, float("inf"), float("nan"), 1.5, "2", None, [], {}])
_dim = st.one_of(st.integers(1, 3), _odd)
_payload = st.one_of(st.binary(max_size=24).map(lambda b: base64.b64encode(b).decode()), _odd)
_checkpoint = st.integers(0, 3).flatmap(lambda n: st.fixed_dictionaries({
    "format_version": st.just(1),
    "meta": st.fixed_dictionaries({"seed": _dim, "training_epochs": _dim, "tag": st.one_of(_text, _odd)}),
    "specs": st.lists(
        st.fixed_dictionaries({"in_dim": _dim, "out_dim": _dim, "activation": st.one_of(_text, _odd)}),
        min_size=n, max_size=n,
    ),
    "layers": st.lists(
        st.one_of(st.fixed_dictionaries({"w": _payload, "b": _payload}), _odd), min_size=n, max_size=n
    ),
}))
_documents = st.one_of(_checkpoint, _json)
# fragments of every format, so files get past the first header or brace
_fragments = st.sampled_from([
    "f0", ",f1", ",label", ",", "\t", "\n", "\r", " ", "0", "1", "-1", "0.5", "1e999", "nan",
    "99999999999999999999", "[", "]", "{", "}", ":", '"in_dim"', '"out_dim"', "Infinity", "é",
])
_files = st.one_of(
    st.binary(max_size=64),
    st.lists(_fragments, max_size=30).map(lambda parts: "".join(parts).encode()),
    _documents.map(lambda doc: json.dumps(doc).encode()),
    st.tuples(_documents, st.binary(max_size=3)).map(lambda t: json.dumps(t[0]).encode() + t[1]),
)
# a fixed example stream keeps the test deterministic and writes no database
_settings = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_raise_only_package_errors(reader, tmp_path_factory):
    path = tmp_path_factory.mktemp(reader) / "input"

    @_settings
    @given(_files)
    @example(b"\xff")
    @example(b"[" * 100000)
    @example(b'[{"in_dim": Infinity, "out_dim": 1}]')
    @example(b"f0,label\n1,99999999999999999999\n")
    # integers past Python's 4300-digit conversion limit
    @example(b'{"format_version": ' + b"1" * 5000 + b"}")
    @example(b'[{"in_dim": ' + b"1" * 5000 + b', "out_dim": 1}]')
    def check(raw):
        path.write_bytes(raw)
        try:
            READERS[reader](path)
        except OtfuseError:
            pass

    check()


@_settings
@given(_documents)
@example({"format_version": 1, "meta": {}, "specs": [{"in_dim": 10**20, "out_dim": 0, "activation": "relu"}],
          "layers": [{"w": "", "b": ""}]})
def test_checkpoint_from_dict_raises_only_package_errors(doc):
    try:
        checkpoint_from_dict(doc)
    except OtfuseError:
        pass

"""Checkpoint and maps files: the writer's bytes are json.dump's bytes."""

import base64
import gc
import hashlib
import json
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otfuse.cli import main
from otfuse.nets import CheckpointMeta, LayerSpec, LayerWeights, make_checkpoint
from otfuse.serialize import _write_json, checkpoint_to_dict, load_checkpoint, save_checkpoint, save_maps
from otfuse.transport import OtSolution

# Free-text tags are joined from pieces json.dump escapes (quote, backslash,
# control characters, non-ASCII, a lone surrogate) and pieces that look like
# JSON syntax or a payload key's slot.  A fixed list keeps hypothesis from building its unicode tables.
_pieces = st.sampled_from([
    "", "a", '"', "\\", "\x00", "\x1f", "\n", "é", " ", "\ud800", "\U0001f600",
    "null", '": "', "/", "\t", "{", "]", '"w": "', '"b": ""', '"coupling": "', "w",
])
_tags = st.lists(_pieces, max_size=6).map("".join)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_settings = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _checkpoints(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    acts = [draw(st.sampled_from(["relu", "tanh", "identity"])) for _ in dims[2:]] + ["identity"]
    specs = tuple(LayerSpec(i, o, a) for i, o, a in zip(dims, dims[1:], acts))
    layers = [
        LayerWeights(
            draw(arrays(np.float64, (s.out_dim, s.in_dim), elements=_finite)),
            draw(arrays(np.float64, s.out_dim, elements=_finite)),
        )
        for s in specs
    ]
    meta = CheckpointMeta(
        seed=draw(st.integers(0, 2**64)),
        training_epochs=draw(st.integers(0, 10**6)),
        tag=draw(_tags),
    )
    return make_checkpoint(specs, layers, meta)


@st.composite
def _solutions(draw):
    side = draw(st.integers(1, 4))
    objective = draw(st.floats())  # NaN and infinities included: json.dump writes them too
    if draw(st.booleans()):
        assignment = np.array(draw(st.permutations(range(side))))
        return OtSolution(None, objective, "exact", 0, assignment=assignment)
    coupling = draw(arrays(np.float64, (side, side), elements=_finite))
    return OtSolution(coupling, objective, "sinkhorn", draw(st.integers(0, 100)), draw(st.booleans()))


def _base64(arr) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def test_checkpoint_bytes_are_json_dump_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "c.json"

    @_settings
    @given(_checkpoints())
    def check(ckpt):
        save_checkpoint(ckpt, path)
        expected = json.dumps(checkpoint_to_dict(ckpt), indent=1) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        back = load_checkpoint(path)
        assert back.specs == ckpt.specs and back.meta == ckpt.meta
        for got, want in zip(back.layers, ckpt.layers):
            assert got.w.tobytes() == want.w.tobytes()  # bit-exact, -0.0 included
            assert got.b.tobytes() == want.b.tobytes()

    check()


def test_maps_bytes_are_json_dump_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "maps.json"

    @_settings
    @given(st.lists(_solutions(), max_size=4))
    def check(layers):
        save_maps(layers, path)
        # the documented maps format, built here independently of the writer
        doc = {
            "format_version": 1,
            "maps": [{"side": layer.side, "coupling": _base64(layer.map)} for layer in layers],
            "objectives": [layer.objective for layer in layers],
        }
        assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode("utf-8")

    check()


SPECS = (LayerSpec(4, 6, "relu"), LayerSpec(6, 6, "relu"), LayerSpec(6, 3, "identity"))
ODD_TAG = 'quote " backslash \\ nul \x00 e-acute \xe9'


def _net(seed: int, tag: str):
    """Weights on a 1/8 grid: every product and sum of the exact cost build
    is exact, so no BLAS kernel or thread count rounds it differently."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerWeights(rng.integers(-16, 17, (s.out_dim, s.in_dim)) / 8, rng.integers(-16, 17, s.out_dim) / 8)
        for s in SPECS
    ]
    return make_checkpoint(SPECS, layers, CheckpointMeta(seed=seed, training_epochs=3, tag=tag))


# sha256 of net A as saved, then of align's --out and --maps-out files,
# recorded when json.dump still wrote them.  align names its output
# "aligned", so the odd tag reaches only net A's file.  The Sinkhorn files
# also hold numpy's exp and log of inexact values, to the last bit; they
# were re-recorded when the sweeps past the first stall check became
# over-relaxed.
PINNED = {
    "exact": (
        "b6f0f75199c07fd1c9e31a54ca3007aad94dbd09fd809d7b026b24c688f92686",
        "61f71249bb7955c7589deaee15d9bf778e1a946dd9d4ec4ea33abff51358bec3",
        "c2959194b90d4bde89becca4795bc7f915c227d745c876d21be681d1eefd88f6",
    ),
    "sinkhorn": (
        "b6f0f75199c07fd1c9e31a54ca3007aad94dbd09fd809d7b026b24c688f92686",
        "f2cbf9da8ede92b0b2eb12b1840fb6bf9f97bd79cc0b3887b8b2526fff91fd4d",
        "96ff045b8e77193cd789a6ecd8efb6c1a32521d11099bc71faad4b3f55229019",
    ),
    "free-last-layer": (
        "b6f0f75199c07fd1c9e31a54ca3007aad94dbd09fd809d7b026b24c688f92686",
        "1ffd4303eaf28bb357e7b6c4c101d058d57246f89676896b6e327d94896686d7",
        "c26c98343f20cf31f97e99322864136069dd1621b0df7e70799b6efe76537f6a",
    ),
    "odd-tag": (
        "31d1f9e026a487e553b99cb005d69bfdd84e29c3280296c49352a3359836334b",
        "61f71249bb7955c7589deaee15d9bf778e1a946dd9d4ec4ea33abff51358bec3",
        "c2959194b90d4bde89becca4795bc7f915c227d745c876d21be681d1eefd88f6",
    ),
}


@pytest.mark.parametrize("case, tag, flags", [
    ("exact", "net a", []),
    ("sinkhorn", "net a", ["--solver", "sinkhorn"]),
    ("free-last-layer", "net a", ["--free-last-layer"]),
    ("odd-tag", ODD_TAG, []),
])
def test_align_file_bytes_are_pinned(tmp_path, capsys, case, tag, flags):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    out, maps = tmp_path / "aligned.json", tmp_path / "maps.json"
    save_checkpoint(_net(1, tag), a)
    save_checkpoint(_net(2, "net b"), b)
    assert main(["align", str(a), str(b), "--out", str(out), "--maps-out", str(maps), *flags]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (a, out, maps))
    assert digests == PINNED[case]


def test_writer_keeps_no_reference_to_a_payload(tmp_path):
    """A reference cycle in the writer would keep each payload alive until
    the cycle collector runs; with the collector off, it shows as a count."""
    doc = checkpoint_to_dict(_net(3, "net"))
    payload = doc["layers"][0]["w"]
    gc.disable()
    try:
        before = sys.getrefcount(payload)
        _write_json(doc, tmp_path / "c.json")
        after = sys.getrefcount(payload)
    finally:
        gc.enable()
    assert after == before

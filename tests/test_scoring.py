import itertools
from functools import lru_cache

import numpy as np
import pytest

from helpers import random_checkpoint
from otfuse.data import Dataset, DomainMixtureConfig, gen_synthetic
from otfuse.errors import DataFormatError, ValidationError
from otfuse.fusion import direct_average
from otfuse.nets import LayerSpec, TrainConfig, init_checkpoint, loss, train
from otfuse.scoring import (
    EditCounts,
    Hypothesis,
    HypothesisSet,
    confidence_select,
    edit_distance,
    ensemble_logits,
    error_rate,
    landscape,
    mean_confidence,
    oracle_select,
    read_hypotheses,
    read_references,
    selected_set,
    write_landscape_csv,
)


def dp_table_distance(ref, hyp):
    """Independent full-table Levenshtein (totals only)."""
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i][j] = min(
                table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
            )
    return table[n][m]


def memoized_distance(ref, hyp):
    """Independent recursive oracle."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        return min(
            go(i + 1, j + 1) + (ref[i] != hyp[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


class TestEditDistance:
    def test_single_substitution(self):
        assert edit_distance("a b c".split(), "a x c".split()) == EditCounts(1, 0, 0)

    def test_pure_insertion(self):
        assert edit_distance([], "a b".split()) == EditCounts(0, 0, 2)

    def test_kitten_sitting(self):
        ref = list("kitten")
        hyp = list("sitting")
        counts = edit_distance(ref, hyp)
        assert counts.total == 3
        assert counts.total == dp_table_distance(ref, hyp)
        assert counts == EditCounts(2, 0, 1)

    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            toks = [str(t) for t in rng.integers(0, 5, rng.integers(0, 10))]
            assert edit_distance(toks, toks).total == 0

    def test_symmetry_swaps_dels_and_ins(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = [str(t) for t in rng.integers(0, 4, rng.integers(0, 9))]
            b = [str(t) for t in rng.integers(0, 4, rng.integers(0, 9))]
            fwd = edit_distance(a, b)
            rev = edit_distance(b, a)
            assert fwd.total == rev.total
            assert fwd.subs == rev.subs
            assert fwd.dels == rev.ins and fwd.ins == rev.dels

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            seqs = [
                [str(t) for t in rng.integers(0, 3, rng.integers(0, 8))]
                for _ in range(3)
            ]
            ab = edit_distance(seqs[0], seqs[1]).total
            bc = edit_distance(seqs[1], seqs[2]).total
            ac = edit_distance(seqs[0], seqs[2]).total
            assert ac <= ab + bc

    def test_matches_memoized_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = tuple(str(t) for t in rng.integers(0, 6, rng.integers(0, 13)))
            b = tuple(str(t) for t in rng.integers(0, 6, rng.integers(0, 13)))
            assert edit_distance(a, b).total == memoized_distance(a, b)


def hset(name, table, confidences=None):
    items = {}
    for utt, tokens in table.items():
        conf = None
        if confidences is not None:
            conf = tuple(confidences[utt])
        items[utt] = Hypothesis(utt, tuple(tokens.split()) if tokens else (), conf)
    return HypothesisSet(name, items)


class TestErrorRate:
    def test_perfect_hypotheses(self):
        refs = {"u1": ("a", "b"), "u2": ("c",)}
        hyps = hset("s", {"u1": "a b", "u2": "c"})
        assert error_rate(refs, hyps) == 0.0

    def test_arithmetic(self):
        refs = {"u1": ("a", "b", "c"), "u2": ("d", "e")}
        hyps = hset("s", {"u1": "a x c", "u2": "d e"})
        assert error_rate(refs, hyps) == 0.2

    def test_empty_hypotheses_are_all_deletions(self):
        refs = {"u1": ("a", "b"), "u2": ("c", "d", "e")}
        hyps = hset("s", {"u1": "", "u2": ""})
        assert error_rate(refs, hyps) == 1.0

    def test_can_exceed_one(self):
        refs = {"u": ("a",)}
        hyps = hset("s", {"u": "x y z"})
        assert error_rate(refs, hyps) == 3.0

    def test_missing_reference_rejected(self):
        refs = {"u1": ("a",)}
        hyps = hset("s", {"u1": "a", "u2": "b"})
        with pytest.raises(ValidationError):
            error_rate(refs, hyps)

    def test_zero_reference_length_rejected(self):
        refs = {"u1": ()}
        hyps = hset("s", {"u1": ""})
        with pytest.raises(ValidationError):
            error_rate(refs, hyps)


class TestOracleSelect:
    def test_complementary_systems_reach_zero(self):
        refs = {"u1": ("a", "b"), "u2": ("c", "d")}
        s1 = hset("s1", {"u1": "a b", "u2": "x y"})
        s2 = hset("s2", {"u1": "p q", "u2": "c d"})
        result = oracle_select([s1, s2], refs)
        assert result.wer == 0.0
        assert result.selection == {"u1": "s1", "u2": "s2"}

    def test_identical_systems_match_individual(self):
        refs = {"u1": ("a", "b", "c")}
        s1 = hset("s1", {"u1": "a x c"})
        s2 = hset("s2", {"u1": "a x c"})
        result = oracle_select([s1, s2], refs)
        assert result.wer == error_rate(refs, s1)
        assert result.selection["u1"] == "s1"  # tie goes to the first system

    def test_matches_exhaustive_selection(self):
        rng = np.random.default_rng(4)
        vocab = ["a", "b", "c", "d"]
        for _ in range(10):
            n_utt = int(rng.integers(2, 8))
            refs = {
                f"u{i}": tuple(rng.choice(vocab, rng.integers(1, 6)))
                for i in range(n_utt)
            }
            sets = []
            for s in range(2):
                table = {
                    u: " ".join(rng.choice(vocab, rng.integers(0, 6)))
                    for u in refs
                }
                sets.append(hset(f"s{s}", table))
            got = oracle_select(sets, refs).wer
            ref_len = sum(len(t) for t in refs.values())
            best = min(
                sum(
                    edit_distance(refs[u], sets[pick].items[u].tokens).total
                    for u, pick in zip(refs, choice)
                )
                for choice in itertools.product(range(2), repeat=n_utt)
            )
            assert got == best / ref_len

    def test_oracle_never_above_constituents(self):
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "c"]
        refs = {f"u{i}": tuple(rng.choice(vocab, 4)) for i in range(12)}
        sets = [
            hset(f"s{s}", {u: " ".join(rng.choice(vocab, 4)) for u in refs})
            for s in range(3)
        ]
        oracle_wer = oracle_select(sets, refs).wer
        for hs in sets:
            assert oracle_wer <= error_rate(refs, hs)

    def test_coverage_gap_rejected(self):
        refs = {"u1": ("a",), "u2": ("b",)}
        s1 = hset("s1", {"u1": "a"})
        with pytest.raises(ValidationError):
            oracle_select([s1], refs)

    def test_duplicate_system_names_rejected(self):
        refs = {"u": ("a",)}
        right = hset("sys", {"u": "a"}, {"u": (0.4,)})
        wrong = hset("sys", {"u": "x"}, {"u": (0.9,)})
        with pytest.raises(ValidationError):
            oracle_select([right, wrong], refs)
        with pytest.raises(ValidationError):
            confidence_select([right, wrong])
        with pytest.raises(ValidationError):
            selected_set([right, wrong], {"u": "sys"})


class TestConfidenceSelect:
    def test_higher_confidence_wins(self):
        s1 = hset("s1", {"u": "a b"}, {"u": (0.9, 0.9)})
        s2 = hset("s2", {"u": "a b"}, {"u": (0.5, 0.5)})
        assert confidence_select([s1, s2]) == {"u": "s1"}

    def test_single_system_always_chosen(self):
        s1 = hset("s1", {"u": "a"}, {"u": (0.2,)})
        assert confidence_select([s1]) == {"u": "s1"}

    @pytest.mark.parametrize("tokens, confidences", [
        (("x",), (float("nan"),)), (("x",), (1.5,)), (("x",), (-0.1,)), (("x",), ("0.5",)),
        (("x",), (True,)), (("x", "y"), (0.5,)), ((), (0.5,)),
    ], ids=["nan", "above-one", "negative", "string", "bool", "too-few", "too-many"])
    def test_hypothesis_checks_its_confidences(self, tokens, confidences):
        # a NaN confidence never wins a max: confidence_select picked its
        # system when listed first and the other system when listed second
        with pytest.raises(ValidationError, match="'u'"):
            Hypothesis("u", tokens, confidences)

    def test_empty_hypothesis_confidence_is_zero(self):
        h = Hypothesis("u", (), ())
        assert mean_confidence(h) == 0.0

    def test_missing_confidences_rejected(self):
        s1 = hset("s1", {"u": "a"})
        with pytest.raises(ValidationError):
            confidence_select([s1])

    def test_confident_but_wrong_system_beats_oracle(self):
        refs = {"u1": ("a", "b"), "u2": ("c", "d")}
        right = hset("right", {"u1": "a b", "u2": "c d"},
                     {"u1": (0.4, 0.4), "u2": (0.4, 0.4)})
        wrong = hset("wrong", {"u1": "x y", "u2": "p q"},
                     {"u1": (0.99, 0.99), "u2": (0.99, 0.99)})
        sel = confidence_select([right, wrong])
        picked = selected_set([right, wrong], sel)
        sel_wer = error_rate(refs, picked)
        oracle_wer = oracle_select([right, wrong], refs).wer
        assert sel_wer > oracle_wer

    def test_selection_wer_never_below_oracle(self):
        rng = np.random.default_rng(6)
        vocab = ["a", "b", "c"]
        for _ in range(20):
            refs = {f"u{i}": tuple(rng.choice(vocab, 3)) for i in range(6)}
            sets = []
            for s in range(2):
                table, conf = {}, {}
                for u in refs:
                    k = int(rng.integers(0, 5))
                    table[u] = " ".join(rng.choice(vocab, k))
                    conf[u] = tuple(rng.uniform(0, 1, k))
                sets.append(hset(f"s{s}", table, conf))
            sel_wer = error_rate(refs, selected_set(sets, confidence_select(sets)))
            assert sel_wer >= oracle_select(sets, refs).wer


class TestEnsemble:
    def _task(self, seed):
        cfg = DomainMixtureConfig(num_classes=3, feature_dim=6, domains=(0,))
        tr, he = gen_synthetic(cfg, seed)
        specs = (LayerSpec(6, 8, "relu"), LayerSpec(8, 3, "identity"))
        return tr, he, specs

    def test_single_model_matches_itself(self):
        tr, he, specs = self._task(0)
        m = train(specs, tr, TrainConfig(epochs=20, seed=1))
        metrics = ensemble_logits([m], he)
        assert metrics.loss == loss(m, he)

    def test_duplicated_model_matches_itself(self):
        tr, he, specs = self._task(1)
        m = train(specs, tr, TrainConfig(epochs=20, seed=2))
        metrics = ensemble_logits([m, m], he)
        np.testing.assert_allclose(metrics.loss, loss(m, he), atol=1e-12)

    def test_ensemble_rarely_below_weakest(self):
        wins = 0
        for seed in range(10):
            tr, he, specs = self._task(seed + 10)
            a = train(specs, tr, TrainConfig(epochs=30, seed=seed * 2))
            b = train(specs, tr, TrainConfig(epochs=30, seed=seed * 2 + 1))
            from otfuse.nets import accuracy

            ens = ensemble_logits([a, b], he).accuracy
            wins += ens >= min(accuracy(a, he), accuracy(b, he))
        assert wins >= 8

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        a = random_checkpoint(rng, (LayerSpec(4, 2, "identity"),))
        b = random_checkpoint(rng, (LayerSpec(5, 2, "identity"),))
        data = Dataset(np.zeros((2, 4)), np.array([0, 1]), 2)
        with pytest.raises(ValidationError):
            ensemble_logits([a, b], data)


class TestLandscape:
    def _setup(self, seed=0):
        cfg = DomainMixtureConfig(num_classes=3, feature_dim=6, domains=(0,))
        tr, he = gen_synthetic(cfg, seed)
        specs = (LayerSpec(6, 10, "relu"), LayerSpec(10, 3, "identity"))
        theta0 = init_checkpoint(specs, 5)
        theta = train(specs, tr, TrainConfig(epochs=80, seed=5))
        return theta0, theta, tr, he

    def test_endpoints_equal_direct_evaluation_exactly(self):
        theta0, theta, _, he = self._setup()
        curve = landscape(theta0, theta, he, num_points=7)
        assert curve.losses[0] == loss(theta0, he)
        assert curve.losses[-1] == loss(theta, he)
        assert curve.alphas[0] == 0.0 and curve.alphas[-1] == 1.0

    def test_identical_endpoints_give_constant_curve(self):
        theta0, _, _, he = self._setup(1)
        curve = landscape(theta0, theta0, he, num_points=5)
        assert np.all(curve.losses == curve.losses[0])

    def test_converged_endpoint_below_init(self):
        theta0, theta, _, he = self._setup(2)
        curve = landscape(theta0, theta, he, num_points=11)
        assert curve.losses[-1] < curve.losses[0]

    def test_interpolation_matches_direct_average_checkpoints(self):
        from otfuse.nets import interpolate, max_weight_difference

        theta0, theta, _, he = self._setup(3)
        curve = landscape(theta0, theta, he, num_points=5)
        for a, l in zip(curve.alphas, curve.losses):
            blended = direct_average(theta0, theta, float(a))
            # interpolation and averaging are the same affine operation
            assert max_weight_difference(blended, interpolate(theta0, theta, float(a))) == 0.0
            assert loss(blended, he) == l

    def test_num_points_validation(self):
        theta0, theta, _, he = self._setup(4)
        with pytest.raises(ValidationError):
            landscape(theta0, theta, he, num_points=1)

    @pytest.mark.parametrize("num_points", ["3", 2.5, True, 10**20], ids=["str", "float", "bool", "huge"])
    def test_num_points_must_be_an_integer_that_fits_an_array(self, num_points):
        specs = (LayerSpec(6, 10, "relu"), LayerSpec(10, 3, "identity"))
        data, _ = gen_synthetic(DomainMixtureConfig(num_classes=3, feature_dim=6, domains=(0,)), 0)
        with pytest.raises(ValidationError, match="num_points"):
            landscape(init_checkpoint(specs, 0), init_checkpoint(specs, 1), data, num_points)


class TestFileFormats:
    def test_reference_and_hypothesis_roundtrip(self, tmp_path):
        ref_path = tmp_path / "refs.txt"
        ref_path.write_text("u1\tthe cat sat\nu2\thello\n")
        refs = read_references(ref_path)
        assert refs == {"u1": ("the", "cat", "sat"), "u2": ("hello",)}

        hyp_path = tmp_path / "hyps.txt"
        hyp_path.write_text("u1\tthe cat sat\t0.9 0.8 0.7\nu2\thello\t0.5\n")
        hs = read_hypotheses(hyp_path, "sys")
        assert hs.items["u1"].confidences == (0.9, 0.8, 0.7)
        assert error_rate(refs, hs) == 0.0

    def test_repeated_and_trailing_spaces_make_no_tokens(self, tmp_path):
        ref_path = tmp_path / "refs.txt"
        ref_path.write_text("u1\thello  world\n")
        refs = read_references(ref_path)
        assert refs == {"u1": ("hello", "world")}

        hyp_path = tmp_path / "hyps.txt"
        hyp_path.write_text("u1\t hello world \t0.9 0.8\n")
        hs = read_hypotheses(hyp_path, "sys")
        assert hs.items["u1"].tokens == ("hello", "world")
        assert hs.items["u1"].confidences == (0.9, 0.8)
        assert error_rate(refs, hs) == 0.0

    def test_empty_hypothesis_line(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("u1\t\n")
        hs = read_hypotheses(p, "sys")
        assert hs.items["u1"].tokens == ()

    def test_confidence_count_mismatch(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("u1\ta b\t0.5\n")
        with pytest.raises(DataFormatError):
            read_hypotheses(p, "sys")

    def test_confidence_out_of_range(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("u1\ta\t1.5\n")
        with pytest.raises(DataFormatError):
            read_hypotheses(p, "sys")

    def test_duplicate_utterance(self, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("u1\ta\nu1\tb\n")
        with pytest.raises(DataFormatError):
            read_references(p)

    def test_landscape_csv(self, tmp_path):
        from otfuse.scoring import LandscapeCurve

        curve = LandscapeCurve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.25, 0.5]))
        path = tmp_path / "curve.csv"
        write_landscape_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,loss"
        assert lines[1] == "0,1"
        assert lines[2] == "0.5,0.25"

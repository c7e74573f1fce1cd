import math
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import datasets_equal, nearest_centroid_accuracy
from otfuse.data import (
    Dataset,
    DomainMixtureConfig,
    concat_datasets,
    gen_synthetic,
    load_dataset_csv,
    save_dataset_csv,
)
from otfuse.errors import DataFormatError, ValidationError


class TestGenSynthetic:
    def test_same_seed_identical(self):
        cfg = DomainMixtureConfig()
        a_train, a_held = gen_synthetic(cfg, 42)
        b_train, b_held = gen_synthetic(cfg, 42)
        assert datasets_equal(a_train, b_train)
        assert datasets_equal(a_held, b_held)

    def test_different_seed_differs(self):
        cfg = DomainMixtureConfig()
        a, _ = gen_synthetic(cfg, 1)
        b, _ = gen_synthetic(cfg, 2)
        assert not datasets_equal(a, b)

    def test_zero_shift_means_equal_across_domains(self):
        # with no shift both domains sample the same class-conditional law
        cfg = DomainMixtureConfig(domain_shift=0.0, train_per_class=2000,
                                  heldout_per_class=1, noise_scale=0.5)
        d0, _ = gen_synthetic(replace(cfg, domains=(0,)), 5)
        d1, _ = gen_synthetic(replace(cfg, domains=(1,)), 5)
        for c in range(cfg.num_classes):
            m0 = d0.features[d0.labels == c].mean(axis=0)
            m1 = d1.features[d1.labels == c].mean(axis=0)
            assert np.abs(m0 - m1).max() < 0.1  # ~6 sigma of the mean estimate

    def test_domain_subset_reproduces_joint_rows(self):
        cfg = DomainMixtureConfig(train_per_class=10, heldout_per_class=5)
        joint_train, joint_held = gen_synthetic(cfg, 9)
        only0_train, only0_held = gen_synthetic(replace(cfg, domains=(0,)), 9)
        n0 = cfg.num_classes * cfg.train_per_class
        assert np.array_equal(joint_train.features[:n0], only0_train.features)
        h0 = cfg.num_classes * cfg.heldout_per_class
        assert np.array_equal(joint_held.features[:h0], only0_held.features)

    def test_centroid_oracle_beats_chance(self):
        cfg = DomainMixtureConfig()
        train, held = gen_synthetic(cfg, 3)
        assert nearest_centroid_accuracy(train, held) > 1.0 / cfg.num_classes

    def test_degenerate_noise_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic(DomainMixtureConfig(noise_scale=0.0), 0)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic(DomainMixtureConfig(num_classes=1), 0)

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 2.5), ("noise_scale", "1"), ("train_per_class", True),
        *[(field, value) for field in ("domain_shift", "mean_scale")
          for value in ("2", True, math.nan, math.inf, -math.inf)],
    ])
    def test_bad_argument_type_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            gen_synthetic(DomainMixtureConfig(**{field: value}), 0)

    @pytest.mark.parametrize("value", [0.0, -1.5, 3, np.float32(0.5), np.int64(-2)])
    def test_any_finite_shift_and_scale_accepted(self, value):
        cfg = DomainMixtureConfig(domain_shift=value, mean_scale=value)
        train, _ = gen_synthetic(cfg, 0)
        assert np.isfinite(train.features).all()

    def test_no_domains_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic(DomainMixtureConfig(domains=()), 0)

    @pytest.mark.parametrize("field, value", [
        ("noise_scale", 0.0), ("num_classes", 1), ("domains", ()),
        ("num_classes", 2.5), ("noise_scale", "1"), ("train_per_class", True),
        *[(field, value) for field in ("domain_shift", "mean_scale")
          for value in ("2", True, math.nan, math.inf, -math.inf)],
    ])
    def test_config_checks_itself_when_built(self, field, value):
        with pytest.raises(ValidationError):
            DomainMixtureConfig(**{field: value})

    def test_per_domain_counts(self):
        cfg = DomainMixtureConfig(num_classes=4, train_per_class=7, heldout_per_class=3)
        train, held = gen_synthetic(cfg, 0)
        assert train.features.shape[0] == 2 * 4 * 7
        assert held.features.shape[0] == 2 * 4 * 3


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)

    @pytest.mark.parametrize("labels, shown", [
        (np.array([0, 2**63], dtype=np.uint64), "[0, 9223372036854775808]"),
        (np.array([0, 2**64 - 1], dtype=np.uint64), "[0, 18446744073709551615]"),
        (np.array([0, -1], dtype=np.int8), "[-1, 0]"),
        ([0, 10**30], f"[0, {10**30}]"),
    ], ids=["uint64-2**63", "uint64-max", "int8", "past-64-bits"])
    def test_label_out_of_range_is_reported_as_given(self, labels, shown):
        with pytest.raises(ValidationError, match=re.escape(f"got range {shown}")):
            Dataset(np.zeros((2, 2)), labels, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)

    def test_keeps_read_only_copies_of_its_inputs(self):
        feats, labels = np.zeros((2, 2), dtype=np.float32), [0, 1]
        ds = Dataset(feats, labels, np.int64(2))
        feats[0, 0], labels[0] = 5.0, 1
        assert np.array_equal(ds.features, np.zeros((2, 2))) and np.array_equal(ds.labels, [0, 1])
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        assert type(ds.num_classes) is int

    @pytest.mark.parametrize("num_classes", ["3", 2.9, True, 0, 2**64],
                             ids=["str", "float", "bool", "zero", "past-int64"])
    def test_num_classes_must_be_a_positive_integer(self, num_classes):
        with pytest.raises(ValidationError, match="num_classes"):
            Dataset(np.zeros((2, 2)), np.array([0, 0]), num_classes)
        # checked before the labels, so a label int64 cannot hold is never stored wrapped
        with pytest.raises(ValidationError, match="num_classes"):
            Dataset(np.zeros((1, 2)), np.array([2**63], dtype=np.uint64), num_classes)

    @pytest.mark.parametrize("labels", [
        np.array([0.9, 1.7]), np.array(["0", "1"]), np.array([False, True]), [0, 1.0],
    ], ids=["float", "str", "bool", "mixed-list"])
    def test_labels_must_be_integers(self, labels):
        with pytest.raises(ValidationError, match="labels"):
            Dataset(np.zeros((2, 2)), labels, 2)

    def test_empty_labels_report_an_empty_dataset(self):
        with pytest.raises(ValidationError, match="dataset is empty"):
            Dataset(np.zeros((0, 2)), [], 2)

    def test_concat_disagreement(self):
        a = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
        b = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        with pytest.raises(ValidationError):
            concat_datasets(a, b)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((10, 3)), rng.integers(0, 4, 10), 4)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path, 4)
        assert datasets_equal(ds, loaded)
        header = path.read_text().splitlines()[0]
        assert header == "f0,f1,f2,label"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(DataFormatError):
            load_dataset_csv(path, 2)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0\n")
        with pytest.raises(DataFormatError):
            load_dataset_csv(path, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
    def test_non_finite_feature_names_its_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3:")):
            load_dataset_csv(path, 2)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nx,0\n")
        with pytest.raises(DataFormatError):
            load_dataset_csv(path, 2)

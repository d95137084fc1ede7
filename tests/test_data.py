"""Dataset ingestion, windowing, synthetic generation and contamination."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstrace import data
from losstrace.errors import ConfigError, ParseError


def series(values, labels=None, names=None):
    return data.MultivariateSeries(np.asarray(values, dtype=float), labels, names or [])


class TestLoadCsv:
    def test_basic_with_labels(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        s = data.load_csv(str(p))
        assert s.length == 3 and s.channels == 2
        assert s.channel_names == ["a", "b"]
        assert s.labels.tolist() == [0, 1, 0]
        assert s.values.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_without_labels(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x\n1.5\n2.5\n")
        s = data.load_csv(str(p))
        assert s.labels is None and s.channels == 1

    def test_bad_cell_names_row(self, tmp_path):
        p = tmp_path / "s.csv"
        rows = ["a,b"] + [f"{i},{i}" for i in range(1, 5)] + ["oops,9", "6,6"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="row 5"):
            data.load_csv(str(p))

    def test_unreadable_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            data.load_csv(str(tmp_path / "missing.csv"))
        with pytest.raises(ConfigError, match="cannot read"):
            data.load_csv(str(tmp_path))  # a directory

    def test_binary_file_is_parse_error(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(ParseError):
            data.load_csv(str(p))

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="ragged"):
            data.load_csv(str(p))

    def test_bad_label_value(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,label\n1,2\n")
        with pytest.raises(ParseError, match="label"):
            data.load_csv(str(p))

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a\nnan\n")
        with pytest.raises(ParseError, match="non-finite"):
            data.load_csv(str(p))

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        s = series(
            rng.normal(size=(40, 3)) * 1e3,
            rng.integers(0, 2, size=40).astype(np.int8),
            ["alpha", "beta", "gamma"],
        )
        p = tmp_path / "rt.csv"
        data.write_csv(s, str(p))
        back = data.load_csv(str(p))
        assert np.allclose(back.values, s.values, atol=1e-12, rtol=0)
        assert np.array_equal(back.labels, s.labels)
        assert back.channel_names == s.channel_names


class TestNormalizer:
    def test_two_point_channel(self):
        s = series([[0.0], [2.0]])
        norm = data.fit_normalizer(s)
        assert norm.mean[0] == 1.0 and norm.std[0] == 1.0
        out = data.apply_normalizer(norm, s)
        assert out.values[:, 0].tolist() == [-1.0, 1.0]

    def test_constant_channel_floored(self):
        s = series([[5.0], [5.0], [5.0]])
        norm = data.fit_normalizer(s)
        out = data.apply_normalizer(norm, s)
        assert np.all(out.values == 0.0)

    def test_self_normalization_moments(self):
        rng = np.random.default_rng(1)
        s = series(rng.normal(3.0, 2.5, size=(500, 4)))
        out = data.apply_normalizer(data.fit_normalizer(s), s)
        assert np.abs(out.values.mean(axis=0)).max() < 1e-9
        assert np.abs(out.values.std(axis=0) - 1.0).max() < 1e-9

    def test_too_short(self):
        with pytest.raises(ConfigError):
            data.fit_normalizer(series([[1.0]]))


class TestMakeWindows:
    def test_count(self):
        s = series(np.arange(10).reshape(5, 2))
        ws = data.make_windows(s, 2, 1)
        assert len(ws) == 4
        assert ws.origins.tolist() == [0, 1, 2, 3]

    def test_any_overlap_flags(self):
        s = series(np.zeros((5, 1)), labels=np.array([0, 0, 1, 0, 0]))
        ws = data.make_windows(s, 2, 1)
        assert ws.flags.tolist() == [0, 1, 1, 0]

    def test_window_contents(self):
        s = series(np.arange(12).reshape(6, 2))
        ws = data.make_windows(s, 3, 2)
        assert len(ws) == 2
        assert np.array_equal(ws.data[1], s.values[2:5])

    def test_window_too_long(self):
        s = series(np.zeros((4, 1)))
        with pytest.raises(ConfigError):
            data.make_windows(s, 5)

    def test_flags_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(5, 60))
            w = int(rng.integers(1, t + 1))
            stride = int(rng.integers(1, 5))
            labels = rng.integers(0, 2, size=t).astype(np.int8)
            s = series(rng.normal(size=(t, 2)), labels=labels)
            ws = data.make_windows(s, w, stride)
            for i, origin in enumerate(ws.origins):
                expected = int(labels[origin : origin + w].any())
                assert ws.flags[i] == expected

    @given(
        t=st.integers(min_value=1, max_value=200),
        w=st.integers(min_value=1, max_value=200),
        stride=st.integers(min_value=1, max_value=10),
    )
    def test_count_formula(self, t, w, stride):
        s = series(np.zeros((t, 1)))
        if w > t:
            with pytest.raises(ConfigError):
                data.make_windows(s, w, stride)
        else:
            ws = data.make_windows(s, w, stride)
            assert len(ws) == (t - w) // stride + 1


class TestGenerateSynthetic:
    def test_zero_rate_gives_clean_test(self):
        cfg = data.SyntheticConfig(channels=2, length=600, periods=(30,),
                                   anomaly_rate=0.0, seed=5)
        train, test = data.generate_synthetic(cfg)
        assert train.labels.sum() == 0
        assert test.labels.sum() == 0

    def test_deterministic(self):
        cfg = data.SyntheticConfig(channels=3, length=800, periods=(40, 80),
                                   anomaly_rate=0.05, seed=11)
        a_train, a_test = data.generate_synthetic(cfg)
        b_train, b_test = data.generate_synthetic(cfg)
        assert a_train.values.tobytes() == b_train.values.tobytes()
        assert a_test.values.tobytes() == b_test.values.tobytes()
        assert a_test.labels.tobytes() == b_test.labels.tobytes()

    def test_anomaly_fraction_near_rate(self):
        cfg = data.SyntheticConfig(channels=2, length=10000, periods=(50,),
                                   anomaly_rate=0.05, seed=2)
        _, test = data.generate_synthetic(cfg)
        frac = test.labels.mean()
        assert 0.03 <= frac <= 0.07

    def test_train_is_clean(self):
        cfg = data.SyntheticConfig(channels=2, length=2000, periods=(40,),
                                   anomaly_rate=0.1, seed=3)
        train, test = data.generate_synthetic(cfg)
        assert train.labels.sum() == 0
        assert test.labels.sum() > 0

    def test_spikes_are_at_least_five_sigma(self):
        cfg = data.SyntheticConfig(channels=1, length=4000, periods=(40,),
                                   noise_sigma=0.5, anomaly_types=("spike",),
                                   anomaly_rate=0.02, seed=9)
        clean_cfg = data.SyntheticConfig(channels=1, length=4000, periods=(40,),
                                         noise_sigma=0.5,
                                         anomaly_types=("spike",),
                                         anomaly_rate=0.0, seed=9)
        _, test = data.generate_synthetic(cfg)
        _, base = data.generate_synthetic(clean_cfg)
        # same seed: anomalous timesteps differ from the clean series by the
        # injected additive spike, at least 5x the noise sigma
        idx = np.flatnonzero(test.labels)
        assert idx.size > 0
        deltas = np.abs(test.values[idx] - base.values[idx])
        assert deltas.min() >= 5.0 * cfg.noise_sigma

    def test_length_must_cover_periods(self):
        with pytest.raises(ConfigError):
            data.SyntheticConfig(channels=1, length=100, periods=(50,))

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            data.SyntheticConfig(anomaly_types=("bogus",))


def normal_windows(n, w=4, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return data.WindowSet(
        w, rng.normal(size=(n, w, d)), np.zeros(n, dtype=np.int8),
        np.arange(n, dtype=np.int64) * w,
    )


def anomaly_pool(m, w=4, d=2, seed=1):
    rng = np.random.default_rng(seed)
    return data.WindowSet(
        w, rng.normal(5.0, 1.0, size=(m, w, d)), np.ones(m, dtype=np.int8),
        np.arange(m, dtype=np.int64),
    )


def round_half_away(x):
    return int(math.floor(x + 0.5))


class TestInjectContamination:
    def test_zero_ratio_identity(self):
        ws = normal_windows(50)
        out, injected = data.inject_contamination(
            ws, data.ContaminationSpec(0.0, seed=1)
        )
        assert injected == set()
        assert out.data.tobytes() == ws.data.tobytes()
        assert out.flags.tobytes() == ws.flags.tobytes()

    def test_exact_count_at_ten_percent(self):
        ws = normal_windows(1000)
        out, injected = data.inject_contamination(
            ws, data.ContaminationSpec(0.10, seed=3, pool=anomaly_pool(20))
        )
        assert len(injected) == 100
        assert len(out) == 1000

    def test_full_ratio_grid_counts(self):
        ratios = [0.0, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20]
        ws = normal_windows(1000)
        pool = anomaly_pool(300)
        for r in ratios:
            _, injected = data.inject_contamination(
                ws, data.ContaminationSpec(r, seed=5, pool=pool)
            )
            assert len(injected) == round_half_away(r * 1000)

    def test_untouched_windows_bitwise_identical(self):
        ws = normal_windows(200)
        out, injected = data.inject_contamination(
            ws, data.ContaminationSpec(0.13, seed=7, pool=anomaly_pool(10))
        )
        untouched = sorted(set(range(200)) - injected)
        assert out.data[untouched].tobytes() == ws.data[untouched].tobytes()
        assert np.all(out.flags[list(injected)] == 1)
        assert np.all(out.flags[untouched] == 0)
        assert np.array_equal(out.origins, ws.origins)

    def test_small_pool_draws_with_replacement(self):
        ws = normal_windows(100)
        out, injected = data.inject_contamination(
            ws, data.ContaminationSpec(0.2, seed=2, pool=anomaly_pool(3))
        )
        assert len(injected) == 20

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            data.ContaminationSpec(0.1, seed=1, pool=None)

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            data.ContaminationSpec(0.25, seed=1, pool=anomaly_pool(3))

    def test_flagged_training_windows_rejected(self):
        ws = anomaly_pool(10)  # all flagged anomalous
        with pytest.raises(ConfigError):
            data.inject_contamination(
                ws, data.ContaminationSpec(0.1, seed=1, pool=anomaly_pool(3))
            )

    def test_deterministic(self):
        ws = normal_windows(300)
        pool = anomaly_pool(40)
        a = data.inject_contamination(ws, data.ContaminationSpec(0.16, 9, pool))
        b = data.inject_contamination(ws, data.ContaminationSpec(0.16, 9, pool))
        assert a[1] == b[1]
        assert a[0].data.tobytes() == b[0].data.tobytes()


class TestSplitTrainVal:
    def test_ten_windows(self):
        train, val = data.split_train_val(normal_windows(10), seed=1)
        assert len(train) == 8 and len(val) == 2

    def test_five_windows(self):
        train, val = data.split_train_val(normal_windows(5), seed=1)
        assert len(train) == 4 and len(val) == 1

    def test_too_few(self):
        with pytest.raises(ConfigError):
            data.split_train_val(normal_windows(4), seed=1)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_disjoint_union(self, n, seed):
        ws = normal_windows(n)
        train, val = data.split_train_val(ws, seed=seed)
        assert len(val) == round(n / 5)
        t_or = set(train.origins.tolist())
        v_or = set(val.origins.tolist())
        assert not (t_or & v_or)
        assert t_or | v_or == set(ws.origins.tolist())

"""Dataset ingestion, windowing, synthetic generation and contamination."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstrace import data
from losstrace.errors import ConfigError, ParseError, ToolkitError


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

    @pytest.mark.parametrize("body", ["1,2\n3,4\n", '"1",2\n3,4\n'],
                             ids=["table_parse", "row_parser"])
    def test_utf8_bom_is_skipped(self, body, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"\xef\xbb\xbf" + f"c0,c1\n{body}".encode())
        s = data.load_csv(str(p))
        assert s.channel_names == ["c0", "c1"]
        assert s.values.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("text, expected", [
        # a row's cells are checked in order, the label last
        ("a,label\nx,2\n", "row 1, column 'a': cannot parse 'x' as a number"),
        ("a,label\nnan,x\n", "row 1, column 'a': non-finite value"),
        ("a,label\n1,nan\n", "row 1, column 'label': expected 0 or 1, got 'nan'"),
        ("a,label\n1,2\n", "row 1, column 'label': expected 0 or 1, got '2'"),
        ("a,label\n1,0.5\n", "row 1, column 'label': expected 0 or 1, got '0.5'"),
        ("a,label\n1,0\n2,x\n",
         "row 2, column 'label': cannot parse 'x' as a number"),
        # a column named label before the last is a channel
        ("label,b\nnan,0\n", "row 1, column 'label': non-finite value"),
    ])
    def test_error_texts(self, text, expected, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as info:
            data.load_csv(str(p))
        assert str(info.value) == f"{p}: {expected}"

    @pytest.mark.parametrize("body", ["2,0\n", '"2",0\n'],
                             ids=["table_parse", "row_parser"])
    def test_data_column_named_label_is_a_channel(self, body, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("label,b\n" + body)
        s = data.load_csv(str(p))
        assert s.channel_names == ["label", "b"] and s.labels is None
        assert s.values.tolist() == [[2.0, 0.0]]

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


def reference_load(path):
    """load_csv through the row parser alone."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return data._parse_csv(fh, str(path))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV file: {exc}") from None


def reference_write(s, path):
    """write_csv as one csv.writer row per timestep, repr(float(x)) cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        has_labels = s.labels is not None
        writer.writerow(list(s.channel_names) + (["label"] if has_labels else []))
        for t in range(s.length):
            row = [repr(float(x)) for x in s.values[t]]
            if has_labels:
                row.append(str(int(s.labels[t])))
            writer.writerow(row)


def outcome(load, path):
    """The loaded series (names, values' shape, layout and int64 bits,
    labels' dtype and values) or the ParseError message."""
    try:
        s = load(path)
    except ParseError as exc:
        return str(exc)
    labels = None if s.labels is None else (s.labels.dtype.str, s.labels.tolist())
    return (s.channel_names, s.values.shape, s.values.flags["C_CONTIGUOUS"],
            s.values.view(np.int64).tolist(), labels)


finite = st.floats(allow_nan=False, allow_infinity=False)
GOOD_CELLS = st.one_of(finite.map(repr), st.integers(-10**6, 10**6).map(str),
                       st.sampled_from(["-0", "1.", ".5", "+2", "1e-3", " 1.5 ",
                                        "\t7"]))
ODD_CELLS = st.sampled_from([
    "", " ", "nan", "inf", "-Infinity", "1e400", "-1e400", "1_5", '"1.5"',
    '"2"', "#3", "\ufeff1", "0x10", "1 2", "a", "1\x0c", "\xa01", "1j",
])
LABELS = st.sampled_from(["0", "1", "1.0", "0.0", "-0", "1e0", "2", "0.5", "",
                          "nan", '"1"'])
ODD_LINES = st.sampled_from(["", " ", "\t", "#", "# comment", ",", "1,2,3,4"])


@st.composite
def csv_texts(draw):
    """A well-formed CSV text with up to three defects: an odd cell or
    label, an inserted blank, whitespace-only or '#' line, a ragged row, a
    CRLF or lone-CR line end, a missing final newline or a BOM."""
    width = draw(st.integers(1, 3))
    has_labels = draw(st.booleans())
    header = [f"c{i}" for i in range(width)] + (["label"] if has_labels else [])
    rows = [[draw(GOOD_CELLS) for _ in range(width)]
            + ([draw(st.sampled_from(["0", "1", "1.0"]))] if has_labels else [])
            for _ in range(draw(st.integers(0, 6)))]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    ends = ["\n"] * len(lines)
    bom, final_newline = "", True
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(["cell", "label", "line", "ragged", "end",
                                       "final", "bom"]))
        t = draw(st.integers(1, max(1, len(lines) - 1)))
        if defect in ("cell", "label", "ragged") and t < len(lines):
            row = lines[t].split(",")
            if defect == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
            elif defect == "label" and has_labels:
                row[-1] = draw(LABELS)
            elif defect == "ragged":
                row = row[:-1] if draw(st.booleans()) else row + ["0"]
            lines[t] = ",".join(row)
        elif defect == "line":
            lines.insert(t, draw(ODD_LINES))
            ends.insert(t, "\n")
        elif defect == "end":
            ends[t - 1] = draw(st.sampled_from(["\r\n", "\r"]))
        elif defect == "final":
            final_newline = False
        elif defect == "bom":
            bom = "\ufeff"
    text = bom + "".join(line + end for line, end in zip(lines, ends))
    return text if final_newline else text.rstrip("\r\n")


# ways to quote a cell {}: plain, with a space outside the quotes, text
# after the closing quote, one quote only, a quoted line break or delimiter,
# escaped quotes, and an empty quoted cell
QUOTINGS = st.sampled_from(['"{}"', '"{}" ', ' "{}"', '"{}"5', '{}"', '"{}',
                            '"{}\n0"', '"{},0"', '"""{}"""', '"{}""0"', '""'])


@st.composite
def quoted_csv_texts(draw):
    """A csv_texts text with any of its data cells quoted in one of the
    QUOTINGS."""
    lines = draw(csv_texts()).split("\n")
    for t in range(1, len(lines)):
        lines[t] = ",".join(draw(QUOTINGS).format(cell) if draw(st.booleans())
                            else cell for cell in lines[t].split(","))
    return "\n".join(lines)


class TestLoadCsvTableParse:
    """load_csv parses a well-formed body with one np.loadtxt call and falls
    back to the row parser for anything else: results and error messages
    are those of the row parser alone."""

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    def test_matches_row_parser(self, text, tmp_path_factory):
        p = tmp_path_factory.getbasetemp() / "table-parse.csv"
        p.write_bytes(text.encode("utf-8"))
        assert outcome(data.load_csv, p) == outcome(reference_load, p)

    @settings(max_examples=400, deadline=None)
    @given(text=quoted_csv_texts())
    def test_quoted_cells_match_row_parser(self, text, tmp_path_factory):
        p = tmp_path_factory.getbasetemp() / "quoted-table-parse.csv"
        p.write_bytes(text.encode("utf-8"))
        assert outcome(data.load_csv, p) == outcome(reference_load, p)

    @pytest.mark.parametrize("body, table", [
        ('"1.5",2\n"3"," 4 "\n', True),
        ('"1.5",2\n"3\n4",5\n', False),  # one row over two lines
    ], ids=["quoted_cells", "quoted_line_break"])
    def test_quoted_cells_take_the_table_parse(self, body, table, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n" + body)
        with open(p, newline="", encoding="utf-8") as fh:
            assert (data._parse_table(fh) is not None) == table
        assert outcome(data.load_csv, p) == outcome(reference_load, p)

    @pytest.mark.parametrize("body, expected", [
        ("1,2\n\n3,4\n", "ragged row 2: expected 2 cells, got 0"),
        ("1,2\n \n", "ragged row 2: expected 2 cells, got 1"),
        ("nan,1\n", "row 1, column 'a': non-finite value"),
        ("1,inf\n", "row 1, column 'b': non-finite value"),
        ("1e400,1\n", "row 1, column 'a': non-finite value"),
        ("1,2\n#c,3\n", "row 2, column 'a': cannot parse '#c' as a number"),
        ("1\n2\n", "ragged row 1: expected 2 cells, got 1"),
    ])
    def test_rows_loadtxt_accepts_or_skips_are_rejected(self, body, expected,
                                                        tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n" + body)
        with pytest.raises(ParseError) as info:
            data.load_csv(str(p))
        assert str(info.value) == f"{p}: {expected}"

    def test_cells_only_the_row_parser_reads(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text('a,b,label\n"1.5",1_5,1.0\r2,3,0\r\n')
        s = data.load_csv(str(p))
        assert s.values.tolist() == [[1.5, 15.0], [2.0, 3.0]]
        assert s.labels.tolist() == [1, 0]

    def test_written_files_take_the_table_parse(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "s.csv"
        data.write_csv(series(rng.normal(size=(30, 2)),
                              rng.integers(0, 2, size=30)), str(p))
        with open(p, newline="", encoding="utf-8") as fh:
            assert data._parse_table(fh) is not None


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(finite, finite, st.integers(0, 1)),
                         max_size=12),
           labeled=st.booleans())
    def test_bytes_equal_csv_writer_reference(self, rows, labeled,
                                              tmp_path_factory):
        table = np.array(rows, dtype=np.float64).reshape(-1, 3)
        labels = table[:, 2].astype(np.int8) if labeled else None
        s = data.MultivariateSeries(table[:, :2], labels, ["x", "y,z"])
        written = tmp_path_factory.getbasetemp() / "written.csv"
        reference = tmp_path_factory.getbasetemp() / "reference.csv"
        data.write_csv(s, str(written))
        reference_write(s, reference)
        assert written.read_bytes() == reference.read_bytes()


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

    @pytest.mark.filterwarnings("error")
    def test_statistics_that_overflow_fail_without_a_warning(self):
        s = series([[1e200], [-1e200], [1e200]])
        with pytest.raises(ConfigError, match="^normalizer values must be finite"):
            data.fit_normalizer(s)

    @pytest.mark.filterwarnings("error")
    def test_values_that_overflow_fail_without_a_warning(self):
        norm = data.Normalizer(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ConfigError, match="^series contains non-finite values$"):
            data.apply_normalizer(norm, series([[1e308], [-1e308]]))


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

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_read_only_view_of_normalized_series(self, stride):
        raw = series(np.random.default_rng(stride).normal(size=(13, 2)))
        normed = data.apply_normalizer(data.fit_normalizer(raw), raw)
        ws = data.make_windows(normed, 4, stride)
        assert np.shares_memory(ws.data, normed.values)
        assert not ws.data.flags.writeable
        with pytest.raises(ValueError):
            ws.data[0, 0, 0] = 1.0
        for window, origin in zip(ws.data, ws.origins):
            assert np.array_equal(window, normed.values[origin : origin + 4])

    def test_subset_copies(self):
        s = series(np.arange(24.0).reshape(12, 2))
        ws = data.make_windows(s, 4, 2)
        sub = ws.subset([3, 0, 2])
        assert sub.origins.tolist() == [0, 4, 6]
        assert not np.shares_memory(sub.data, s.values)
        assert sub.data.flags.c_contiguous
        assert np.array_equal(sub.data, ws.data[[0, 2, 3]])

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


class TestTrainingWindows:
    def test_equals_normalize_then_window(self):
        rng = np.random.default_rng(4)
        labels = (rng.random(90) < 0.1).astype(np.int8)
        s = series(rng.normal(2.0, 3.0, size=(90, 3)), labels=labels)
        norm, ws = data.training_windows(s, 7, 3, "train.csv")
        expected_norm = data.fit_normalizer(s)
        expected = data.make_windows(data.apply_normalizer(expected_norm, s), 7, 3)
        assert norm.mean.tobytes() == expected_norm.mean.tobytes()
        assert norm.std.tobytes() == expected_norm.std.tobytes()
        assert ws.data.tobytes() == expected.data.tobytes()
        assert ws.flags.tolist() == expected.flags.tolist()
        assert ws.origins.tolist() == expected.origins.tolist()

    def test_too_few_windows_message(self):
        s = series(np.arange(40.0).reshape(20, 2))
        with pytest.raises(ConfigError) as info:
            data.training_windows(s, 6, 4, "train.csv")
        assert str(info.value) == (
            "train.csv: 20 timesteps give 4 window(s) of length 6 at stride 4; "
            "training needs at least 5 windows, that is at least 22 timesteps")
        assert len(data.training_windows(s, 4, 4, "train.csv")[1]) == 5


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

    @pytest.mark.filterwarnings("error")
    def test_noise_that_overflows_fails_without_a_warning(self):
        cfg = data.SyntheticConfig(channels=2, length=600, periods=(30,),
                                   noise_sigma=1e308, seed=0)
        with pytest.raises(ConfigError, match="^series contains non-finite values$"):
            data.generate_synthetic(cfg)

    def test_length_must_cover_periods(self):
        with pytest.raises(ConfigError):
            data.SyntheticConfig(channels=1, length=100, periods=(50,))

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            data.SyntheticConfig(anomaly_types=("bogus",))

    @settings(max_examples=300, deadline=None)
    @given(
        periods=st.lists(st.integers(2, 8), min_size=1, max_size=3),
        extra=st.integers(0, 60),
        types=st.lists(st.sampled_from(data.ANOMALY_TYPES), min_size=1,
                       max_size=3, unique=True),
        rate=st.floats(0.0, 0.3),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_short_configs_generate_or_raise_toolkit_error(
            self, periods, extra, types, rate, channels, seed):
        cfg = data.SyntheticConfig(channels=channels,
                                   length=10 * max(periods) + extra,
                                   periods=tuple(periods),
                                   anomaly_types=tuple(types),
                                   anomaly_rate=rate, seed=seed)
        try:
            train, test = data.generate_synthetic(cfg)
        except ToolkitError:
            return
        assert train.values.shape == test.values.shape == (cfg.length, channels)
        assert test.labels.sum() >= round_half_away(rate * cfg.length)


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
        train, val = data.split_train_val(np.arange(10), seed=1)
        assert len(train) == 8 and len(val) == 2

    def test_five_windows(self):
        train, val = data.split_train_val(np.arange(5), seed=1)
        assert len(train) == 4 and len(val) == 1

    def test_too_few(self):
        with pytest.raises(ConfigError):
            data.split_train_val(np.arange(4), seed=1)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_disjoint_union(self, n, seed):
        rows = np.arange(n, dtype=np.int64) * 4  # rows, not positions
        train, val = data.split_train_val(rows, seed=seed)
        assert len(val) == round(n / 5)
        assert not (set(train.tolist()) & set(val.tolist()))
        assert set(train.tolist()) | set(val.tolist()) == set(rows.tolist())
        assert (np.diff(train) > 0).all() and (np.diff(val) > 0).all()
        again = data.split_train_val(rows.tolist(), seed=seed)
        assert train.tobytes() == again[0].tobytes()
        assert val.tobytes() == again[1].tobytes()

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contrnp.data import (DataError, TimeSeries, _number, load_csv,
                          make_batch, sample_views, segmentize,
                          segments_to_series, synth_generate, write_csv,
                          write_table)

from conftest import reference_load_csv, reference_write_csv


def make_series(t=20, c=1):
    x = np.arange(t, dtype=float)
    y = np.sin(x[:, None] * np.ones(c))
    return TimeSeries(x, y)


class TestSegmentize:
    def test_single_full_window(self):
        series = make_series(2500)
        assert len(segmentize(series, 2500, 2500)) == 1

    def test_two_disjoint_windows(self):
        assert len(segmentize(make_series(10), 5, 5)) == 2

    def test_trailing_partial_dropped(self):
        assert len(segmentize(make_series(9), 5, 5)) == 1

    def test_window_too_large(self):
        with pytest.raises(DataError, match="exceeds"):
            segmentize(make_series(4), 5, 5)

    def test_x_rescaled_to_unit_interval(self):
        seg = segmentize(make_series(10), 5, 5)[0]
        assert seg.x[0] == 0.0 and seg.x[-1] == 1.0
        assert np.all(np.diff(seg.x) > 0)

    def test_y_untouched(self):
        series = make_series(10)
        seg = segmentize(series, 5, 5)[1]
        np.testing.assert_array_equal(seg.y, series.y[5:10])

    def test_majority_label(self):
        series = TimeSeries(np.arange(5.0), np.ones((5, 1)),
                            labels=np.array([0, 1, 1, 1, 0]))
        assert segmentize(series, 5, 5)[0].label == 1


class TestSampleViews:
    def seg(self, n=200):
        x = np.linspace(0, 1, n)
        return segmentize(TimeSeries(np.arange(n, dtype=float),
                                     np.sin(6 * x)[:, None]), n, n)[0]

    def test_context_within_thresholds(self, rng):
        views = sample_views(self.seg(), 3, 0.25, 0.75, (40, 40), rng)
        for v in views:
            assert v.context_x.min() > 0.25
            assert v.context_x.max() < 0.75
            assert len(v.context_x) == 40

    def test_degenerate_full_range(self, rng):
        v = sample_views(self.seg(), 2, 0.0, 1.0, (20, 100), rng)[0]
        assert v.context_x.min() >= 0.0 and v.context_x.max() <= 1.0

    def test_target_is_full_window(self, rng):
        seg = self.seg()
        for v in sample_views(seg, 2, 0.25, 0.75, (20, 40), rng):
            np.testing.assert_array_equal(v.target_x, seg.x)
            np.testing.assert_array_equal(v.target_y, seg.y)

    def test_views_use_independent_draws(self, rng):
        v1, v2 = sample_views(self.seg(), 2, 0.25, 0.75, (40, 40), rng)
        assert not np.array_equal(v1.context_x, v2.context_x)

    def test_insufficient_context_points(self, rng):
        with pytest.raises(DataError, match="context"):
            sample_views(self.seg(30), 2, 0.45, 0.55, (20, 100), rng)

    def test_reproducible_given_seed(self):
        a = sample_views(self.seg(), 2, 0.25, 0.75, (20, 40),
                         np.random.default_rng(5))
        b = sample_views(self.seg(), 2, 0.25, 0.75, (20, 40),
                         np.random.default_rng(5))
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va.context_x, vb.context_x)


class TestMakeBatch:
    def test_view_count(self, rng):
        segs = synth_generate(4, 2, 100, 0.0, rng)
        batch = make_batch(segs, 2, 0.25, 0.75, (10, 20), rng)
        assert len(batch.views) == 8 and len(batch.views[0]) == 2
        assert sum(len(v) for v in batch.views) == 16

    def test_fixed_seed_identical_batches(self, rng):
        segs = synth_generate(2, 2, 100, 0.0, rng)
        b1 = make_batch(segs, 2, 0.25, 0.75, (10, 20),
                        np.random.default_rng(3))
        b2 = make_batch(segs, 2, 0.25, 0.75, (10, 20),
                        np.random.default_rng(3))
        for va, vb in zip(b1.views[0], b2.views[0]):
            np.testing.assert_array_equal(va.context_x, vb.context_x)


class TestSynthGenerate:
    def test_noiseless_sine_is_exact(self):
        rng = np.random.default_rng(0)
        seg = synth_generate(2, 1, 100, 0.0, rng)[0]
        # class 0 is amp * sin(2 pi 3 x + phase); least squares over the
        # basis sin, cos recovers amp cos(phase) and amp sin(phase)
        t = 2 * np.pi * 3 * seg.x
        basis = np.stack([np.sin(t), np.cos(t)], axis=1)
        coef = np.linalg.lstsq(basis, seg.y[:, 0], rcond=None)[0]
        assert 0.8 <= np.hypot(*coef) <= 1.2
        assert np.abs(basis @ coef - seg.y[:, 0]).max() <= 1e-9

    def test_segment_count(self, rng):
        assert len(synth_generate(4, 50, 64, 0.1, rng)) == 200

    def test_deterministic(self):
        a = synth_generate(3, 4, 64, 0.1, np.random.default_rng(9))
        b = synth_generate(3, 4, 64, 0.1, np.random.default_rng(9))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.y, sb.y)


class TestCsv:
    def test_roundtrip(self, tmp_path, rng):
        segs = synth_generate(2, 3, 50, 0.1, rng)
        series = segments_to_series(segs)
        path = tmp_path / "data.csv"
        write_csv(series, path)
        loaded = load_csv(path)
        z = (series.y - series.y.mean(axis=0)) / series.y.std(axis=0)
        np.testing.assert_array_equal(loaded.x, series.x)
        np.testing.assert_allclose(loaded.y, z, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(loaded.labels, series.labels)

    def test_write_table_bytes(self, tmp_path):
        # csv's default dialect: `\r\n` line ends, fields as given
        path = tmp_path / "t.csv"
        write_table(path, ["name", "value", "n"],
                    iter([["a", repr(0.1), 3], ["b", repr(1 / 3), -2]]))
        assert path.read_bytes() == (b"name,value,n\r\na,0.1,3\r\n"
                                     b"b,0.3333333333333333,-2\r\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, rng):
        # spreadsheet exports start the file with a UTF-8 byte-order mark
        plain = tmp_path / "plain.csv"
        write_csv(segments_to_series(synth_generate(2, 3, 50, 0.1, rng)),
                  plain)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain), load_csv(marked)
        for field in ("x", "y", "labels"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field))

    def test_three_line_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,ch0\n0,1.5\n1,2.5\n2,3.5\n")
        ts = load_csv(p)
        assert len(ts.x) == 3

    def test_constant_channel_normalizes_to_zero(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,ch0\n0,7.0\n1,7.0\n2,7.0\n")
        ts = load_csv(p)
        np.testing.assert_array_equal(ts.y, np.zeros((3, 1)))

    def test_non_monotone_time_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,ch0\n0,1\n2,2\n1,3\n")
        with pytest.raises(DataError, match="increasing"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["time", "ch0", "ch1"])
    def test_non_finite_cell_cites_line(self, tmp_path, cell, column):
        rows = [{"time": str(t), "ch0": str(t + 1), "ch1": str(t + 2)}
                for t in range(3)]
        rows[1][column] = cell
        p = tmp_path / "t.csv"
        # blank lines between the rows count: the bad cell is on line 4
        p.write_text("time,ch0,ch1,label\n" + "\n".join(
            f"{r['time']},{r['ch0']},{r['ch1']},0\n" for r in rows))
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}:4: non-finite value"

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_label_cites_line(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"time,ch0,label\n0,1,0\n1,2,{cell}\n")
        with pytest.raises(DataError, match=f"^{p}:3: "):
            load_csv(p)

    def test_non_monotone_time_cites_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,ch0\n0,1\n\n2,2\n1,3\n")
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}:5: time not strictly increasing"

    @pytest.mark.parametrize("content", [
        b"time,ch0\n0,1\n1,\xff\n", b"\x7fELF\x02\x01\x01" + bytes(range(193)),
        b"time,ch0\n0," + b"1" * 200_000 + b"\n"],
        ids=["bad_byte", "binary", "field_over_csv_limit"])
    def test_unreadable_text_names_path(self, tmp_path, content):
        p = tmp_path / "t.csv"
        p.write_bytes(content)
        with pytest.raises(DataError, match=f"^{p}: "):
            load_csv(p)

    def test_parse_error_cites_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,ch0\n0,1\nx,2\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(p)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_writer_bytes_match_row_writer(self, tmp_path, rng, channels,
                                           labeled):
        n = 50
        series = TimeSeries(np.cumsum(rng.uniform(0.1, 2.0, n)),
                            rng.standard_normal((n, channels)) * 1e3,
                            rng.integers(-3, 4, n) if labeled else None)
        write_csv(series, tmp_path / "columns.csv")
        reference_write_csv(series, tmp_path / "rows.csv")
        assert ((tmp_path / "columns.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())

    @pytest.mark.parametrize("channels", [1, 2])
    def test_bitwise_equal_to_row_loop(self, tmp_path, rng, channels):
        # the size of the eval benchmark's corpus: 20,000 rows
        segs = synth_generate(4, 25, 200, 0.1, rng)
        series = segments_to_series(segs)
        series.y = np.repeat(series.y, channels, axis=1) * np.arange(
            1, channels + 1)
        path = tmp_path / "data.csv"
        write_csv(series, path)
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)

    @pytest.mark.parametrize("label", [
        "1e20", "-1e20", "9.3e18", "9223372036854775808",
        "-9223372036854775808", "1e999"])
    def test_out_of_range_label_cites_line(self, tmp_path, label):
        # 1e20 once ended in an OverflowError traceback from np.asarray
        p = tmp_path / "t.csv"
        p.write_text(f"time,ch0,label\n0,1,0\n\n1,2,{label}\n2,3,1\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:4: "
                                            f"label {label} is not a finite"):
            load_csv(p)

    def test_largest_label_below_two_to_the_63_is_read(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,ch0,label\n0,1,-0.5\n1,2,9.2e18\n")
        assert (load_csv(p).labels.tolist()
                == reference_load_csv(p).labels.tolist() == [0, int(9.2e18)])

    @pytest.mark.parametrize("cell", ["1_000", "1_0.5", "\u0661\u0662",
                                      "\uff11"])
    def test_python_only_spellings_are_refused(self, tmp_path, cell):
        # Python's float reads these; np.loadtxt, and so load_csv, do not
        p = tmp_path / "t.csv"
        p.write_text(f"time,ch0\n0,1\n1,{cell}\n")
        assert reference_load_csv(p).x.tolist() == [0.0, 1.0]
        with pytest.raises(DataError) as e:
            load_csv(p)
        assert str(e.value) == (f"{p}:3: could not convert string to "
                                f"float: {cell!r}")

    @pytest.mark.parametrize("cell", ["0." + "0" * 200_000 + "1",
                                      " " * 200_000 + "1"])
    def test_finite_field_over_csv_limit_names_path(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"time,ch0\n0,1\n1,{cell}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: field "
                                            "larger than field limit"):
            load_csv(p)

    def test_long_line_of_fields_within_csv_limit_is_read(self, tmp_path):
        pad = "0" * 100_000
        p = tmp_path / "t.csv"
        p.write_text(f"time,ch0,ch1\n0,{pad}1,{pad}2\n1,3,{pad}4\n")
        ts = load_csv(p)
        assert ts.x.tolist() == [0.0, 1.0]
        assert outcome(load_csv, p) == outcome(reference_load_csv, p)


def outcome(load, path):
    """What `load(path)` gives: the TimeSeries' bytes, or the line its
    DataError names (None when it names the path alone)."""
    try:
        ts = load(path)
    except DataError as e:
        m = re.match(rf"{re.escape(str(path))}(?::(\d+))?: ", str(e))
        assert m, f"DataError does not start with the path: {e}"
        return "error", m.group(1)
    labels = None if ts.labels is None else (ts.labels.dtype.str,
                                             ts.labels.tobytes())
    return ("ok", ts.x.dtype.str, ts.x.tobytes(), ts.y.shape,
            ts.y.dtype.str, ts.y.tobytes(), labels)


FIELD_CHARS = list("0123456789.eE+-_ xinfatyINFATY") + [
    "\t", "\x0b", "\x0c", "\x00", "\x1c", "\x1f", "\x85", "\xa0",
    "\u2000", "\u3000", "\u0661", "\uff11", "\u00e9"]


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(FIELD_CHARS), min_size=1, max_size=10))
@example("1_000")
@example("\x1c-Infinity\xa0")
@example(" 1e-400 ")
@example("1\x00")
def test_row_loop_reads_fields_as_loadtxt_does(field):
    """The row loop names the line of every field np.loadtxt refuses, so
    the two must take the same numbers, bit for bit."""
    try:
        want = np.loadtxt([field], delimiter=",", comments=None,
                          quotechar='"', ndmin=2)[0, 0]
    except ValueError:
        want = None
    try:
        got = _number(field)
    except ValueError:
        got = None
    if want is None or got is None:
        assert want is got
    else:
        assert np.float64(got).tobytes() == want.tobytes()


# The differential fuzz: mutations of a small labeled CSV, each read by
# load_csv and by the row-loop oracle. Each mutation is (kind, at, pick):
# `at` picks the row and `pick` the column and the new value. Both readers
# take SHARED_CELLS alike. Where the grammars differ on purpose, the oracle
# is given the spelling that it reads as load_csv reads the original:
# GRAMMAR_CELLS pairs (cell for load_csv, cell for the oracle), and a label
# of magnitude 2**63 or more, which the oracle ends in an OverflowError or
# reads, is given to it as `nan`, which it refuses on that line.
SHARED_CELLS = ["nan", "inf", "-inf", "", "x", "1e999", "0x10", '"1.5"',
                " 2.5 ", "+3", "-0", ".5", "5.", "Infinity", "1e-400",
                '"7"8', '"1,5"', "1 5", "\xa01", "1\u2000", "\u3000", '"',
                '"2\n"', "1" * 200_000]
GRAMMAR_CELLS = [("1_000", "x"), ("\u0661\u0662", "x"), ("1_0.5", "x"),
                 ("\x1c1\x1f", " 1 "), ("\x1d", " ")]
LABELS = ["0", "2.9", "-0.5", "1e3", "9.2e18", "nan", "inf"]
BIG_LABELS = ["1e20", "-9.3e18", "9223372036854775808",
              "-9223372036854775808"]
HEADERS = ["", "t,ch0", "time", "time,label", "time,ch0", "time,ch0,ch1",
           "time,ch0,label", " time , ch0 , ch1 , label ",
           '"time",ch0,ch1,label']
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80"]
KINDS = ["cell", "grammar", "label", "blank", "spaces", "short_row",
         "long_row", "non_monotone", "header", "truncate", "ending", "bom",
         "non_utf8"]


def mutated_files(tmp, mutations):
    """The fuzz CSV with `mutations` applied: the file for load_csv, the
    file for the oracle, and whether load_csv's is valid UTF-8."""
    rng = np.random.default_rng(0)
    n = 12
    series = TimeSeries(np.cumsum(rng.uniform(0.5, 1.5, n)),
                        rng.standard_normal((n, 2)), rng.integers(0, 3, n))
    write_csv(series, tmp / "base.csv")
    base = [line.split(",") for line in
            (tmp / "base.csv").read_text().splitlines()]
    sides = [[list(r) for r in base], [list(r) for r in base]]
    ending, bom, bad = "\n", "", None
    for kind, at, pick in mutations:
        for side, rows in enumerate(sides):
            i = 1 + at % (len(rows) - 1) if len(rows) > 1 else 0
            row = rows[i]
            if kind == "cell" and row:
                row[pick % len(row)] = SHARED_CELLS[pick % len(SHARED_CELLS)]
            elif kind == "grammar" and row:
                row[pick % len(row)] = GRAMMAR_CELLS[
                    pick % len(GRAMMAR_CELLS)][side]
            elif kind == "label" and row:
                row[-1] = (LABELS + BIG_LABELS)[pick % 11]
            elif kind == "blank":
                rows[i:i] = [[] for _ in range(1 + pick % 3)]
            elif kind == "spaces":
                rows.insert(i, [" " * (1 + pick % 3)])
            elif kind == "short_row" and len(row) > 1:
                row.pop()
            elif kind == "long_row":
                row.append("1")
            elif kind == "non_monotone" and i > 1 and row and rows[i - 1]:
                row[0] = rows[i - 1][0]
            elif kind == "header":
                rows[0] = HEADERS[pick % len(HEADERS)].split(",")
            elif kind == "truncate":
                del rows[1 + at % 4:]
        ending = ["\r\n", "\r", "\n"][pick % 3] if kind == "ending" else ending
        bom = "\ufeff" if kind == "bom" else bom
        if kind == "non_utf8":
            bad = (at, BAD_BYTES[pick % len(BAD_BYTES)])
    new, old = sides
    if [h.strip() for h in old[0]][-1:] == ["label"]:
        for row in old[1:]:
            if row and row[-1] in BIG_LABELS:
                row[-1] = "nan"
    files = []
    for name, rows in (("new.csv", new), ("old.csv", old)):
        data = (bom + "".join(",".join(r) + ending for r in rows)).encode()
        if bad is not None and name == "new.csv":
            data = data[:bad[0] % (len(data) + 1)] + bad[1] + data[
                bad[0] % (len(data) + 1):]
        (tmp / name).write_bytes(data)
        files.append(tmp / name)
    return files[0], files[1], bad is None


mutation_lists = st.lists(st.tuples(st.sampled_from(KINDS),
                                    st.integers(0, 10_000),
                                    st.integers(0, 50)),
                          min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(mutations=mutation_lists)
@example(mutations=[("cell", 3, 23)])      # a 200,000-digit ch1
@example(mutations=[("label", 3, 7)])      # a 1e20 label
@example(mutations=[("label", 3, 10), ("cell", 5, 0)])  # -2**63, then nan
@example(mutations=[("grammar", 3, 0)])    # 1_000
@example(mutations=[("grammar", 3, 1), ("grammar", 3, 3)])
@example(mutations=[("cell", 3, 22), ("ending", 0, 0)])  # a quoted newline
@example(mutations=[("cell", 3, 21)])      # a lone quote
@example(mutations=[("truncate", 4, 0), ("blank", 0, 2)])
@example(mutations=[("header", 0, 6), ("bom", 0, 0)])
@example(mutations=[("non_utf8", 7, 0)])
def test_load_csv_agrees_with_row_loop(tmp_path_factory, mutations):
    tmp = tmp_path_factory.mktemp("fuzz")
    new, old, utf8 = mutated_files(tmp, mutations)
    got = outcome(load_csv, new)
    if not utf8:  # the whole file is decoded before any row is read
        with pytest.raises(DataError, match=f"^{re.escape(str(new))}: not "
                                            "UTF-8 text"):
            load_csv(new)
        return
    assert got == outcome(reference_load_csv, old), mutations


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 0.4), st.floats(0.6, 1.0))
def test_view_invariants_property(seed, a, b):
    rng = np.random.default_rng(seed)
    seg = synth_generate(2, 1, 300, 0.1, rng)[0]
    views = sample_views(seg, 3, a, b, (10, 30), rng)
    for v in views:
        assert np.all((v.context_x > a) & (v.context_x < b))
        assert 10 <= len(v.context_x) <= 30
        assert set(v.context_x).issubset(set(seg.x))
        np.testing.assert_array_equal(v.target_x, seg.x)

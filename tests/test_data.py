import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contrnp.data import (DataError, TimeSeries, load_csv, make_batch,
                          sample_views, segmentize, segments_to_series,
                          synth_generate, write_csv)


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

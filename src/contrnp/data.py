"""Time-series ingestion, segmentation and out-of-context view sampling.

A raw series is cut into fixed-length windows (segments). Each segment is
then sampled into M "views": the context points of a view are drawn only
from the central band a < x < b of the window, while the target set always
covers the full window. Distinct views of the same segment act as positive
pairs for the contrastive objective.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    pass


@dataclass
class TimeSeries:
    x: np.ndarray                 # [T] float64, strictly increasing
    y: np.ndarray                 # [T, C] float64
    labels: np.ndarray | None = None  # [T] int class ids

    @property
    def n_channels(self):
        return self.y.shape[1]


@dataclass
class Segment:
    segment_id: int
    x: np.ndarray                 # [W] rescaled to [0, 1]
    y: np.ndarray                 # [W, C]
    label: int | None = None


@dataclass
class ViewPair:
    context_x: np.ndarray
    context_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray


@dataclass
class SegmentBatch:
    views: list[list[ViewPair]]   # [K][M]


def segmentize(series: TimeSeries, window_size: int, stride: int) -> list[Segment]:
    """Cut the series into windows; trailing partial windows are dropped.

    Each window's timestamps are affinely rescaled to span [0, 1].
    """
    if window_size > len(series.x):
        raise DataError(
            f"window_size {window_size} exceeds series length {len(series.x)}")
    segments = []
    k = 0
    for start in range(0, len(series.x) - window_size + 1, stride):
        sl = slice(start, start + window_size)
        xw = series.x[sl]
        span = xw[-1] - xw[0]
        x01 = (xw - xw[0]) / span if span > 0 else np.zeros_like(xw)
        label = None
        if series.labels is not None:
            vals, counts = np.unique(series.labels[sl], return_counts=True)
            label = int(vals[np.argmax(counts)])
        segments.append(Segment(k, x01, series.y[sl].copy(), label))
        k += 1
    return segments


def sample_views(segment: Segment, m: int, a: float, b: float,
                 n_context_range: tuple[int, int],
                 rng: np.random.Generator) -> list[ViewPair]:
    """Draw M independent context samplings of one segment.

    Context indices come from {i : a < x_i < b}, without replacement; the
    target set is always the full window.
    """
    lo, hi = n_context_range
    eligible = np.flatnonzero((segment.x > a) & (segment.x < b))
    if len(eligible) < hi:
        raise DataError(
            f"segment {segment.segment_id} has only {len(eligible)} points in "
            f"({a}, {b}); need up to {hi} context points")
    views = []
    for _ in range(m):
        n_ctx = int(rng.integers(lo, hi + 1))
        idx = np.sort(rng.choice(eligible, size=n_ctx, replace=False))
        views.append(ViewPair(
            context_x=segment.x[idx].copy(),
            context_y=segment.y[idx].copy(),
            target_x=segment.x.copy(),
            target_y=segment.y.copy(),
        ))
    return views


def make_batch(segments: list[Segment], m: int, a: float, b: float,
               n_context_range: tuple[int, int],
               rng: np.random.Generator) -> SegmentBatch:
    """Assemble the K segments of one training batch, M views each."""
    views = [sample_views(s, m, a, b, n_context_range, rng) for s in segments]
    return SegmentBatch(views)


# -- synthetic waveform corpus -------------------------------------------------

def _sine(t):
    return np.sin(t)


def _sawtooth(t):
    return 2.0 * ((t / (2 * np.pi)) % 1.0) - 1.0


def _square(t):
    return np.sign(np.sin(t))


def _am_sine(t):
    return np.sin(t) * np.sin(t / 4.0)


_FAMILIES = [_sine, _sawtooth, _square, _am_sine]


def synth_generate(n_classes: int, segments_per_class: int, window_len: int,
                   noise_sd: float, rng: np.random.Generator) -> list[Segment]:
    """Labeled synthetic segments; class identity = waveform family + frequency.

    Class c uses waveform family c mod 4 with frequency 3 + c, a
    random phase, an amplitude in [0.8, 1.2] per segment, plus additive
    Gaussian noise.
    """
    x = np.linspace(0.0, 1.0, window_len)
    segments = []
    k = 0
    for c in range(n_classes):
        wave = _FAMILIES[c % len(_FAMILIES)]
        freq = 3.0 + c
        for _ in range(segments_per_class):
            phase = rng.uniform(0.0, 2 * np.pi)
            amp = rng.uniform(0.8, 1.2)
            y = amp * wave(2 * np.pi * freq * x + phase)
            if noise_sd > 0:
                y = y + rng.normal(0.0, noise_sd, size=window_len)
            segments.append(Segment(k, x.copy(), y[:, None], label=c))
            k += 1
    return segments


def segments_to_series(segments: list[Segment]) -> TimeSeries:
    """Concatenate segments into one series with a global integer time axis."""
    ys = np.concatenate([s.y for s in segments], axis=0)
    t = np.arange(len(ys), dtype=np.float64)
    labels = None
    if all(s.label is not None for s in segments):
        labels = np.concatenate(
            [np.full(len(s.x), s.label, dtype=np.int64) for s in segments])
    return TimeSeries(t, ys, labels)


# -- CSV I/O -------------------------------------------------------------------

def write_csv(series: TimeSeries, path):
    """Write `time,ch0,...,chN[,label]`, each float as its shortest repr."""
    header = ["time"] + [f"ch{c}" for c in range(series.n_channels)]
    columns = [map(repr, np.asarray(c, dtype=np.float64).tolist())
               for c in (series.x, *series.y.T)]
    if series.labels is not None:
        header.append("label")
        columns.append(series.labels.tolist())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*columns))


def load_csv(path) -> TimeSeries:
    """Parse `time,ch0,...,chN[,label]` and z-score each channel (eps-guarded).

    Every rule on the file's contents lives here: a malformed, non-UTF-8,
    non-finite or non-monotone file is a DataError that names the path.
    One `np.loadtxt` pass parses the body and array checks test it; only a
    file that fails goes through the row loop that names its line."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})")
    lines = io.StringIO(text)
    try:
        header = [h.strip() for h in next(csv.reader(lines))]
    except StopIteration:
        raise DataError(f"{path}: empty file")
    except csv.Error as e:
        raise DataError(f"{path}: {e}")
    if not header or header[0] != "time":
        raise DataError(f"{path}:1: first column must be 'time'")
    has_label = header[-1] == "label"
    n_ch = len(header) - 1 - has_label
    if n_ch < 1:
        raise DataError(f"{path}:1: no channel columns found")
    if not text[lines.tell():].strip("\n"):
        raise DataError(f"{path}: no data rows")
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                           ndmin=2)
    except ValueError as e:
        _raise_row_error(path, text, header, str(e))
    x, y = table[:, 0], table[:, 1:1 + n_ch]
    checks = [  # in the row loop's order; it words the first two itself
        (table.shape[1] == len(header), "wrong field count"),
        (not has_label or np.abs(table[:, -1]) < 2.0**63, "label too large"),
        (np.isfinite(x) & np.isfinite(y).all(axis=1), "non-finite value"),
        (np.append(True, x[1:] > x[:-1]), "time not strictly increasing"),
        (not _has_long_line(text, csv.field_size_limit()), None)]
    for ok, message in checks:
        if not np.all(ok):
            _raise_row_error(path, text, header, message, np.argmin(ok))
    y = (y - y.mean(axis=0)) / np.maximum(y.std(axis=0), 1e-8)
    labels = table[:, -1].astype(np.int64) if has_label else None
    return TimeSeries(x, y, labels)


def _has_long_line(text: str, limit: int) -> bool:
    """Whether a line is longer than `limit`, in about len / limit rfinds."""
    start = 0
    while len(text) - start > limit:
        end = text.rfind("\n", start, start + limit + 1)
        if end < 0:
            return True
        start = end + 1
    return False


def _number(field: str) -> float:
    """A field as `np.loadtxt` reads it: C's strtod on ASCII (`inf`,
    `infinity` and `nan` too, no `_`), padded with whitespace."""
    core = field.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(core)


def _raise_row_error(path, text, header, message=None, row=None):
    """The row loop that once parsed every file, kept to name a line.

    It raises the first record's error: a field count, a field `_number`
    refuses, a label not finite or of magnitude 2**63 or more, or a field
    over csv's size limit. Else it raises `message` at data row `row`
    (blank lines are not rows) or at the path; with no message it returns.
    """
    linenos = []
    try:
        reader = csv.reader(io.StringIO(text))
        next(reader)
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"{path}:{lineno}: expected "
                                f"{len(header)} fields, got {len(fields)}")
            try:
                label = [_number(v) for v in fields][-1]
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}")
            if header[-1] == "label" and not abs(label) < 2.0**63:
                raise DataError(f"{path}:{lineno}: label {fields[-1].strip()}"
                                " is not a finite number below 2**63 in "
                                "magnitude")
            linenos.append(lineno)
    except csv.Error as e:
        raise DataError(f"{path}: {e}")
    if message is not None:
        at = "" if row is None else f":{linenos[row]}"
        raise DataError(f"{path}{at}: {message}")

"""Event data model, stream containers, validation, and file I/O.

A stream is five read-only int64 columns in arrival order: t (integer
microseconds), x, y, p (-1/+1) and label (0 noise, 1 real activity, -1
unknown).  Whole-stream code reads the columns from `EventStream.arrays()`.
`Event` is one row, the element that the online paths take one at a time
(a filter's `step()`, the model's included, and the recency store); a
stream builds its tuple of Events the first time it is iterated or indexed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

LABEL_NOISE = 0
LABEL_REAL = 1

BIN_MAGIC = b"EVST0001"
# t, x, y, p, label (-1 = unknown), pad: the 16-byte little-endian record
_BIN_RECORD = np.dtype([("t", "<i8"), ("x", "<u2"), ("y", "<u2"),
                        ("p", "i1"), ("label", "i1"), ("pad", "V2")])

CSV_HEADER = "t_us,x,y,p,label"

class EventFormatError(ValueError):
    """Raised when an event file is malformed."""


@dataclass(frozen=True)
class Event:
    t: int
    x: int
    y: int
    p: int
    label: Optional[int] = None

    def __post_init__(self):
        if self.p not in (-1, 1):
            raise ValueError(f"polarity must be -1 or +1, got {self.p}")
        if self.label not in (None, LABEL_NOISE, LABEL_REAL):
            raise ValueError(f"label must be 0, 1 or None, got {self.label}")


@dataclass(frozen=True)
class SensorGeometry:
    width: int = 346
    height: int = 260

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("geometry dimensions must be >= 1")

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height


class EventStream:
    """Ordered event columns; file order is the authoritative arrival order.

    `EventStream(events, geometry)` packs a sequence of `Event`s;
    `stream_from_arrays` wraps columns that are already arrays.
    """

    def __init__(self, events: Sequence[Event] = (), geometry: SensorGeometry = None):
        rows = np.array([(e.t, e.x, e.y, e.p, -1 if e.label is None else e.label)
                         for e in events], dtype=object).reshape(-1, 5)
        self._cols = stream_from_arrays(*rows.T)._cols
        self.geometry = geometry or SensorGeometry()
        self._events = None

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The read-only columns (t, x, y, p, label), not a copy; label -1 =
        unknown."""
        return self._cols

    @property
    def events(self) -> Tuple[Event, ...]:
        """The stream as a tuple of Events, built on first use."""
        if self._events is None:
            t, x, y, p, label = (c.tolist() for c in self._cols)
            self._events = tuple(map(Event, t, x, y, p,
                                     [None if v < 0 else v for v in label]))
        return self._events

    def __len__(self) -> int:
        return len(self._cols[0])

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventStream)
            and self.geometry == other.geometry
            and all(np.array_equal(a, b) for a, b in zip(self._cols, other._cols))
        )


def stream_from_arrays(t, x, y, p, label=None,
                       geometry: SensorGeometry = None) -> EventStream:
    """A stream over the given columns, as read-only int64 views (no copy
    when a column is int64 already); label None means every label is
    unknown."""
    if label is None:
        label = np.full(len(t), -1)
    try:
        cols = tuple(np.asarray(c, dtype=np.int64).view() for c in (t, x, y, p, label))
    except OverflowError:
        raise ValueError("an event field does not fit int64") from None
    if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
        raise ValueError("event columns must be 1-D and of one length")
    bad = cols[3][(cols[3] != 1) & (cols[3] != -1)]
    if len(bad):
        raise ValueError(f"polarity must be -1 or +1, got {bad[0]}")
    bad = cols[4][(cols[4] < -1) | (cols[4] > 1)]
    if len(bad):
        raise ValueError(f"label must be -1, 0 or 1, got {bad[0]}")
    for c in cols:
        c.flags.writeable = False
    stream = EventStream.__new__(EventStream)
    stream._cols, stream._events = cols, None
    stream.geometry = geometry or SensorGeometry()
    return stream


@dataclass
class ValidationReport:
    out_of_bounds: int = 0
    regressions: int = 0

    @property
    def ok(self) -> bool:
        return self.out_of_bounds == 0 and self.regressions == 0


def validate_stream(stream: EventStream, geometry: SensorGeometry = None) -> ValidationReport:
    """Count invariant violations; violations are data, not errors.  (A
    stream cannot hold a bad polarity or label: its columns are checked.)"""
    geometry = geometry or stream.geometry
    t, x, y, _, _ = stream.arrays()
    inside = (x >= 0) & (x < geometry.width) & (y >= 0) & (y < geometry.height)
    return ValidationReport(out_of_bounds=int(np.count_nonzero(~inside)),
                            regressions=int(np.count_nonzero(t[1:] < t[:-1])))


def slice_by_time(stream: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1, original order."""
    if t0 > t1:
        raise ValueError(f"t0 ({t0}) must be <= t1 ({t1})")
    cols = stream.arrays()
    keep = (cols[0] >= t0) & (cols[0] < t1)
    return stream_from_arrays(*(c[keep] for c in cols), geometry=stream.geometry)


def write_events(stream: EventStream, path, format: str = "csv") -> None:
    t, x, y, p, label = stream._cols
    if format == "csv":
        labels = ["" if v < 0 else v for v in label.tolist()]
        with open(path, "w") as f:
            f.write(CSV_HEADER + "\n")
            f.writelines(f"{ti},{xi},{yi},{pi},{li}\n" for ti, xi, yi, pi, li in
                         zip(t.tolist(), x.tolist(), y.tolist(), p.tolist(), labels))
    elif format in ("bin", "binary"):
        # packed in memory first, so an event the record cannot hold leaves
        # no half-written file
        wide = np.flatnonzero((x < 0) | (x > 0xFFFF) | (y < 0) | (y > 0xFFFF))
        if len(wide):
            i = int(wide[0])
            raise EventFormatError(
                f"{path}: event {i} (t={t[i]}, x={x[i]}, y={y[i]}) does not fit "
                f"the binary record (x and y in 0..65535)")
        records = np.zeros(len(t), dtype=_BIN_RECORD)
        for name, col in zip(("t", "x", "y", "p", "label"), (t, x, y, p, label)):
            records[name] = col
        with open(path, "wb") as f:
            f.write(BIN_MAGIC)
            f.write(records.tobytes())
    else:
        raise ValueError(f"unknown format {format!r}")


def read_events(path, format: str = None,
                geometry: SensorGeometry = None) -> EventStream:
    """The stream in `path`, checked for time order.  With no format, the
    file's first bytes pick the reader: BIN_MAGIC is binary, else CSV."""
    if format is None:
        with open(path, "rb") as f:
            format = "bin" if f.read(len(BIN_MAGIC)) == BIN_MAGIC else "csv"
    if format == "csv":
        cols = _read_csv(path)
    elif format in ("bin", "binary"):
        cols = _read_bin(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    stream = stream_from_arrays(*cols, geometry=geometry)
    t = stream._cols[0]
    back = np.flatnonzero(t[1:] < t[:-1])
    if len(back):
        i = int(back[0]) + 1
        raise EventFormatError(
            f"{path}: timestamp regression at index {i} ({t[i]} after {t[i - 1]})")
    return stream


def _read_csv(path):
    cols = ([], [], [], [], [])
    add_t, add_x, add_y, add_p, add_label = (c.append for c in cols)
    lo, hi = -2 ** 63, 2 ** 63 - 1
    # undecodable bytes stay in the text as lone surrogates, which no field
    # parses, so they fail with their line number
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        header = f.readline()
        if header.strip() and not header.startswith("t_us"):
            raise EventFormatError(f"{path}: bad CSV header {header.strip()!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) not in (4, 5):
                raise EventFormatError(f"{path}:{lineno}: expected 4 or 5 fields")
            lab = parts[4] if len(parts) == 5 else ""
            try:
                ti, xi, yi, pi = map(int, parts[:4])
                li = int(lab) if lab else -1
            except ValueError as exc:
                raise EventFormatError(f"{path}:{lineno}: {exc}") from None
            if not (lo <= ti <= hi and lo <= xi <= hi and lo <= yi <= hi):
                raise EventFormatError(f"{path}:{lineno}: a field does not fit int64")
            if pi != 1 and pi != -1:
                raise EventFormatError(
                    f"{path}:{lineno}: polarity must be -1 or +1, got {pi}")
            if lab and li != LABEL_NOISE and li != LABEL_REAL:
                raise EventFormatError(
                    f"{path}:{lineno}: label must be 0, 1 or None, got {li}")
            add_t(ti)
            add_x(xi)
            add_y(yi)
            add_p(pi)
            add_label(li)
    return cols


def _read_bin(path):
    with open(path, "rb") as f:
        magic = f.read(len(BIN_MAGIC))
    if magic != BIN_MAGIC:
        raise EventFormatError(f"{path}: bad magic {magic!r}")
    head, size = len(BIN_MAGIC), _BIN_RECORD.itemsize
    count, partial = divmod(os.path.getsize(path) - head, size)
    if partial:
        raise EventFormatError(f"{path}: truncated record at offset {head + count * size}")
    records = np.fromfile(path, dtype=_BIN_RECORD, count=count, offset=head)
    p, label = records["p"], records["label"]
    bad_p = (p != 1) & (p != -1)
    # -1 is the one label byte for unknown
    bad = np.flatnonzero(bad_p | (label < -1) | (label > LABEL_REAL))
    if len(bad):
        i = int(bad[0])
        what = (f"polarity must be -1 or +1, got {p[i]}" if bad_p[i]
                else f"label must be -1 (unknown), 0 or 1, got {label[i]}")
        raise EventFormatError(f"{path}: offset {head + i * size}: {what}")
    return records["t"].copy(), records["x"], records["y"], p, label

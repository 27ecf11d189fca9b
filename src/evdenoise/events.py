"""Event data model, stream containers, validation, and file I/O.

Timestamps are integer microseconds throughout; polarity is -1/+1; labels
are 0 (noise), 1 (real activity), or None (unknown).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

LABEL_NOISE = 0
LABEL_REAL = 1

BIN_MAGIC = b"EVST0001"
_BIN_RECORD = struct.Struct("<qHHbbxx")  # t, x, y, p, label(-1=unknown), pad

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


@dataclass
class EventStream:
    """Ordered event sequence; file order is the authoritative arrival order."""

    events: List[Event]
    geometry: SensorGeometry = field(default_factory=SensorGeometry)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventStream)
            and self.geometry == other.geometry
            and self.events == other.events
        )

    def arrays(self):
        """Columnar view (t, x, y, p, label) as numpy arrays; label -1 = unknown."""
        n = len(self.events)
        t = np.empty(n, dtype=np.int64)
        x = np.empty(n, dtype=np.int64)
        y = np.empty(n, dtype=np.int64)
        p = np.empty(n, dtype=np.int64)
        lab = np.empty(n, dtype=np.int64)
        for i, e in enumerate(self.events):
            t[i] = e.t
            x[i] = e.x
            y[i] = e.y
            p[i] = e.p
            lab[i] = -1 if e.label is None else e.label
        return t, x, y, p, lab


def stream_from_arrays(t, x, y, p, label=None,
                       geometry: SensorGeometry = None) -> EventStream:
    geometry = geometry or SensorGeometry()
    events = []
    for i in range(len(t)):
        lab = None
        if label is not None:
            lv = int(label[i])
            lab = None if lv < 0 else lv
        events.append(Event(int(t[i]), int(x[i]), int(y[i]), int(p[i]), lab))
    return EventStream(events, geometry)


@dataclass
class ValidationReport:
    out_of_bounds: int = 0
    regressions: int = 0
    bad_polarity: int = 0

    @property
    def ok(self) -> bool:
        return self.out_of_bounds == 0 and self.regressions == 0 and self.bad_polarity == 0


def validate_stream(stream: EventStream, geometry: SensorGeometry = None) -> ValidationReport:
    """Count invariant violations; violations are data, not errors."""
    geometry = geometry or stream.geometry
    report = ValidationReport()
    prev_t = None
    for e in stream:
        if not geometry.contains(e.x, e.y):
            report.out_of_bounds += 1
        if e.p not in (-1, 1):
            report.bad_polarity += 1
        if prev_t is not None and e.t < prev_t:
            report.regressions += 1
        prev_t = e.t
    return report


def slice_by_time(stream: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1, original order."""
    if t0 > t1:
        raise ValueError(f"t0 ({t0}) must be <= t1 ({t1})")
    return EventStream([e for e in stream if t0 <= e.t < t1], stream.geometry)


def _check_order(events: Sequence[Event], where: str) -> None:
    for i in range(1, len(events)):
        if events[i].t < events[i - 1].t:
            raise EventFormatError(
                f"{where}: timestamp regression at index {i} "
                f"({events[i].t} after {events[i - 1].t})"
            )


def write_events(stream: EventStream, path, format: str = "csv") -> None:
    if format == "csv":
        with open(path, "w") as f:
            f.write(CSV_HEADER + "\n")
            for e in stream:
                lab = "" if e.label is None else str(e.label)
                f.write(f"{e.t},{e.x},{e.y},{e.p},{lab}\n")
    elif format in ("bin", "binary"):
        # packed in memory first (16 bytes per event), so an event the
        # record cannot hold leaves no half-written file
        data = bytearray(BIN_MAGIC)
        for i, e in enumerate(stream):
            lab = -1 if e.label is None else e.label
            try:
                data += _BIN_RECORD.pack(e.t, e.x, e.y, e.p, lab)
            except struct.error:
                raise EventFormatError(
                    f"{path}: event {i} (t={e.t}, x={e.x}, y={e.y}) does not fit "
                    f"the binary record (x and y in 0..65535)") from None
        with open(path, "wb") as f:
            f.write(data)
    else:
        raise ValueError(f"unknown format {format!r}")


def read_events(path, format: str = "csv",
                geometry: SensorGeometry = None) -> EventStream:
    geometry = geometry or SensorGeometry()
    if format == "csv":
        events = _read_csv(path)
    elif format in ("bin", "binary"):
        events = _read_bin(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    _check_order(events, str(path))
    return EventStream(events, geometry)


def _read_csv(path) -> List[Event]:
    events = []
    with open(path) as f:
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
            try:
                t, x, y, p = (int(v) for v in parts[:4])
                lab = None
                if len(parts) == 5 and parts[4] != "":
                    lab = int(parts[4])
            except ValueError as exc:
                raise EventFormatError(f"{path}:{lineno}: {exc}") from None
            try:
                events.append(Event(t, x, y, p, lab))
            except ValueError as exc:
                raise EventFormatError(f"{path}:{lineno}: {exc}") from None
    return events


def _read_bin(path) -> List[Event]:
    events = []
    with open(path, "rb") as f:
        magic = f.read(len(BIN_MAGIC))
        if magic != BIN_MAGIC:
            raise EventFormatError(f"{path}: bad magic {magic!r}")
        offset = len(BIN_MAGIC)
        while True:
            chunk = f.read(_BIN_RECORD.size)
            if not chunk:
                break
            if len(chunk) != _BIN_RECORD.size:
                raise EventFormatError(f"{path}: truncated record at offset {offset}")
            t, x, y, p, lab = _BIN_RECORD.unpack(chunk)
            try:
                events.append(Event(t, x, y, p, None if lab < 0 else lab))
            except ValueError as exc:
                raise EventFormatError(f"{path}: offset {offset}: {exc}") from None
            offset += _BIN_RECORD.size
    return events

"""Event data model and file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdenoise.events import (Event, EventFormatError, EventStream,
                              SensorGeometry, read_events, slice_by_time,
                              stream_from_arrays, validate_stream,
                              write_events)


def make_stream(rows, geometry=None):
    return EventStream([Event(*r) for r in rows], geometry or SensorGeometry())


class TestEvent:
    def test_fields(self):
        e = Event(10, 3, 4, -1, 1)
        assert (e.t, e.x, e.y, e.p, e.label) == (10, 3, 4, -1, 1)

    def test_polarity_validated(self):
        with pytest.raises(ValueError):
            Event(0, 0, 0, 0)
        with pytest.raises(ValueError):
            Event(0, 0, 0, 2)

    def test_label_validated(self):
        with pytest.raises(ValueError):
            Event(0, 0, 0, 1, 3)
        assert Event(0, 0, 0, 1, None).label is None


class TestGeometry:
    def test_default_is_davis346(self):
        g = SensorGeometry()
        assert (g.width, g.height) == (346, 260)

    def test_contains(self):
        g = SensorGeometry(4, 3)
        assert g.contains(0, 0) and g.contains(3, 2)
        assert not g.contains(4, 0) and not g.contains(0, 3)
        assert not g.contains(-1, 1)


class TestValidation:
    def test_clean_stream(self):
        s = make_stream([(0, 1, 1, 1, None), (5, 2, 2, -1, 0)])
        assert validate_stream(s).ok

    def test_out_of_bounds_counted(self):
        s = make_stream([(0, 400, 1, 1, None)])
        r = validate_stream(s)
        assert r.out_of_bounds == 1 and not r.ok

    def test_regression_counted(self):
        s = make_stream([(10, 1, 1, 1, None), (5, 1, 1, 1, None)])
        assert validate_stream(s).regressions == 1


def test_slice_by_time_half_open():
    s = make_stream([(0, 0, 0, 1, None), (5, 1, 1, 1, None),
                     (10, 2, 2, 1, None)])
    sub = slice_by_time(s, 0, 10)
    assert [e.t for e in sub] == [0, 5]


def test_arrays_roundtrip():
    s = make_stream([(0, 1, 2, 1, None), (3, 4, 5, -1, 0), (7, 6, 7, 1, 1)])
    t, x, y, p, lab = s.arrays()
    assert list(lab) == [-1, 0, 1]
    back = stream_from_arrays(t, x, y, p, lab, s.geometry)
    assert back == s


@pytest.mark.parametrize("format", ["csv", "bin"])
def test_file_roundtrip(tmp_path, format):
    s = make_stream([(0, 1, 2, 1, None), (3, 4, 5, -1, 0), (900, 6, 7, 1, 1)])
    path = tmp_path / f"events.{format}"
    write_events(s, path, format=format)
    assert read_events(path, format=format) == s


def test_csv_reports_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_us,x,y,p,label\n1,2,3,1,\nnope\n")
    with pytest.raises(EventFormatError, match=":3"):
        read_events(path)


def test_csv_rejects_bad_polarity_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_us,x,y,p,label\n1,2,3,5,\n")
    with pytest.raises(EventFormatError, match=":2"):
        read_events(path)


def test_bin_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(EventFormatError, match="magic"):
        read_events(path, format="bin")


def test_bin_rejects_truncated_record(tmp_path):
    from evdenoise.events import BIN_MAGIC
    path = tmp_path / "trunc.bin"
    path.write_bytes(BIN_MAGIC + b"\x00" * 7)
    with pytest.raises(EventFormatError, match="truncated"):
        read_events(path, format="bin")


@pytest.mark.parametrize("x", [-1, 65536])
def test_bin_writer_rejects_unrepresentable_event(tmp_path, x):
    # CSV holds any coordinate; the binary record does not
    csv = tmp_path / "wide.csv"
    write_events(make_stream([(0, 1, 2, 1), (5, x, 2, -1)]), csv)
    stream = read_events(csv)
    path = tmp_path / "wide.bin"
    with pytest.raises(EventFormatError, match="event 1 "):
        write_events(stream, path, format="bin")
    assert not path.exists()


def test_read_rejects_time_regression(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("t_us,x,y,p,label\n10,0,0,1,\n5,0,0,1,\n")
    with pytest.raises(EventFormatError, match="regression"):
        read_events(path)


events_strategy = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 345),
              st.integers(0, 259), st.sampled_from([-1, 1]),
              st.sampled_from([None, 0, 1])),
    max_size=40)


@settings(max_examples=50, deadline=None)
@given(events_strategy)
@pytest.mark.parametrize("format", ["csv", "bin"])
def test_roundtrip_property(tmp_path_factory, format, rows):
    rows = sorted(rows, key=lambda r: r[0])
    s = make_stream([(t, x, y, p, lab) for t, x, y, p, lab in rows])
    path = tmp_path_factory.mktemp("rt") / f"e.{format}"
    write_events(s, path, format=format)
    assert read_events(path, format=format) == s

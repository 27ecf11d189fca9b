"""Event data model, stream columns and file I/O."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdenoise import baselines
from evdenoise.events import (BIN_MAGIC, CSV_HEADER, Event, EventFormatError,
                              EventStream, SensorGeometry, read_events,
                              slice_by_time, stream_from_arrays,
                              validate_stream, write_events)
from evdenoise.transformer import DenoiseModel, predict_stream


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


class TestColumns:
    def test_arrays_are_read_only_int64_and_not_copied(self):
        s = make_stream([(0, 1, 2, 1, None), (3, 4, 5, -1, 0)])
        cols = s.arrays()
        assert cols is s.arrays()
        for c in cols:
            assert c.dtype == np.int64 and not c.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                c[0] = 9

    def test_wrapping_leaves_the_callers_arrays_writable(self):
        t = np.array([0, 5])
        s = stream_from_arrays(t, np.array([1, 2]), np.array([1, 2]), np.array([1, -1]))
        assert t.flags.writeable and not s.arrays()[0].flags.writeable
        assert s.arrays()[4].tolist() == [-1, -1]

    def test_events_are_one_cached_tuple(self):
        s = make_stream([(0, 1, 2, 1, None), (3, 4, 5, -1, 0)])
        assert s.events is s.events
        assert s[1] == Event(3, 4, 5, -1, 0) and list(s) == list(s.events)
        with pytest.raises(TypeError):
            s.events[0] = Event(9, 9, 9, 1)

    def test_field_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            EventStream([Event(2 ** 63, 0, 0, 1)])
        with pytest.raises(ValueError, match="int64"):
            stream_from_arrays([0], [2 ** 64], [0], [1])

    @pytest.mark.parametrize("p, label, match", [(0, -1, "polarity"), (1, 2, "label"),
                                                 (-1, -2, "label")])
    def test_columns_checked(self, p, label, match):
        with pytest.raises(ValueError, match=match):
            stream_from_arrays([0, 1], [0, 0], [0, 0], [1, p], [0, label])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            stream_from_arrays([0, 1], [0], [0, 0], [1, 1])


def test_binary_stream_holds_at_most_64_bytes_per_event(tmp_path, monkeypatch):
    n = 100_000
    rng = np.random.default_rng(0)
    geom = SensorGeometry()
    stream = stream_from_arrays(np.sort(rng.integers(0, 10 ** 7, n)),
                                rng.integers(0, geom.width, n),
                                rng.integers(0, geom.height, n),
                                rng.choice([-1, 1], n), rng.integers(-1, 2, n), geom)
    path = tmp_path / "big.bin"
    write_events(stream, path, format="bin")

    def no_event(self):
        raise AssertionError("an Event was built")

    # whole-stream paths work on the columns: none of them builds an Event
    monkeypatch.setattr(Event, "__post_init__", no_event)
    tracemalloc.start()
    try:
        back = read_events(path, format="bin", geometry=geom)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 64 * n and peak <= 64 * n, (held / n, peak / n)
    assert back == stream
    for algo in ("ba", "nnb", "liu1", "liu2", "khodamoradi", "yang"):
        baselines.make_filter(algo, geom).run_batch(back)
    prefix = slice_by_time(back, 0, 300_000)
    predict_stream(prefix, DenoiseModel(seed=0), mode="batch")


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


def test_csv_rejects_undecodable_bytes_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t_us,x,y,p,label\n1,2,3,1,\n5,\x80,3,1,\n")
    with pytest.raises(EventFormatError, match=":3"):
        read_events(path)
    path.write_bytes(b"\xfft_us,x,y,p,label\n")
    with pytest.raises(EventFormatError, match="header"):
        read_events(path)


def test_csv_rejects_integer_beyond_int64_with_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("t_us,x,y,p,label\n1,2,3,1,\n\n1,-9223372036854775809,3,1,\n")
    with pytest.raises(EventFormatError, match=":4: .*int64"):
        read_events(path)


@pytest.mark.parametrize("record, match", [
    ((5, 1, 1, 0, 0), "offset 24: polarity must be -1 or \\+1, got 0"),
    ((5, 1, 1, 1, 2), "offset 24: label"),
    # -1 is the one byte for an unknown label, as the CSV reader has one
    ((5, 1, 1, 1, -5), "offset 24: label .*got -5"),
])
def test_bin_rejects_bad_record_with_offset(tmp_path, record, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(BIN_MAGIC + struct.pack("<qHHbbxx", 0, 1, 1, 1, 0)
                     + struct.pack("<qHHbbxx", *record))
    with pytest.raises(EventFormatError, match=match):
        read_events(path, format="bin")


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


def read_or_format_error(path, format):
    """The reader's contract on any input: an EventFormatError, or a stream
    that survives write -> read unchanged."""
    try:
        stream = read_events(path, format=format)
    except EventFormatError:
        return
    again = path.with_name("again." + format)
    write_events(stream, again, format=format)
    assert read_events(again, format=format) == stream


HEADS = {"csv": (CSV_HEADER + "\n").encode(), "bin": BIN_MAGIC}


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.binary(max_size=100))
@pytest.mark.parametrize("format", ["csv", "bin"])
def test_reader_fuzz_arbitrary_bytes(tmp_path_factory, format, with_head, body):
    path = tmp_path_factory.mktemp("fz") / f"e.{format}"
    path.write_bytes((HEADS[format] if with_head else b"") + body)
    read_or_format_error(path, format)


@settings(max_examples=60, deadline=None)
@given(events_strategy, st.data())
@pytest.mark.parametrize("format", ["csv", "bin"])
def test_reader_fuzz_single_byte_mutations(tmp_path_factory, format, rows, data):
    rows = sorted(rows, key=lambda r: r[0])
    path = tmp_path_factory.mktemp("fz") / f"e.{format}"
    write_events(make_stream(rows), path, format=format)
    blob = bytearray(path.read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))
    read_or_format_error(path, format)

"""``extract``'s forked readers give what the whole-file read gives, or leave the file to it."""

import filecmp
import hashlib
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sohpred import cli, icfeatures, ingest, pipeline

SCHEMA = ingest.CycleSchema()
BIN_WIDTH = 0.01
HEADER = "cycle,time_s,voltage_v,charge_ah,capacity_ah"


def cycle_rows(cycle: int, n: int = 40) -> list[list[str]]:
    """A charge from 3.0 V in steps of 20 mV, whose IC curve can be built."""
    return [
        [str(cycle), repr(2.0 * i), repr(3.0 + 0.02 * i), repr(0.0175 * i), repr(0.7 - 0.001 * cycle)]
        for i in range(n)
    ]


def cell_text(rows: list[list[str]], newline: str = "\n") -> str:
    return newline.join([HEADER] + [",".join(row) for row in rows]) + newline


def plain_rows(cycles: int = 6) -> list[list[str]]:
    return [row for c in range(1, cycles + 1) for row in cycle_rows(c)]


def outcome(read) -> tuple:
    """(cycle, capacity bits) pairs, each IC curve's bits and the dropped rows, or the error."""
    try:
        cycles, curves, dropped = read()
        curves = list(curves)
    except ValueError as exc:  # a ParseError too
        return type(exc), str(exc)
    return (
        [(i, capacity.hex()) for i, capacity in cycles],
        [(c.cycle_index, c.voltage_grid.tobytes(), c.dqdv.tobytes(), c.smoothed) for c in curves],
        dropped,
    )


def serial(path) -> tuple:
    """The whole-file read, as ``extract`` did it before it had readers."""
    def read():
        records, dropped = ingest.parse_cycle_file(path, SCHEMA)
        cycles = [(r.cycle_index, r.measured_capacity) for r in records]
        return cycles, [icfeatures.compute_ic_curve(r, BIN_WIDTH) for r in records], dropped
    return outcome(read)


def read_cell(path, cpus: int = 2, min_span_bytes: int = 1, spans_per_reader: int = 64):
    """``_read_cell``'s outcome on ``cpus``, and how it read the file.

    The second item is ``[]`` where no readers started, ``[True]`` where
    they read the file and ``[False]`` where it was read whole after them.
    """
    used = []
    real = cli._read_spans

    def spy(*args):
        digest, read = real(*args)
        used.append(read is not None)
        return digest, read

    def read():
        digest, *rest = cli._read_cell(path, SCHEMA, BIN_WIDTH)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        return rest

    with mock.patch.multiple(cli, _usable_cpus=lambda: cpus, _MIN_SPAN_BYTES=min_span_bytes,
                             _SPANS_PER_READER=spans_per_reader, _read_spans=spy):
        return outcome(read), used


def joined_in_process(path, n: int) -> tuple | None:
    """The readers' result on ``n`` spans, read one after another in this process; None to fall back."""
    spans = ingest.cycle_spans(path, SCHEMA, n)
    if spans is None or len(spans) < 2:
        return None
    try:
        read = cli._joined(cli._span_curves(path, SCHEMA, BIN_WIDTH, span) for span in spans)
    except ValueError:
        return None
    return None if read is None else outcome(lambda: read)


@st.composite
def cell_bytes(draw) -> bytes:
    """A cell of a few cycles, with irregularities that the readers must read or leave alone.

    Cycle numbers are sometimes spelled ``2.0``, which cuts a cycle where its
    spelling changes; rows leave the voltage window, lose their capacity,
    move to another place, or carry a bad field, a quote, a blank line or a
    non-ASCII byte; a cycle may have one row or a flat voltage.
    """
    rows = []
    for c in range(1, draw(st.integers(1, 6)) + 1):
        n = draw(st.sampled_from([1, 2, 30, 40, 40]))
        flat = draw(st.integers(0, 19)) == 0
        for row in cycle_rows(c, n):
            if flat:
                row[2] = "3.5"
            rows.append(row)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 4]))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(
            ["spelled"] * 3 + ["outside", "no-capacity", "move", "bad", "quote", "non-ascii"]
        ))
        if edit == "spelled":
            rows[i][0] += ".0"
        elif edit == "outside":
            rows[i][2] = "9.9"
        elif edit == "no-capacity":
            rows[i][4] = ""
        elif edit == "move":
            rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop(i))
        elif edit == "bad":
            rows[i][draw(st.integers(0, 4))] = draw(st.sampled_from(["x", "nan", ""]))
        elif edit == "quote":
            rows[i][3] = f'"{rows[i][3]}"'
        else:
            rows[i][4] += "\u00a0"  # float() strips a no-break space
    if draw(st.integers(0, 4)) == 0:
        rows.reverse()
    text = cell_text(rows, draw(st.sampled_from(["\n"] * 5 + ["\r\n"])))
    if draw(st.integers(0, 7)) == 0:
        lines = text.split("\n")
        lines.insert(draw(st.integers(1, len(lines) - 1)), "")
        text = "\n".join(lines)
    return text.encode()


class TestSpansMatchTheWholeFile:
    @given(data=cell_bytes(), n=st.integers(2, 12))
    @settings(max_examples=300, deadline=None)
    def test_spans_read_in_turn(self, tmp_path_factory, data, n):
        path = tmp_path_factory.mktemp("cell") / "cell.csv"
        path.write_bytes(data)
        joined = joined_in_process(path, n)
        if joined is not None:
            assert joined == serial(path)

    @given(data=cell_bytes(), spans_per_reader=st.sampled_from([1, 4, 64]))
    @settings(max_examples=40, deadline=None)
    def test_forked_readers(self, tmp_path_factory, data, spans_per_reader):
        path = tmp_path_factory.mktemp("cell") / "cell.csv"
        path.write_bytes(data)
        assert read_cell(path, spans_per_reader=spans_per_reader)[0] == serial(path)

    def test_plain_cell_is_read_by_the_readers(self, tmp_path):
        # so that the tests above compare the readers' results, not only fallbacks
        path = tmp_path / "cell.csv"
        path.write_text(cell_text(plain_rows()))
        assert joined_in_process(path, 6) == serial(path)
        found, used = read_cell(path)
        assert used == [True]
        assert found == serial(path) and len(found[0]) == 6


def edited(edit):
    return lambda: cell_text(edit(plain_rows()))


def setting(row, column, value):
    def edit(rows):
        rows[row][column] = value
        return rows
    return edit


def one_row_in_each_of_two_spans(rows):
    """Cycle 2 as one row spelled ``2`` and one spelled ``2.0``, so that a cut may fall between."""
    two = cycle_rows(2)
    return rows[:40] + [two[0], ["2.0"] + two[5][1:]] + rows[80:]


FALLBACKS = {
    "crlf": (lambda: cell_text(plain_rows(), "\r\n"), []),
    "quoted-header": (lambda: cell_text(plain_rows()).replace("cycle,", '"cycle",', 1), []),
    "quoted-field": (edited(setting(100, 3, '"1.75"')), [False]),
    "non-ascii-byte": (edited(setting(100, 4, "0.698\u00a0")), [False]),
    "blank-row": (lambda: cell_text(plain_rows()).replace("\n3,", "\n\n3,", 1), [False]),
    "bad-row": (edited(setting(100, 3, "x")), [False]),
    "interleaved-cycles": (edited(lambda rows: rows[1:150] + rows[:1] + rows[150:]), [False]),
    "descending-cycles": (edited(lambda rows: rows[::-1]), [False]),
    "no-ic-curve": (edited(lambda rows: [r[:2] + ["3.5"] + r[3:] if r[0] == "4" else r for r in rows]), [False]),
}


class TestFallback:
    @pytest.mark.parametrize("case", FALLBACKS)
    def test_read_whole_as_before(self, tmp_path, case):
        text, expected = FALLBACKS[case]
        path = tmp_path / "cell.csv"
        path.write_bytes(text().encode())
        found, used = read_cell(path)
        assert used == expected
        assert found == serial(path)

    def test_bad_row_keeps_its_line(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(edited(setting(100, 3, "x"))())
        found, _ = read_cell(path)
        assert found == (ingest.ParseError, f"{path}:102: bad row: could not convert string to float: 'x'")

    def test_one_kept_row_in_each_of_two_spans(self, tmp_path):
        # the spans cut between cycle 2's rows: neither makes a record, the whole file makes one
        path = tmp_path / "cell.csv"
        path.write_text(cell_text(one_row_in_each_of_two_spans(plain_rows())))
        data = path.read_bytes()
        cut = data.index(b"\n2.0,") + 1
        spans = [(len(HEADER) + 1, cut), (cut, len(data))]
        reads = [cli._span_curves(path, SCHEMA, BIN_WIDTH, span) for span in spans]
        assert [kept for *_, kept in reads] == [(1, 2), (2, 6)]
        assert cli._joined(reads) is None
        assert 2 in [i for i, _ in serial(path)[0]]
        found, used = read_cell(path)
        assert found == serial(path) and used in ([True], [False])

    def test_curve_that_cannot_be_built_names_file_and_cycle(self, tmp_path, capsys):
        path = tmp_path / "cell.csv"
        path.write_text(FALLBACKS["no-ic-curve"][0]())
        with mock.patch.multiple(cli, _usable_cpus=lambda: 2, _MIN_SPAN_BYTES=1):
            assert cli.main(["extract", "--dataset", str(path), "--out", str(tmp_path / "ext")]) == 1
        message = "cycle 4: voltage non-monotone: fewer than 2 distinct points survive"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_lost_reader(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text(cell_text(plain_rows()))
        parent, real = os.getpid(), icfeatures.compute_ic_curve

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        with mock.patch.object(icfeatures, "compute_ic_curve", dying):
            found, used = read_cell(path)
        assert used == [False]
        assert found == serial(path)

    @pytest.mark.parametrize("cpus, min_span_bytes", [(1, 1), (2, None)], ids=["one-cpu", "below-the-floor"])
    def test_no_readers(self, tmp_path, cpus, min_span_bytes):
        path = tmp_path / "cell.csv"
        path.write_text(cell_text(plain_rows()))
        found, used = read_cell(path, cpus, min_span_bytes or cli._MIN_SPAN_BYTES)
        assert used == [] and found == serial(path)

    def test_no_readers_without_fork(self, tmp_path, monkeypatch):
        path = tmp_path / "cell.csv"
        path.write_text(cell_text(plain_rows()))
        monkeypatch.delattr(os, "fork")
        found, used = read_cell(path)
        assert used == [] and found == serial(path)


@pytest.fixture(scope="module")
def lab_cell(tmp_path_factory):
    """A generated 90-cycle cell of about 4.9 MB, two spans above the size floor."""
    path = tmp_path_factory.mktemp("lab") / "cell.csv"
    pipeline.synthesize_cycles(pipeline.CycleSynthesisParams(n_cycles=90), 3, path)
    assert path.stat().st_size >= 2 * cli._MIN_SPAN_BYTES
    return path


def test_lab_cell_takes_the_readers_and_writes_the_serial_bytes(tmp_path, lab_cell):
    used = []
    real = cli._read_spans

    def spy(*args):
        digest, read = real(*args)
        used.append(read is not None)
        return digest, read

    for cpus in (2, 1):
        with mock.patch.multiple(cli, _usable_cpus=lambda: cpus, _read_spans=spy):
            assert cli.main(["extract", "--dataset", str(lab_cell), "--out", str(tmp_path / str(cpus))]) == 0
    assert used == [True]
    compared = filecmp.dircmp(tmp_path / "2", tmp_path / "1")
    assert compared.left_list == compared.right_list
    assert all(filecmp.cmp(tmp_path / "2" / name, tmp_path / "1" / name, shallow=False)
               for name in compared.left_list)

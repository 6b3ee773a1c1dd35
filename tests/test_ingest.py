from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sohpred import ingest

import oracles
from oracles import traced_peak


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def make_segment(currents, times, socs, start=None):
    start = start or datetime(2021, 3, 1, tzinfo=timezone.utc)
    voltage = np.full(len(times), 350.0)
    return ingest.ChargeSegment("veh", start, times, currents, voltage, socs)


def constant_current_segment(cap_ah, start=None, soc0=0.2, soc1=0.7, duration_s=3600.0):
    """Charging event whose coulomb-counted capacity is exactly cap_ah."""
    n = 100
    times = np.linspace(0.0, duration_s, n)
    current = -cap_ah * (soc1 - soc0) * 3600.0 / duration_s
    socs = soc0 + (soc1 - soc0) * times / duration_s
    return make_segment([current] * n, times, socs, start=start)


class TestParseCycleFile:
    def test_well_formed_three_cycles(self, tmp_path):
        rows = ["cycle,time_s,voltage_v,charge_ah,capacity_ah"]
        for c in (1, 2, 3):
            for t in range(3):
                rows.append(f"{c},{t},{3.5 + 0.1 * t},{0.1 * t},0.74")
        records, dropped = ingest.parse_cycle_file(write(tmp_path, "a.csv", "\n".join(rows)))
        assert len(records) == 3
        assert dropped == 0
        assert records[0].measured_capacity == 0.74

    def test_voltage_window_violation_dropped_and_counted(self, tmp_path):
        text = (
            "cycle,time_s,voltage_v,charge_ah,capacity_ah\n"
            "1,0,3.5,0.0,0.7\n1,1,9.9,0.1,0.7\n1,2,3.7,0.2,0.7\n"
        )
        records, dropped = ingest.parse_cycle_file(write(tmp_path, "b.csv", text))
        assert dropped == 1
        assert records[0].charge_curve.shape[0] == 2

    def test_shuffled_cycles_sorted(self, tmp_path):
        rows = ["cycle,time_s,voltage_v,charge_ah"]
        for c in (7, 2, 5):
            rows += [f"{c},0,3.5,0.0", f"{c},1,3.6,0.1"]
        records, _ = ingest.parse_cycle_file(write(tmp_path, "c.csv", "\n".join(rows)))
        assert [r.cycle_index for r in records] == [2, 5, 7]

    def test_missing_column_and_empty(self, tmp_path):
        with pytest.raises(ingest.ParseError, match="missing mapped column"):
            ingest.parse_cycle_file(write(tmp_path, "d.csv", "cycle,foo\n1,2\n"))
        with pytest.raises(ingest.ParseError):
            ingest.parse_cycle_file(write(tmp_path, "e.csv", ""))

    def test_all_rows_outside_window_is_error(self, tmp_path):
        text = "cycle,time_s,voltage_v,charge_ah\n1,0,9.0,0.0\n1,1,9.1,0.1\n"
        with pytest.raises(ingest.ParseError, match="zero usable rows"):
            ingest.parse_cycle_file(write(tmp_path, "f.csv", text))


class TestParseFleetFile:
    def fleet_text(self, stamps, socs, current=-70.0):
        lines = ["timestamp,current_a,voltage_v,soc"]
        for ts, soc in zip(stamps, socs):
            lines.append(f"{ts},{current},350.0,{soc}")
        return "\n".join(lines)

    def test_contiguous_single_segment(self, tmp_path):
        stamps = [1_600_000_000 + 8 * i for i in range(100)]
        socs = [20.0 + 0.5 * i for i in range(100)]
        path = write(tmp_path, "v.csv", self.fleet_text(stamps, socs))
        segments = ingest.parse_fleet_file(path)
        assert len(segments) == 1
        assert len(segments[0].time) == 100

    def test_gap_splits_segments(self, tmp_path):
        stamps = [1_600_000_000 + 8 * i for i in range(50)]
        stamps += [stamps[-1] + 7200 + 8 * i for i in range(50)]
        socs = [20.0 + 0.2 * i for i in range(50)] * 2
        path = write(tmp_path, "v.csv", self.fleet_text(stamps, socs))
        segments = ingest.parse_fleet_file(path)
        assert len(segments) == 2

    def test_soc_percent_converted(self, tmp_path):
        stamps = [0, 8]
        path = write(tmp_path, "v.csv", self.fleet_text(stamps, [85.3, 85.4]))
        segments = ingest.parse_fleet_file(path)
        assert segments[0].soc[0] == pytest.approx(0.853)

    def test_soc_dips_dropped(self, tmp_path):
        stamps = [8 * i for i in range(5)]
        socs = [20.0, 20.1, 19.9, 20.2, 20.3]  # one jitter dip
        path = write(tmp_path, "v.csv", self.fleet_text(stamps, socs))
        segments = ingest.parse_fleet_file(path)
        soc_values = list(segments[0].soc)
        assert soc_values == sorted(soc_values)
        assert len(soc_values) == 4

    def test_exact_duplicate_rows_dropped(self, tmp_path):
        stamps = [1_600_000_000 + 8 * i for i in range(20)]
        socs = [20.0 + 0.5 * i for i in range(20)]
        lines = self.fleet_text(stamps, socs).split("\n")
        clean = ingest.parse_fleet_file(write(tmp_path, "clean.csv", "\n".join(lines)), source_id="v")
        for at in (1, 7, 20):  # first, a middle and the last sample
            text = "\n".join(lines[: at + 1] + lines[at:])
            assert ingest.parse_fleet_file(write(tmp_path, "dup.csv", text), source_id="v") == clean

    def test_empty_file(self, tmp_path):
        with pytest.raises(ingest.ParseError):
            ingest.parse_fleet_file(write(tmp_path, "v.csv", "timestamp,current_a,voltage_v,soc\n"))


class TestComputeCapacity:
    def test_constant_current_case(self):
        # -10 A for 3600 s over SOC 0.20 -> 0.30: 10 Ah / 0.1 = 100 Ah
        times = np.arange(0.0, 3600.0 + 1, 8.0)
        socs = 0.20 + 0.10 * times / 3600.0
        seg = make_segment([-10.0] * len(times), times, socs)
        assert ingest.compute_capacity(seg) == pytest.approx(100.0, rel=1e-9)

    def test_rated_pack_case(self):
        times = np.arange(0.0, 5760.0 + 1, 8.0)
        socs = 0.10 + 0.80 * times / 5760.0
        seg = make_segment([-72.5] * len(times), times, socs)
        assert ingest.compute_capacity(seg) == pytest.approx(145.0, rel=1e-9)

    def test_multistage_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        times = np.arange(0.0, 4000.0, 8.0)
        stage = np.repeat(rng.uniform(20.0, 90.0, size=10), 50)
        current = -stage
        charge_as = np.concatenate(([0.0], np.cumsum(-current[:-1] * np.diff(times))))
        socs = 0.1 + 0.7 * charge_as / charge_as[-1]
        seg = make_segment(current, times, socs)

        # independent oracle: explicit sample-by-sample rectangular sum
        acc = 0.0
        for k in range(len(times) - 1):
            acc += -current[k] * (times[k + 1] - times[k])
        expected = acc / 3600.0 / (socs[-1] - socs[0])
        assert ingest.compute_capacity(seg) == pytest.approx(expected, rel=1e-9)

    def test_small_soc_span_rejected(self):
        times = np.arange(0.0, 100.0, 8.0)
        socs = 0.20 + 0.01 * times / 100.0
        seg = make_segment([-10.0] * len(times), times, socs)
        with pytest.raises(ValueError, match="SOC span"):
            ingest.compute_capacity(seg)

    def test_non_charging_segment_rejected(self):
        times = np.arange(0.0, 3600.0, 8.0)
        socs = 0.2 + 0.4 * times / 3600.0
        seg = make_segment([5.0] * len(times), times, socs)
        with pytest.raises(ValueError, match="not a charging segment"):
            ingest.compute_capacity(seg)

    @given(scale=st.floats(0.25, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_current(self, scale):
        times = np.arange(0.0, 2000.0, 8.0)
        base = -30.0 - 10.0 * np.sin(times / 300.0) ** 2
        socs = np.linspace(0.2, 0.6, len(times))
        c1 = ingest.compute_capacity(make_segment(base, times, socs))
        c2 = ingest.compute_capacity(make_segment(base * scale, times, socs))
        assert c2 == pytest.approx(scale * c1, rel=1e-12)

    def test_time_reindexing_invariance(self):
        times = np.arange(0.0, 2000.0, 8.0)
        current = [-40.0] * len(times)
        socs = np.linspace(0.2, 0.5, len(times))
        a = ingest.compute_capacity(make_segment(current, times, socs))
        b = ingest.compute_capacity(make_segment(current, times + 12345.0, socs))
        assert a == b


class TestMonthlyAggregate:
    def month_events(self, caps, month):
        start = datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(days=31 * month)
        return [
            constant_current_segment(c, start=start + timedelta(days=i))
            for i, c in enumerate(caps)
        ]

    def test_median_and_mean(self):
        records, omitted = ingest.monthly_aggregate(self.month_events([140, 141, 139], 0))
        assert len(records) == 1
        assert records[0].median_capacity == pytest.approx(140.0)
        assert records[0].mean_capacity == pytest.approx(140.0)
        assert omitted == {}

    def test_median_robust_to_outlier(self):
        records, _ = ingest.monthly_aggregate(self.month_events([100, 100, 400], 0))
        assert records[0].median_capacity == pytest.approx(100.0)
        assert records[0].mean_capacity == pytest.approx(200.0)

    def test_29_months_match_sort_oracle(self):
        rng = np.random.default_rng(12)
        segments = []
        expected = {}
        for m in range(29):
            caps = list(rng.uniform(120.0, 145.0, size=5))
            segments += self.month_events(caps, m)
            ordered = sorted(caps)
            expected[m] = ordered[len(ordered) // 2]  # odd count: middle element
        records, _ = ingest.monthly_aggregate(segments)
        assert len(records) == 29
        for rec in records:
            assert rec.median_capacity == pytest.approx(expected[rec.month], rel=1e-12)

    def test_sparse_months_omitted_and_reported(self):
        segments = self.month_events([140, 141, 139], 0) + self.month_events([130], 1)
        records, omitted = ingest.monthly_aggregate(segments)
        assert [r.month for r in records] == [0]
        assert omitted == {1: 1}

    @given(order=st.permutations(range(5)))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, order):
        caps = [140.0, 133.0, 139.5, 141.2, 136.8]
        base = self.month_events(caps, 0)
        records, _ = ingest.monthly_aggregate([base[i] for i in order])
        assert records[0].median_capacity == pytest.approx(139.5)


class TestComputeSOH:
    def test_identity(self):
        series = ingest.compute_soh([0.74, 0.74], "first")
        assert np.allclose(series.values, [1.0, 1.0])

    def test_ratio(self):
        series = ingest.compute_soh([0.74, 0.703], "first")
        assert series.values[1] == pytest.approx(0.95)

    def test_max_denominator_peaks_at_one(self):
        rng = np.random.default_rng(0)
        caps = rng.uniform(120.0, 145.0, size=30)
        series = ingest.compute_soh(caps, "max")
        assert series.values.max() == 1.0

    def test_first_denominator_index_zero_is_one(self):
        series = ingest.compute_soh([5.0, 4.0, 3.9], "first")
        assert series.values[0] == 1.0

    def test_explicit_denominator(self):
        series = ingest.compute_soh([72.0], 80.0)
        assert series.values[0] == pytest.approx(0.9)

    def test_errors(self):
        with pytest.raises(ValueError):
            ingest.compute_soh([], "first")
        with pytest.raises(ValueError):
            ingest.compute_soh([1.0, -2.0], "first")
        with pytest.raises(ValueError):
            ingest.compute_soh([1.0], 0.0)


class TestTypes:
    def test_segment_needs_two_samples(self):
        with pytest.raises(ValueError):
            make_segment([-1.0], [0.0], [0.5])

    def test_segment_rejects_decreasing_soc(self):
        with pytest.raises(ValueError):
            make_segment([-1.0, -1.0], [0.0, 8.0], [0.5, 0.4])

    def test_segment_keeps_its_own_read_only_columns(self):
        times, socs = np.array([0.0, 8.0]), np.array([0.4, 0.5])
        seg = make_segment([-1.0, -1.0], times, socs)
        times[1], socs[1] = -1.0, 0.1  # the checked invariants must still hold
        assert list(seg.time) == [0.0, 8.0] and list(seg.soc) == [0.4, 0.5]
        with pytest.raises(ValueError):
            seg.soc[0] = 0.9
        twin = make_segment([-1.0, -1.0], [0.0, 8.0], [0.4, 0.5])
        assert seg == twin and len({seg, twin}) == 1

    def test_cycle_record_rejects_decreasing_charge(self):
        curve = np.array([[0.0, 3.5, 0.2], [1.0, 3.6, 0.1]])
        with pytest.raises(ValueError):
            ingest.CycleRecord(1, curve, 0.7)

    def test_soh_series_bounds(self):
        with pytest.raises(ValueError):
            ingest.SOHSeries((0,), np.array([1.2]))


CYCLE_HEADER = "cycle,time_s,voltage_v,charge_ah,capacity_ah"
FLEET_HEADER = "timestamp,current_a,voltage_v,soc,temp_c"
BAD_TOKENS = ["nan", "inf", "-inf", "", "x", "1e400", "2020-13-01"]


BLANK_ROWS = ["", "   ", "\t ", ",,,,", "\t\t\t\t", ", ,\t,"]


@st.composite
def delimited_file(draw, header, good_row):
    """A header plus rows that are well formed, truncated, non-finite or garbled.

    ``good_row(i)`` gives the fields of a valid i-th row.  Some files mix
    tabs and commas between fields.  Some rows are repeated, so duplicate
    timestamps occur, and some are followed by a row with the same leading
    fields (timestamp, or cycle and time) but another value further on.
    Rows with only whitespace or only delimiters are scattered in, before
    the header too, some files have their data rows shuffled, and some
    quote the header or some fields as CSV allows.  Some end their lines
    with ``\r\n``.
    """
    delimiter = draw(st.sampled_from([",", "\t"]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    mixed = draw(st.booleans())
    damage = draw(st.sampled_from([0, 0, 1, 3]))  # tenths of the rows
    quote = draw(st.sampled_from(["none", "none", "header", "fields"]))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        fields = good_row(i)
        if draw(st.integers(0, 9)) < damage:
            at = draw(st.integers(0, len(fields) - 1))
            kind = draw(st.sampled_from(["truncated", "bad-token", "any-number"]))
            if kind == "truncated":
                fields = fields[:at]
            elif kind == "bad-token":
                fields[at] = draw(st.sampled_from(BAD_TOKENS))
            else:
                fields[at] = repr(draw(st.floats(-1e3, 1e10)))
        variants = [fields] * draw(st.sampled_from([1, 1, 1, 2]))
        if len(fields) > 2 and draw(st.integers(0, 9)) == 0:
            other = list(fields)
            other[draw(st.integers(2, len(fields) - 1))] = repr(draw(st.floats(0.0, 100.0)))
            variants.append(other)
        for fields in variants:
            if quote == "fields":
                fields = [f'"{f}"' if draw(st.booleans()) else f for f in fields]
            gaps = [draw(st.sampled_from([",", "\t"])) if mixed else delimiter for _ in fields]
            rows.append("".join(g + f for g, f in zip(gaps, fields))[1:])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BLANK_ROWS)))
    names = header.split(",")
    if quote == "header":
        names = [f'"{name}"' for name in names]
    lead = draw(st.sampled_from(["", "", "   " + newline]))
    return lead + newline.join([delimiter.join(names)] + rows) + newline


def cycle_row(i):
    return [str(1 + i // 4), str(i % 4), repr(3.5 + 0.1 * (i % 4)), repr(0.1 * (i % 4)), "0.74"]


def cycle_row_measured_once(i):
    """Capacity logged on the first row of each cycle only, empty on the others."""
    return cycle_row(i)[:4] + ["0.74" if i % 4 == 0 else ""]


def cycle_row_charging(i):
    """A charging current, negative, in the charge column, so that the integrated charge rises."""
    return cycle_row(i)[:3] + [repr(-1.0 - 0.1 * (i % 4)), "0.74"]


def fleet_seconds(i):
    return 1.5e9 + 8.0 * i + 100.0 * (i // 5)  # a gap after every fifth sample


def fleet_row(i):
    soc = 20.0 + i - 2.5 * (i % 3 == 2)  # every third sample dips
    return [repr(fleet_seconds(i)), "-70.0", "350.0", repr(soc), "25.0"]


def fleet_iso_row(i):
    stamp = datetime.fromtimestamp(fleet_seconds(i), timezone(timedelta(hours=2)))
    return [stamp.isoformat()] + fleet_row(i)[1:]


class TestParserProperties:
    """Either records come back, or a ParseError; nothing else escapes."""

    @given(text=delimited_file(CYCLE_HEADER, cycle_row))
    @settings(max_examples=200, deadline=None)
    def test_cycle_file_records_or_parse_error(self, tmp_path_factory, text):
        path = write(tmp_path_factory.mktemp("cycles"), "cycles.csv", text)
        try:
            records, dropped = ingest.parse_cycle_file(path)
        except ingest.ParseError as exc:
            assert str(exc).startswith(str(path))
            return
        assert records and all(isinstance(r, ingest.CycleRecord) for r in records)
        assert all(np.all(np.isfinite(r.charge_curve)) for r in records)
        assert dropped >= 0

    @given(text=delimited_file(FLEET_HEADER, fleet_row))
    @settings(max_examples=200, deadline=None)
    def test_fleet_file_records_or_parse_error(self, tmp_path_factory, text):
        path = write(tmp_path_factory.mktemp("fleet"), "fleet.csv", text)
        schema = ingest.FleetSchema(temperature="temp_c", gap_threshold_s=15.0)
        try:
            segments = ingest.parse_fleet_file(path, schema)
        except ingest.ParseError as exc:
            assert str(exc).startswith(str(path))
            return
        assert all(isinstance(s, ingest.ChargeSegment) for s in segments)


class TestParserErrorsNamePlace:
    def test_truncated_cycle_row(self, tmp_path):
        text = f"{CYCLE_HEADER}\n1,0,3.5,0.0,0.7\n1,1,3.6\n"
        path = write(tmp_path, "cut.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:3: bad row"):
            ingest.parse_cycle_file(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        text = f"{CYCLE_HEADER}\n\n1,0,3.5,0.0,0.7\n\n1,1,3.6,x,0.7\n"
        path = write(tmp_path, "blank.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:5: bad row"):
            ingest.parse_cycle_file(path)

    @pytest.mark.parametrize("empty", ["", "0.7"])
    def test_written_nan_capacity_is_a_bad_row(self, tmp_path, empty):
        # only an empty capacity field means "not measured", with or without one in the file
        text = f"{CYCLE_HEADER}\n1,0,3.5,0.0,{empty}\n1,1,3.6,0.1,nan\n"
        path = write(tmp_path, "nan.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:3: bad row: non-finite value 'nan'"):
            ingest.parse_cycle_file(path)

    def test_cycle_record_rejection_names_cycle(self, tmp_path):
        text = f"{CYCLE_HEADER}\n4,0,3.5,0.2,0.7\n4,1,3.6,0.1,0.7\n"
        path = write(tmp_path, "down.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}: cycle 4: cumulative charge"):
            ingest.parse_cycle_file(path)

    def test_truncated_fleet_temperature(self, tmp_path):
        text = f"{FLEET_HEADER}\n1500000000,-70,350,20,25\n1500000008,-70,350,21\n"
        path = write(tmp_path, "cut.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:3: bad row"):
            ingest.parse_fleet_file(path, ingest.FleetSchema(temperature="temp_c"))

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e300"])
    def test_out_of_range_timestamp(self, tmp_path, stamp):
        text = f"{FLEET_HEADER}\n{stamp},-70,350,20,25\n"
        path = write(tmp_path, "ts.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:2: bad row: bad timestamp"):
            ingest.parse_fleet_file(path)

    def test_conflicting_repeated_timestamp_names_line(self, tmp_path):
        text = (
            f"{FLEET_HEADER}\n1500000000,-70,350,20,25\n"
            "1500000008,-70,350,21,25\n1500000008,-71,350,21,25\n"
        )
        path = write(tmp_path, "twice.csv", text)
        stamp = r"2017-07-14T02:40:08\+00:00"
        with pytest.raises(ingest.ParseError, match=f"^{path}:4: timestamp {stamp} repeated"):
            ingest.parse_fleet_file(path)

    def test_segment_rejection_names_file(self, tmp_path):
        text = f"{FLEET_HEADER}\n1500000000,-70,350,99,25\n1500000008,-70,350,101,25\n"
        path = write(tmp_path, "soc.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}: segment starting .*soc out of"):
            ingest.parse_fleet_file(path)

    def test_bad_row_before_oversized_field_is_named_first(self, tmp_path):
        text = f"{CYCLE_HEADER}\n1,0,3.5,x,0.7\n1,1,3.6,{'9' * 200_000},0.7\n"
        path = write(tmp_path, "first.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:2: bad row: could not convert"):
            ingest.parse_cycle_file(path)

    def test_oversized_field_names_line(self, tmp_path):
        # the csv module refuses a field above its size limit
        text = f"{CYCLE_HEADER}\n1,0,3.5,0.0,0.7\n1,1,3.6,{'9' * 200_000},0.7\n"
        path = write(tmp_path, "huge.csv", text)
        with pytest.raises(ingest.ParseError, match=f"^{path}:3: field larger than field limit"):
            ingest.parse_cycle_file(path)
        path = write(tmp_path, "huge_header.csv", "x" * 200_000 + "\n")
        with pytest.raises(ingest.ParseError, match=f"^{path}:1: field larger"):
            ingest.parse_fleet_file(path)


def segment_columns(seg):
    """The per-sample columns of a segment, as arrays."""
    return {name: getattr(seg, name) for name in ("time", "current", "voltage", "soc")}


class TestIsoTimestamps:
    """ISO-8601 stamps give the segments and months of the same instants as epoch seconds."""

    UTC = timezone.utc
    PLUS2 = timezone(timedelta(hours=2))

    def instants(self):
        # three charging events in each of two months, well inside both months in UTC and +02:00
        starts = [datetime(2021, m, d, 10, tzinfo=self.UTC) for m in (3, 4) for d in (5, 12, 19)]
        return [s.timestamp() + 8.5 * i for s in starts for i in range(40)]

    def text(self, stamp):
        lines = ["timestamp,current_a,voltage_v,soc"]
        for k, t in enumerate(self.instants()):
            i = k % 40
            lines.append(f"{stamp(t)},-70.0,{350.0 + i},{20.0 + 1.5 * i}")
        return "\n".join(lines) + "\n"

    def parse(self, tmp_path, name, stamp):
        return ingest.parse_fleet_file(write(tmp_path, name, self.text(stamp)), source_id="v")

    @pytest.mark.parametrize("form, tz", [
        (lambda d: d.isoformat().replace("+00:00", "Z"), UTC),
        (lambda d: d.astimezone(timezone(timedelta(hours=2))).isoformat(), PLUS2),
        (lambda d: d.replace(tzinfo=None).isoformat(), UTC),
    ], ids=["zulu", "offset", "naive"])
    def test_same_segments_and_months_as_epoch_seconds(self, tmp_path, form, tz):
        epoch = self.parse(tmp_path, "epoch.csv", repr)
        iso = self.parse(tmp_path, "iso.csv", lambda t: form(datetime.fromtimestamp(t, self.UTC)))
        assert len(iso) == len(epoch) == 6
        for a, b in zip(iso, epoch):
            assert a.start_timestamp == b.start_timestamp
            assert a.start_timestamp.utcoffset() == tz.utcoffset(None)
            for name, column in segment_columns(a).items():
                assert column.tobytes() == segment_columns(b)[name].tobytes(), name
        assert ingest.monthly_aggregate(iso) == ingest.monthly_aggregate(epoch)
        records, _ = ingest.monthly_aggregate(iso)
        assert [r.month for r in records] == [0, 1]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(parse, *args):
    try:
        return parse(*args)
    except ingest.ParseError as exc:
        return exc


def assert_same_outcome(new, reference):
    """Both raised a ParseError with the same message, or both returned the same bits."""
    if isinstance(reference, ingest.ParseError) or isinstance(new, ingest.ParseError):
        assert type(new) is type(reference), (new, reference)
        assert str(new) == str(reference)
        return
    if isinstance(reference, tuple):  # cycle records and the dropped count
        (new, dropped), (reference, ref_dropped) = new, reference
        assert dropped == ref_dropped
        assert len(new) == len(reference)
        for a, b in zip(new, reference):
            assert a.cycle_index == b.cycle_index
            assert same_bits(a.charge_curve, b.charge_curve)
            assert same_bits(a.measured_capacity, b.measured_capacity)
        return
    assert len(new) == len(reference)
    for a, b in zip(new, reference):
        assert (a.source_id, a.start_timestamp.isoformat()) == (
            b.source_id, b.start_timestamp.isoformat()
        )
        for name in ingest.SEGMENT_COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or same_bits(x, y), name


CYCLE_SCHEMAS = [ingest.CycleSchema(), ingest.CycleSchema(charge=None, current="charge_ah")]


def plain_text(header, row, newline="\n", end="\n", last=None):
    """A header and eight valid rows; ``last``, when given, replaces the final field of the last.

    The ``@example`` files built from it sit at the edges of the bulk route.
    """
    rows = [row(i) for i in range(8)]
    if last is not None:
        rows[-1][-1] = last
    return newline.join([header] + [",".join(fields) for fields in rows]) + end


def lab_text(edit=lambda rows: rows):
    """Three cycles of six rows, two of them at equal times with their own capacities.

    The first row of each cycle leaves its capacity empty, so the measured
    capacity is the first of the two equal-time rows in file order.
    """
    rows = [
        [str(c), str(t), repr(3.5 + 0.1 * i), repr(0.1 * i), "" if t == 0 else repr(0.7 + 0.01 * i)]
        for c in (1, 2, 3) for i, t in enumerate((0, 1, 1, 2, 3, 4))
    ]
    return "\n".join([CYCLE_HEADER] + [",".join(row) for row in edit(rows)]) + "\n"


def fleet_text(edit=lambda rows: rows):
    """Twenty samples in four charging events, with SOC dips."""
    rows = [fleet_row(i) for i in range(20)]
    return "\n".join([FLEET_HEADER] + [",".join(row) for row in edit(rows)]) + "\n"


def setting(row, column, value):
    """An edit that sets one field."""
    def edit(rows):
        rows[row][column] = value
        return rows
    return edit


def inserting(at, line):
    """An edit that inserts a whole line (its fields as one string)."""
    return lambda rows: rows[:at] + [[line]] + rows[at:]


def quoting_header(text):
    """``text`` with every name in its header quoted."""
    header, rest = text.split("\n", 1)
    return ",".join(f'"{name}"' for name in header.split(",")) + "\n" + rest


def with_note(text, at, note):
    """``text`` with an unmapped last column, empty but for ``note`` in data row ``at``."""
    header, *rows = text.splitlines()
    rows = [row + "," + (note if i == at else "") for i, row in enumerate(rows)]
    return "\n".join([header + ",note"] + rows) + "\n"


def blank_row_halfway(text):
    """``text`` with a blank row halfway through its lines."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2] + ["\n"] + lines[len(lines) // 2 :])


def iso_stamped(text):
    """A fleet log with its epoch-second stamps written as ISO-8601 in UTC."""
    header, *rows = text.splitlines()
    for i, row in enumerate(rows):
        seconds, rest = row.split(",", 1)
        rows[i] = datetime.fromtimestamp(float(seconds), timezone.utc).isoformat() + "," + rest
    return "\n".join([header] + rows) + "\n"


def shuffled(rows):
    return [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]


def charging(rows):
    """The charge column read as a current: negated, so that the integrated charge rises."""
    return [r[:3] + [repr(-float(r[3]))] + r[4:] for r in rows]


LAB_CASES = {
    "equal-times-split": (lab_text(), CYCLE_SCHEMAS[0], False),
    "shuffled": (lab_text(shuffled), CYCLE_SCHEMAS[0], False),
    "current-integrated": (lab_text(charging), CYCLE_SCHEMAS[1], False),
    "current-integrated-shuffled": (lab_text(lambda rows: shuffled(charging(rows))), CYCLE_SCHEMAS[1], False),
    "empty-capacity-later": (lab_text(setting(15, 4, "")), CYCLE_SCHEMAS[0], False),
    "no-capacity-after-first-block": (
        lab_text(lambda rows: rows[:3] + [r[:4] + [""] for r in rows[3:]]), CYCLE_SCHEMAS[0], False
    ),
    "outside-window-later": (lab_text(setting(14, 2, "9.9")), CYCLE_SCHEMAS[0], False),
    "quote-later": (lab_text(setting(14, 2, '"3.7"')), CYCLE_SCHEMAS[0], False),
    "blank-row-later": (lab_text(inserting(13, "")), CYCLE_SCHEMAS[0], False),
    "bad-field-later": (lab_text(setting(14, 3, "x")), CYCLE_SCHEMAS[0], True),
    "flagged-row-later": (lab_text(setting(14, 3, "nan")), CYCLE_SCHEMAS[0], True),
    "flagged-row-then-quote": (
        lab_text(lambda rows: setting(16, 2, '"3.7"')(setting(10, 3, "inf")(rows))), CYCLE_SCHEMAS[0], True
    ),
    "charge-falls-across-blocks": (lab_text(setting(16, 3, "0.05")), CYCLE_SCHEMAS[0], True),
    "quoted-header": (quoting_header(lab_text()), CYCLE_SCHEMAS[0], False),
}
FLEET_CASES = {
    "segments-split": (fleet_text(), False),
    "shuffled": (fleet_text(shuffled), False),
    "quote-later": (fleet_text(setting(14, 2, '"350.0"')), False),
    "blank-row-later": (fleet_text(inserting(13, "")), False),
    "iso-stamp-later": (fleet_text(lambda rows: rows[:14] + [fleet_iso_row(14)] + rows[15:]), False),
    "bad-field-later": (fleet_text(setting(14, 1, "x")), True),
    "flagged-row-later": (fleet_text(setting(14, 1, "nan")), True),
    "conflict-across-blocks": (
        fleet_text(lambda rows: rows[:13] + [rows[12][:1] + ["-71.0"] + rows[12][2:]] + rows[13:]), True
    ),
    "quoted-header": (quoting_header(fleet_text()), False),
}
# one line per block, two or three, about five; each case above but the
# quoted header puts its irregular row after the first block, so that csv
# splits a block that follows plain ones, or a later block raises
BLOCK_CHARS = [1, 40, 100]
# an unmapped field over three lines; its first is longer than any block above,
# so that the block holding it ends inside the field
NOTE = '"' + "a note that runs on " * 6 + '\nover three\nlines"'


class TestColumnarMatchesPerRow:
    """The columnar parsers agree with the per-row reference in ``tests/oracles.py``."""

    @given(
        text=st.sampled_from([cycle_row, cycle_row_measured_once]).flatmap(
            lambda row: delimited_file(CYCLE_HEADER, row)
        ),
        schema=st.sampled_from(CYCLE_SCHEMAS),
    )
    @settings(max_examples=300, deadline=None)
    @example(text=plain_text(CYCLE_HEADER, cycle_row, last="nan"), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER, cycle_row, last="inf"), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER, cycle_row, "\n\n", last="nan"), schema=CYCLE_SCHEMAS[0])  # blank lines
    @example(text=plain_text(CYCLE_HEADER, cycle_row, "\r\n", "\r\n"), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER, cycle_row, "\r\n", "\r\n", "nan"), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER, cycle_row, "\r", "\r"), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER, cycle_row, last="\x0c0.74"), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER + ",température", cycle_row), schema=CYCLE_SCHEMAS[0])
    @example(text=plain_text(CYCLE_HEADER, cycle_row, end=""), schema=CYCLE_SCHEMAS[0])
    def test_cycle_files(self, tmp_path_factory, text, schema):
        path = write(tmp_path_factory.mktemp("cycles"), "cycles.csv", text)
        assert_same_outcome(
            outcome(ingest.parse_cycle_file, path, schema),
            outcome(oracles.parse_cycle_file_per_row, path, schema),
        )

    @given(text=st.sampled_from([fleet_row, fleet_iso_row]).flatmap(
        lambda row: delimited_file(FLEET_HEADER, row)
    ))
    @settings(max_examples=300, deadline=None)
    @example(text=plain_text(FLEET_HEADER, fleet_row, last="nan"))
    @example(text=plain_text(FLEET_HEADER, fleet_row, last="inf"))
    @example(text=plain_text(FLEET_HEADER, fleet_row, "\n\n", last="nan"))  # blank lines
    @example(text=plain_text(FLEET_HEADER, fleet_row, "\r\n", "\r\n"))
    @example(text=plain_text(FLEET_HEADER, fleet_row, "\r\n", "\r\n", "nan"))
    @example(text=plain_text(FLEET_HEADER, fleet_row, "\r", "\r"))
    @example(text=plain_text(FLEET_HEADER, fleet_row, last="\x0c25.0"))
    @example(text=plain_text(FLEET_HEADER + ",température", fleet_row))
    @example(text=plain_text(FLEET_HEADER, fleet_row, end=""))
    def test_fleet_files(self, tmp_path_factory, text):
        path = write(tmp_path_factory.mktemp("fleet"), "fleet.csv", text)
        schema = ingest.FleetSchema(temperature="temp_c", gap_threshold_s=15.0)
        assert_same_outcome(
            outcome(ingest.parse_fleet_file, path, schema),
            outcome(oracles.parse_fleet_file_per_row, path, schema),
        )

    @staticmethod
    def assert_stamp_matches(directory, seconds):
        # the second stamp is whole, so the first one's rounding shows in the sample times
        later = float(round(seconds) + 2) if np.isfinite(seconds) else seconds
        text = f"{FLEET_HEADER}\n{seconds!r},-70,350,20,25\n{later!r},-70,350,21,25\n"
        path = write(directory, "stamp.csv", text)
        schema = ingest.FleetSchema(gap_threshold_s=15.0)
        assert_same_outcome(
            outcome(ingest.parse_fleet_file, path, schema),
            outcome(oracles.parse_fleet_file_per_row, path, schema),
        )

    @given(seconds=st.floats(-7e10, 3e11))
    @settings(max_examples=300, deadline=None)
    def test_epoch_seconds_round_as_datetime(self, tmp_path_factory, seconds):
        self.assert_stamp_matches(tmp_path_factory.mktemp("stamp"), seconds)

    # 2**-7 s is 7812.5 us exactly: datetime rounds such halves to even
    @pytest.mark.parametrize("seconds", [
        0.0078125, 1.5e9 + 0.0390625, -0.0078125, 1.5e9 + 0.9999995, -62135596800.0,
        253402300799.0, 253402300799.9999995, -62135596800.5, 1e300, float("nan"),
    ])
    def test_epoch_seconds_at_halves_and_range_ends(self, tmp_path, seconds):
        self.assert_stamp_matches(tmp_path, seconds)

    def test_empty_capacity_field_means_not_measured(self, tmp_path):
        text = (
            f"{CYCLE_HEADER}\n1,1,3.6,0.1,\n1,0,3.5,0.0,\n1,2,3.7,0.2,0.71\n"
            "2,0,3.5,0.0,\n2,1,3.6,0.15,\n"
        )
        path = write(tmp_path, "caps.csv", text)
        records, _ = ingest.parse_cycle_file(path)
        assert [r.measured_capacity for r in records] == [0.71, 0.15]
        assert_same_outcome((records, 0), oracles.parse_cycle_file_per_row(path))

    @pytest.mark.parametrize("capacity", ["nan", "inf", " ", "x"])
    @pytest.mark.parametrize("voltage", ["3.6", "5.0"])  # inside and outside the window
    def test_bad_capacity_among_empty_ones(self, tmp_path, capacity, voltage):
        text = f"{CYCLE_HEADER}\n1,0,3.5,0.0,0.7\n1,1,{voltage},0.1,{capacity}\n1,2,3.7,0.2,\n"
        path = write(tmp_path, "caps.csv", text)
        assert_same_outcome(
            outcome(ingest.parse_cycle_file, path), outcome(oracles.parse_cycle_file_per_row, path)
        )

    def test_generated_logs(self, tmp_path):
        from sohpred import pipeline

        cells = pipeline.synthesize_cycles(pipeline.CycleSynthesisParams(n_cycles=12), 3, tmp_path / "c.csv")
        assert_same_outcome(ingest.parse_cycle_file(cells), oracles.parse_cycle_file_per_row(cells))
        params = pipeline.FleetSynthesisParams(n_vehicles=2, n_months=4, events_per_month=3)
        for path in pipeline.synthesize_fleet(params, 3, tmp_path / "fleet"):
            assert_same_outcome(
                ingest.parse_fleet_file(path), oracles.parse_fleet_file_per_row(path)
            )

    @pytest.mark.parametrize("block", BLOCK_CHARS)
    @pytest.mark.parametrize("case", LAB_CASES)
    def test_cycle_files_in_blocks(self, tmp_path, monkeypatch, block, case):
        text, schema, fails = LAB_CASES[case]
        path = write(tmp_path, "cycles.csv", text)
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
        new = outcome(ingest.parse_cycle_file, path, schema)
        assert_same_outcome(new, outcome(oracles.parse_cycle_file_per_row, path, schema))
        assert isinstance(new, ingest.ParseError) == fails

    @pytest.mark.parametrize("block", BLOCK_CHARS)
    @pytest.mark.parametrize("case", FLEET_CASES)
    def test_fleet_files_in_blocks(self, tmp_path, monkeypatch, block, case):
        text, fails = FLEET_CASES[case]
        path = write(tmp_path, "fleet.csv", text)
        schema = ingest.FleetSchema(temperature="temp_c", gap_threshold_s=15.0)
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
        new = outcome(ingest.parse_fleet_file, path, schema)
        assert_same_outcome(new, outcome(oracles.parse_fleet_file_per_row, path, schema))
        assert isinstance(new, ingest.ParseError) == fails

    @pytest.mark.parametrize("parse, reference, text", [
        (ingest.parse_cycle_file, oracles.parse_cycle_file_per_row, LAB_CASES["flagged-row-later"][0]),
        (ingest.parse_fleet_file, oracles.parse_fleet_file_per_row, FLEET_CASES["flagged-row-later"][0]),
    ], ids=["cycle", "fleet"])
    def test_undecodable_byte_after_a_bad_row(self, tmp_path, monkeypatch, parse, reference, text):
        # the bad row's block is read first, but the file is still reported as unreadable
        path = tmp_path / "bytes.csv"
        path.write_bytes(text.encode() + b"\xff\n")
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", 40)
        new = outcome(parse, path)
        assert_same_outcome(new, outcome(reference, path))
        assert "unreadable file" in str(new)

    @given(text=delimited_file(CYCLE_HEADER, cycle_row_charging))
    @settings(max_examples=150, deadline=None)
    @example(text=plain_text(CYCLE_HEADER, cycle_row_charging))
    def test_cycle_files_integrating_current(self, tmp_path_factory, text):
        path = write(tmp_path_factory.mktemp("cycles"), "cycles.csv", text)
        schema = CYCLE_SCHEMAS[1]
        assert_same_outcome(
            outcome(ingest.parse_cycle_file, path, schema),
            outcome(oracles.parse_cycle_file_per_row, path, schema),
        )

    def test_charging_rows_integrate_to_records(self, tmp_path):
        # so the test above compares records, not only errors, on well-formed files
        path = write(tmp_path, "cycles.csv", plain_text(CYCLE_HEADER, cycle_row_charging))
        records, dropped = ingest.parse_cycle_file(path, CYCLE_SCHEMAS[1])
        assert [r.cycle_index for r in records] == [1, 2] and dropped == 0
        assert all(np.all(np.diff(r.charge_curve[:, 2]) > 0) for r in records)

    @pytest.mark.parametrize("block", BLOCK_CHARS)
    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad-row-later"])
    def test_cycle_file_quoted_field_across_blocks(self, tmp_path, monkeypatch, block, bad):
        text = lab_text(setting(14, 3, "x") if bad else lambda rows: rows)
        path = write(tmp_path, "noted.csv", with_note(text, 8, NOTE))
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
        new = outcome(ingest.parse_cycle_file, path)
        assert_same_outcome(new, outcome(oracles.parse_cycle_file_per_row, path))
        if bad:  # data row 14 is on line 16, and the note adds two
            assert str(new).startswith(f"{path}:18: bad row: could not convert")
        else:
            assert len(new[0]) == 3

    @pytest.mark.parametrize("block", BLOCK_CHARS)
    def test_fleet_file_quoted_field_across_blocks(self, tmp_path, monkeypatch, block):
        # the conflicting row comes after the note, so its line is read from a csv block
        text, _ = FLEET_CASES["conflict-across-blocks"]
        path = write(tmp_path, "noted.csv", with_note(text, 8, NOTE))
        schema = ingest.FleetSchema(temperature="temp_c", gap_threshold_s=15.0)
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
        new = outcome(ingest.parse_fleet_file, path, schema)
        assert_same_outcome(new, outcome(oracles.parse_fleet_file_per_row, path, schema))
        assert str(new).startswith(f"{path}:17: timestamp ")  # line 15, and the note adds two

    @given(
        text=st.sampled_from([cycle_row, cycle_row_measured_once]).flatmap(
            lambda row: delimited_file(CYCLE_HEADER, row)
        ),
        schema=st.sampled_from(CYCLE_SCHEMAS),
        block=st.sampled_from(BLOCK_CHARS),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_cycle_files_in_blocks(self, tmp_path_factory, text, schema, block):
        path = write(tmp_path_factory.mktemp("cycles"), "cycles.csv", text)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            new = outcome(ingest.parse_cycle_file, path, schema)
        assert_same_outcome(new, outcome(oracles.parse_cycle_file_per_row, path, schema))

    @given(
        text=st.sampled_from([fleet_row, fleet_iso_row]).flatmap(
            lambda row: delimited_file(FLEET_HEADER, row)
        ),
        block=st.sampled_from(BLOCK_CHARS),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_fleet_files_in_blocks(self, tmp_path_factory, text, block):
        path = write(tmp_path_factory.mktemp("fleet"), "fleet.csv", text)
        schema = ingest.FleetSchema(temperature="temp_c", gap_threshold_s=15.0)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            new = outcome(ingest.parse_fleet_file, path, schema)
        assert_same_outcome(new, outcome(oracles.parse_fleet_file_per_row, path, schema))


class TestPeakMemory:
    """The block route holds no whole-file string and no list of all the file's lines."""

    def test_cycle_file_under_three_times_its_size(self, tmp_path):
        from sohpred import pipeline

        params = pipeline.CycleSynthesisParams(n_cycles=20)
        path = pipeline.synthesize_cycles(params, 0, tmp_path / "c.csv")
        assert traced_peak(lambda: ingest.parse_cycle_file(path)) < 3 * path.stat().st_size

    def test_fleet_file_under_four_times_its_size(self, tmp_path):
        from sohpred import pipeline

        params = pipeline.FleetSynthesisParams(n_vehicles=1, n_months=4)
        path, = pipeline.synthesize_fleet(params, 0, tmp_path)
        assert traced_peak(lambda: ingest.parse_fleet_file(path)) < 4 * path.stat().st_size

    def test_cycle_file_in_blocks_under_its_size(self, tmp_path):
        # The records keep 3 of a row's 5 fields as float64: 24 bytes of a
        # generated row's ~65, about 0.37x the file, and the pieces they are
        # merged from are the same arrays.  One block's temporaries (its lines
        # as str objects ~1.8x the block, their joined text 1x, the converted
        # values and masks ~0.7x) come to about 0.23 MB, 0.2x this 1.08 MB
        # file.  That is about 0.6x; whole-file reading peaked at 1.8x.
        from sohpred import pipeline

        params = pipeline.CycleSynthesisParams(n_cycles=20)
        path = pipeline.synthesize_cycles(params, 0, tmp_path / "c.csv")
        assert path.stat().st_size >= 8 * ingest._BLOCK_CHARS
        assert traced_peak(lambda: ingest.parse_cycle_file(path)) < 1.0 * path.stat().st_size

    def test_fleet_file_under_two_and_a_half_times_its_size(self, tmp_path):
        # Once the blocks are joined, a sample holds four float64 columns
        # (32 bytes), its microseconds, order, event and time (8 bytes each),
        # and, while the SOC dips are found, a sorted SOC copy, its rank and
        # level (24 bytes): about 1.6x a generated row of ~55 bytes, as
        # measured.  Keeping the timestamp column and the table's masks to
        # the end, as whole-file reading did, peaked at 3.0x.
        from sohpred import pipeline

        params = pipeline.FleetSynthesisParams(n_vehicles=1, n_months=4)
        path, = pipeline.synthesize_fleet(params, 0, tmp_path)
        assert traced_peak(lambda: ingest.parse_fleet_file(path)) < 2.5 * path.stat().st_size

    # An irregular line used to send the whole file to a csv route that read it
    # at once, which peaked at 10.0x this lab file and 10.6x this fleet log.
    # Now only the block that holds the line goes through csv, and the bounds
    # of the plain files above hold.  A block's lines are kept while its rows
    # are checked (about 0.12 MB), so the plain lab file reads 0.70x.  A block
    # that csv splits converts its mapped fields every _SLICE_ROWS rows; held
    # as str objects for the whole block, they came to about 7x the block's
    # 64 KiB at their peak, and the blank-row file read 0.98x.

    @pytest.mark.parametrize("edit", [quoting_header, blank_row_halfway], ids=["quoted-header", "blank-row"])
    def test_irregular_cycle_file_in_blocks_under_its_size(self, tmp_path, edit):
        from sohpred import pipeline

        params = pipeline.CycleSynthesisParams(n_cycles=20)
        path = pipeline.synthesize_cycles(params, 0, tmp_path / "c.csv")
        path.write_text(edit(path.read_text()))
        assert path.stat().st_size >= 8 * ingest._BLOCK_CHARS
        assert traced_peak(lambda: ingest.parse_cycle_file(path)) < 1.0 * path.stat().st_size

    def test_csv_split_block_holds_a_slice_of_fields(self, tmp_path):
        # A mapped field held as str is a ~50-byte object plus its ~13
        # characters and an 8-byte list slot: ~71 bytes, 5 a row.  A slice of
        # 256 rows holds ~91 KB of them, 0.08x this 1.08 MB file, on top of
        # the plain file's 0.70x: about 0.78x, and 0.75x was measured.  The
        # whole block's ~1000 rows held at once read 0.98x.
        from sohpred import pipeline

        params = pipeline.CycleSynthesisParams(n_cycles=20)
        path = pipeline.synthesize_cycles(params, 0, tmp_path / "c.csv")
        path.write_text(blank_row_halfway(path.read_text()))
        assert traced_peak(lambda: ingest.parse_cycle_file(path)) < 0.85 * path.stat().st_size

    @pytest.mark.parametrize("edit, bound", [
        (quoting_header, 2.5),
        # Every ISO stamp is parsed into a datetime (48 bytes) that is kept,
        # keyed by its line as an int64 (32 bytes), in its block's dict and
        # then in the joined one (at most ~64 bytes an entry each, with the
        # free slots a dict keeps) until the segments are built: ~210 bytes
        # on top of a plain log's ~90 bytes of arrays a sample, 4.4x an ISO
        # row of ~68 bytes.  3.7x was measured; whole-file reading peaked at
        # 10.9x.
        (iso_stamped, 4.5),
    ], ids=["quoted-header", "iso-stamps"])
    def test_irregular_fleet_file_in_blocks(self, tmp_path, edit, bound):
        from sohpred import pipeline

        params = pipeline.FleetSynthesisParams(n_vehicles=1, n_months=4)
        path, = pipeline.synthesize_fleet(params, 0, tmp_path)
        path.write_text(edit(path.read_text()))
        assert path.stat().st_size >= 8 * ingest._BLOCK_CHARS
        assert traced_peak(lambda: ingest.parse_fleet_file(path)) < bound * path.stat().st_size

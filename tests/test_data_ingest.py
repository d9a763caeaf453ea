"""Ingestion, scaling, and splitting behavior."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fiscalforge.data_ingest import (
    chrono_split,
    fit_scaler,
    load_series,
)
from fiscalforge.errors import DataError

from conftest import make_series


def _write_csv(tmp_path, rows, header="period,rnd,sga,net_income"):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


WELL_FORMED = [
    "2020-Q1,10,5,100",
    "2020-Q2,20,6,-50",
    "2020-Q3,30,7,80",
    "2020-Q4,40,8,90",
]


class TestLoadSeries:
    def test_parse_identity(self, tmp_path):
        series = load_series(_write_csv(tmp_path, WELL_FORMED))
        assert len(series) == 4
        assert series.dropped_rows == 0
        assert series.periods[0] == "2020-Q1"
        assert series.values.dtype == np.float64
        assert series.values[0].tolist() == [10.0, 5.0, 100.0]
        assert not series.values.flags.writeable

    def test_blank_cell_dropped_and_counted(self, tmp_path):
        rows = WELL_FORMED + ["2021-Q1,50,9,"]
        series = load_series(_write_csv(tmp_path, rows))
        assert len(series) == 4
        assert series.dropped_rows == 1

    def test_duplicate_period_rejected(self, tmp_path):
        rows = WELL_FORMED + ["2020-Q1,50,9,10"]
        with pytest.raises(DataError, match="duplicate"):
            load_series(_write_csv(tmp_path, rows))

    def test_non_numeric_rejected(self, tmp_path):
        rows = WELL_FORMED[:3] + ["2020-Q4,forty,8,90"]
        with pytest.raises(DataError, match="non-numeric"):
            load_series(_write_csv(tmp_path, rows))

    def test_bad_period_label_rejected(self, tmp_path):
        rows = WELL_FORMED[:3] + ["2020Q4,40,8,90"]
        with pytest.raises(DataError):
            load_series(_write_csv(tmp_path, rows))

    def test_too_few_rows(self, tmp_path):
        with pytest.raises(DataError, match="valid rows"):
            load_series(_write_csv(tmp_path, WELL_FORMED[:3]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_series(tmp_path / "nope.csv")

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_series(_write_csv(tmp_path, WELL_FORMED, header="a,b,c,d"))

    def test_utf8_bom_accepted(self, tmp_path):
        """Excel's "CSV UTF-8" export starts the file with a byte order mark."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _write_csv(tmp_path, WELL_FORMED).read_bytes())
        series = load_series(path)
        assert series.periods[0] == "2020-Q1"
        assert series.values[0].tolist() == [10.0, 5.0, 100.0]

    def test_rows_sorted_chronologically(self, tmp_path):
        shuffled = [WELL_FORMED[2], WELL_FORMED[0], WELL_FORMED[3], WELL_FORMED[1]]
        series = load_series(_write_csv(tmp_path, shuffled))
        assert series.periods == ("2020-Q1", "2020-Q2", "2020-Q3", "2020-Q4")
        assert series.values[:, 0].tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_negative_expense_rejected(self, tmp_path):
        rows = WELL_FORMED[:3] + ["2020-Q4,-1,8,90"]
        with pytest.raises(DataError, match="negative"):
            load_series(_write_csv(tmp_path, rows))

    def test_zero_expense_total_rejected(self, tmp_path):
        rows = WELL_FORMED[:3] + ["2020-Q4,0,0,90"]
        with pytest.raises(DataError):
            load_series(_write_csv(tmp_path, rows))

    def test_overflowing_expense_total_rejected(self, tmp_path):
        """Two finite cells whose sum is inf give no share to allocate against."""
        rows = WELL_FORMED[:3] + ["2020-Q4,1e308,1e308,90"]
        with pytest.raises(DataError, match="finite"):
            load_series(_write_csv(tmp_path, rows))


class TestFitScaler:
    def test_extrema(self):
        series = make_series([(10, 1, 0), (20, 2, 1), (30, 3, 2), (15, 4, 3)])
        params = fit_scaler(series)
        assert (params.low[0], params.high[0]) == (10.0, 30.0)

    def test_extrema_with_negatives(self):
        series = make_series([(1, 1, -2), (2, 2, 0), (3, 3, 6), (4, 4, 1)])
        params = fit_scaler(series)
        assert (params.low[2], params.high[2]) == (-2.0, 6.0)

    def test_constant_column_rejected(self):
        series = make_series([(5, 1, 0), (5, 2, 1), (5, 3, 2), (5, 4, 3)])
        with pytest.raises(DataError, match="constant"):
            fit_scaler(series)


class TestApplyScaler:
    """Scaling through ScalerParams.scale, the pipeline's one scaling path."""

    @pytest.fixture()
    def scaled_setup(self):
        series = make_series([(10, 1, -2), (20, 2, 0), (30, 3, 6), (25, 4, 1)])
        params = fit_scaler(series)
        return series, params, params.scale(series.values)[:, 0].tolist()

    def test_bounds_map_to_unit_interval(self, scaled_setup):
        """min -> 0, max -> 1 for every feature of the fit segment."""
        _, _, rnd = scaled_setup
        assert min(rnd) == pytest.approx(0.0, abs=1e-15)
        assert max(rnd) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint(self, scaled_setup):
        series, params, _ = scaled_setup
        assert params.scale(np.array([20.0, 2.5, 2.0])).tolist() == pytest.approx([0.5] * 3)

    def test_out_of_fit_values_not_clipped(self, scaled_setup):
        _, params, _ = scaled_setup
        assert params.scale(np.array([40.0, 5.0, 7.0])).min() > 1.0
        assert params.scale(np.array([0.0, 0.0, -3.0])).max() < 0.0

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 3), min_size=2, max_size=12))
    def test_scaling_is_order_preserving(self, rows):
        """fit_scaler(series).scale(series.values) on random series.

        Each cell equals the per-cell formula (v - lo) / (hi - lo) bit
        for bit, each column's min maps to 0 and max to 1, and each
        column's order is preserved (ties may appear, never inversions).
        """
        series = make_series(rows)
        columns = list(zip(*rows))
        assume(all(min(col) < max(col) for col in columns))
        params = fit_scaler(series)
        lows, highs = params.low.tolist(), params.high.tolist()
        assert lows == [min(col) for col in columns]
        assert highs == [max(col) for col in columns]

        scaled = params.scale(series.values)
        expected = [[(v - lo) / (hi - lo) for v, lo, hi in zip(row, lows, highs)] for row in rows]
        assert scaled.tobytes() == np.array(expected).tobytes()
        for col, out in zip(columns, scaled.T):
            assert (out.min(), out.max()) == (0.0, 1.0)
            assert np.all(np.diff(out[np.argsort(col, kind="stable")]) >= 0.0)


class TestChronoSplit:
    def test_ten_eighty(self):
        series = make_series([(i + 1, 1, 0) for i in range(10)])
        train, test = chrono_split(series, 0.8)
        assert (len(train), len(test)) == (8, 2)

    def test_sixty_five_eighty(self):
        series = make_series([(i + 1, 1, 0) for i in range(65)])
        train, test = chrono_split(series, 0.8)
        assert (len(train), len(test)) == (52, 13)

    def test_partition(self):
        """Concatenating the splits reproduces the input exactly."""
        series = make_series([(i + 1, 2, 3) for i in range(9)])
        train, test = chrono_split(series, 0.6)
        assert train.periods + test.periods == series.periods
        assert np.concatenate([train.values, test.values]).tobytes() == series.values.tobytes()

    def test_empty_train_rejected(self):
        series = make_series([(i + 1, 1, 0) for i in range(4)])
        with pytest.raises(DataError, match="empty train"):
            chrono_split(series, 0.2)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_out_of_range(self, fraction):
        series = make_series([(i + 1, 1, 0) for i in range(6)])
        with pytest.raises(DataError):
            chrono_split(series, fraction)

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            chrono_split(make_series([(1, 1, 0), (2, 1, 0)]), 0.5)

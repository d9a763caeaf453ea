"""Quarterly financial CSV ingestion, min-max scaling, chronological split.

Input format: UTF-8 CSV with header ``period,rnd,sga,net_income``, one
row per quarter, periods written ``YYYY-Q[1-4]``, amounts in million
USD. Rows with any empty field are dropped and counted; anything else
malformed is an error.

A series is its sorted period labels and one read-only (n, 3) float64
array of [rnd, sga, net_income] rows. The scaler is fit on whatever
series it is given and scales a whole array of such rows at once
(``ScalerParams.scale``). The pipeline fits it on the training split
only and applies it to both splits, so test-split values may fall
outside [0, 1]; they are deliberately not clipped.
"""

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "FinancialSeries",
    "ScalerParams",
    "load_series",
    "fit_scaler",
    "chrono_split",
]

_PERIOD_RE = re.compile(r"^(\d{4})-Q([1-4])$")
FEATURES = ("rnd", "sga", "net_income")
EXPECTED_HEADER = ["period", "rnd", "sga", "net_income"]
MIN_ROWS = 4


def period_key(period: str) -> tuple[int, int]:
    """Sortable (year, quarter) key; raises DataError on bad labels."""
    m = _PERIOD_RE.match(period)
    if m is None:
        raise DataError(f"period {period!r} does not match YYYY-Q[1-4]")
    return int(m.group(1)), int(m.group(2))


@dataclass(frozen=True, eq=False)
class FinancialSeries:
    """Chronologically ordered quarters: row i of ``values`` is ``periods[i]``.

    ``values`` is a read-only (n, 3) float64 copy laid out
    [rnd, sga, net_income]. ``dropped_rows`` counts rows discarded at
    load time because of empty fields; derived series (the splits)
    carry 0.
    """

    periods: tuple[str, ...]
    values: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64).reshape(len(self.periods), 3)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.periods)


def load_series(path: str | Path) -> FinancialSeries:
    """Parse, validate, and chronologically sort a quarterly CSV."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc

    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(EXPECTED_HEADER)}, got {','.join(header)}"
        )

    valid: dict[str, tuple[float, float, float]] = {}
    dropped = 0
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        if any(not cell.strip() for cell in row):
            dropped += 1
            continue
        period = row[0].strip()
        period_key(period)
        if period in valid:
            raise DataError(f"{path}:{lineno}: duplicate period {period!r}")
        try:
            rnd, sga, net = (float(cell) for cell in row[1:])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        if not all(math.isfinite(v) for v in (rnd, sga, net)):
            raise DataError(f"{path}:{lineno}: non-finite value")
        if rnd < 0 or sga < 0:
            raise DataError(f"{path}:{lineno}: negative expense")
        if not 0 < rnd + sga < math.inf:
            raise DataError(f"{path}:{lineno}: rnd + sga must be positive and finite")
        valid[period] = (rnd, sga, net)

    if len(valid) < MIN_ROWS:
        raise DataError(
            f"{path}: only {len(valid)} valid rows, need at least {MIN_ROWS}"
        )
    periods = tuple(sorted(valid, key=period_key))
    return FinancialSeries(periods, [valid[p] for p in periods], dropped_rows=dropped)


@dataclass(frozen=True, eq=False)
class ScalerParams:
    """Per-feature (3,) min/max bounds, all guaranteed non-degenerate."""

    low: np.ndarray
    high: np.ndarray

    def scale(self, values: np.ndarray) -> np.ndarray:
        """Min-max scale (..., 3) rows laid out as FinancialSeries.values."""
        return (values - self.low) / (self.high - self.low)


def fit_scaler(series: FinancialSeries) -> ScalerParams:
    """Compute per-feature extrema over the given (fit) segment."""
    if len(series) == 0:
        raise DataError("cannot fit a scaler on an empty series")
    low, high = series.values.min(0), series.values.max(0)
    for feat, lo, hi in zip(FEATURES, low.tolist(), high.tolist()):
        if hi <= lo:
            raise DataError(f"feature {feat!r} is constant ({lo}); cannot min-max scale")
    return ScalerParams(low, high)


def chrono_split(
    series: FinancialSeries, train_fraction: float
) -> tuple[FinancialSeries, FinancialSeries]:
    """Split into leading train and trailing test segments, order preserved."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = len(series)
    if n < MIN_ROWS:
        raise DataError(f"series too short to split: {n} < {MIN_ROWS}")
    n_train = math.floor(train_fraction * n)
    if n_train == 0:
        raise DataError(f"train_fraction {train_fraction} leaves an empty train split")
    if n_train >= n:
        raise DataError(f"train_fraction {train_fraction} leaves an empty test split")
    return (
        FinancialSeries(series.periods[:n_train], series.values[:n_train]),
        FinancialSeries(series.periods[n_train:], series.values[n_train:]),
    )

"""Quarterly financial CSV ingestion, min-max scaling, chronological split.

Input format: UTF-8 CSV with header ``period,rnd,sga,net_income``, one
row per quarter, periods written ``YYYY-Q[1-4]``, amounts in million
USD. Rows with any empty field are dropped and counted; anything else
malformed is an error.

The scaler is fit on whatever series it is given and scales one value
at a time (``ScalerParams.scale_value``). The pipeline fits it on the
training split only and applies it to both splits, so test-split
values may fall outside [0, 1]; they are deliberately not clipped.
"""

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import DataError

__all__ = [
    "QuarterRecord",
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


@dataclass(frozen=True)
class QuarterRecord:
    period: str
    rnd: float
    sga: float
    net_income: float


@dataclass(frozen=True)
class FinancialSeries:
    """Chronologically ordered quarter records.

    ``dropped_rows`` counts rows discarded at load time because of
    empty fields; derived series (the splits) carry 0.
    """

    records: tuple[QuarterRecord, ...]
    dropped_rows: int = field(default=0, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QuarterRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> QuarterRecord:
        return self.records[idx]


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

    records: list[QuarterRecord] = []
    seen: set[str] = set()
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
        if period in seen:
            raise DataError(f"{path}:{lineno}: duplicate period {period!r}")
        seen.add(period)
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
        records.append(QuarterRecord(period, rnd, sga, net))

    if len(records) < MIN_ROWS:
        raise DataError(
            f"{path}: only {len(records)} valid rows, need at least {MIN_ROWS}"
        )
    records.sort(key=lambda r: period_key(r.period))
    return FinancialSeries(tuple(records), dropped_rows=dropped)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max bounds, all guaranteed non-degenerate."""

    bounds: dict[str, tuple[float, float]]

    def scale_value(self, feature: str, value: float) -> float:
        lo, hi = self.bounds[feature]
        return (value - lo) / (hi - lo)


def fit_scaler(series: FinancialSeries) -> ScalerParams:
    """Compute per-feature extrema over the given (fit) segment."""
    if len(series) == 0:
        raise DataError("cannot fit a scaler on an empty series")
    bounds: dict[str, tuple[float, float]] = {}
    for feat in FEATURES:
        values = [getattr(rec, feat) for rec in series]
        lo, hi = min(values), max(values)
        if hi <= lo:
            raise DataError(f"feature {feat!r} is constant ({lo}); cannot min-max scale")
        bounds[feat] = (lo, hi)
    return ScalerParams(bounds)


def chrono_split(
    series: FinancialSeries, train_fraction: float
) -> tuple[FinancialSeries, FinancialSeries]:
    """Split into leading train and trailing test segments, order preserved."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = len(series)
    if n < 4:
        raise DataError(f"series too short to split: {n} < 4")
    n_train = math.floor(train_fraction * n)
    if n_train == 0:
        raise DataError(f"train_fraction {train_fraction} leaves an empty train split")
    if n_train >= n:
        raise DataError(f"train_fraction {train_fraction} leaves an empty test split")
    return (
        FinancialSeries(series.records[:n_train]),
        FinancialSeries(series.records[n_train:]),
    )

"""Cohort schema, exclusion filters, target construction and synthetic cohorts.

The registry schema carries one field per model-input column plus the raw
dates and auxiliary codes the exclusion filters need. Dataset-specific
codes (resident state, morphology) are configuration, not constants, so
the pipeline runs on any registry extract with a compatible layout.
"""

from __future__ import annotations

import csv
import datetime as dt
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import DataError

__all__ = [
    "RawRecord",
    "SurvivalTarget",
    "ColumnSpec",
    "Cohort",
    "FilterRules",
    "FilterReport",
    "ingest_csv",
    "apply_filters",
    "categorize_interval",
    "build_targets",
    "synth_cohort",
    "INTERVAL_CATEGORIES",
    "DAYS_PER_MONTH",
    "read_cohort_csv",
    "write_cohort_csv",
    "atomic_write",
]

# mean Gregorian month; continuous-valued to avoid tie inflation
DAYS_PER_MONTH = 30.4375

# ordinal order for treatment-interval categories
INTERVAL_CATEGORIES = ("<=60", "61-90", ">90", "untreated")


class SurvivalTarget(NamedTuple):
    """Per-subject label: follow-up time in months and death indicator."""

    time: float
    event: int


@dataclass
class RawRecord:
    """One registry row: model-input codes, raw dates and filter fields."""

    # model-input columns (integer/string codes; age in integer years)
    institution: str | None = None        # INSTITU
    education: str | None = None          # ESCOLARI
    age: int | None = None                # IDADE
    sex: str | None = None                # SEXO
    residence_city: str | None = None     # IBGE
    care_category: str | None = None      # CATEATEND
    prior_diagnosis: str | None = None    # DIAGPREV
    topography: str | None = None         # TOPO
    staging: str | None = None            # EC
    diagnosis_year: int | None = None     # ANODIAG
    health_region: str | None = None      # DRS
    treatment_city: str | None = None     # IBGEATEN
    hospital_qualification: str | None = None  # HABILIT2
    hospital_region: str | None = None    # DRS_INST
    # raw dates
    diagnosis_date: dt.date | None = None
    consultation_date: dt.date | None = None
    treatment_date: dt.date | None = None     # optional: missing = untreated
    last_info_date: dt.date | None = None
    # outcome and auxiliary filter fields
    vital_status: str | None = None
    morphology: str | None = None
    residence_state: str | None = None
    microscopic_confirmation: str | None = None
    bone_marrow_transplant: str | None = None


@dataclass(frozen=True)
class ColumnSpec:
    """Feature-column metadata: name, kind and category order if ordinal."""

    name: str
    kind: str  # "numeric" or "ordinal"
    categories: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("numeric", "ordinal"):
            raise DataError(f"unknown column kind {self.kind!r}")


@dataclass
class Cohort:
    """Feature matrix plus survival targets and optional sample weights.

    ``features`` may hold raw category values (object dtype) before
    encoding; after encoding every entry is a finite float.
    """

    features: np.ndarray
    columns: list[ColumnSpec]
    time: np.ndarray
    event: np.ndarray
    weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features)
        self.time = np.asarray(self.time, dtype=float)
        self.event = np.asarray(self.event, dtype=int)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if len(self.columns) != self.features.shape[1]:
            raise DataError("column metadata does not match feature width")
        if self.time.shape != (n,) or self.event.shape != (n,):
            raise DataError("targets must match the number of rows")
        if np.any(np.isnan(self.time)):
            raise DataError("times must not be NaN")
        if np.any(self.time < 0):
            raise DataError("times must be nonnegative")
        if np.any(self.time == np.inf):
            raise DataError("times must be finite")
        if not np.all((self.event == 0) | (self.event == 1)):
            raise DataError("event indicator must be 0 or 1")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (n,):
                raise DataError("weights must match the number of rows")
            if not np.all(np.isfinite(self.weights)):
                raise DataError("weights must be finite")
            if np.any(self.weights < 0) or (n and not np.any(self.weights > 0)):
                raise DataError("weights must be nonnegative and not all zero")
        if np.issubdtype(self.features.dtype, np.floating):
            if not np.all(np.isfinite(self.features)):
                raise DataError("encoded features must be finite")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def targets(self) -> list[SurvivalTarget]:
        return [SurvivalTarget(float(t), int(e))
                for t, e in zip(self.time, self.event)]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def subset(self, idx) -> "Cohort":
        idx = np.asarray(idx)
        return Cohort(
            features=self.features[idx],
            columns=self.columns,
            time=self.time[idx],
            event=self.event[idx],
            weights=None if self.weights is None else self.weights[idx],
            meta=dict(self.meta),
        )


@dataclass
class FilterRules:
    """Which exclusions are active, plus the dataset-specific codes.

    Attribution order is fixed: age, residency, staging, confirmation,
    transplant, morphology. A removed record is counted once, under the
    first active rule that rejects it. ``None`` switches a rule off, and
    so do empty staging or transplant codes, which reject nothing.
    """

    min_age: int | None = 20
    resident_state: str | None = "SP"
    undefined_staging_codes: tuple = ("X", "Y", "0", "")
    confirmation_positive_codes: tuple | None = ("1",)
    transplant_positive_codes: tuple = ("1", "S")
    morphology_code: str | None = "8140/3"

    RULE_ORDER = (
        "age_below_minimum",
        "non_resident",
        "undefined_or_in_situ_staging",
        "no_microscopic_confirmation",
        "bone_marrow_transplant",
        "morphology_mismatch",
    )


@dataclass
class FilterReport:
    """Removal counts per exclusion rule with initial and final row counts."""

    initial: int
    removed: dict[str, int]
    final: int

    def __post_init__(self):
        if self.initial - sum(self.removed.values()) != self.final:
            raise DataError("filter report counts do not reconcile")

    def to_dict(self) -> dict:
        return {"initial": self.initial, "removed": dict(self.removed),
                "final": self.final}


_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y", "%Y%m%d")


def _parse_date(text: str) -> dt.date | None:
    for fmt in _DATE_FORMATS:
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def _parse_cell(field_name: str, text: str):
    """Parse one CSV cell for a RawRecord field; unparseable -> None."""
    text = text.strip()
    if text == "":
        return None
    if field_name.endswith("_date"):
        return _parse_date(text)
    if field_name in ("age", "diagnosis_year"):
        try:
            value = int(float(text))
        except ValueError:
            return None
        return value if value >= 0 else None  # negative codes are missing
    return text


def ingest_csv(path, schema: dict[str, str]) -> list[RawRecord]:
    """Read a registry CSV into RawRecords.

    ``schema`` maps RawRecord field names to CSV column names. Unparseable
    cells become missing values; structural problems (missing file, missing
    mapped column, zero data rows) raise DataError.
    """
    known = {f.name for f in fields(RawRecord)}
    for key in schema:
        if key not in known:
            raise DataError(f"schema maps unknown field {key!r}")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for key, col in schema.items():
            if col not in header:
                raise DataError(f"missing column {col!r} (mapped to {key!r})")
        records = []
        for row in reader:
            rec = RawRecord(**{key: _parse_cell(key, row[col] or "")
                               for key, col in schema.items()})
            records.append(rec)
    if not records:
        raise DataError(f"{path} has no data rows")
    return records


def _first_rejecting_rule(rec: RawRecord, rules: FilterRules) -> str | None:
    if rules.min_age is not None:
        if rec.age is None or rec.age < rules.min_age:
            return "age_below_minimum"
    if rules.resident_state is not None:
        if rec.residence_state != rules.resident_state:
            return "non_resident"
    staging = "" if rec.staging is None else str(rec.staging)
    if staging in rules.undefined_staging_codes:
        return "undefined_or_in_situ_staging"
    if rules.confirmation_positive_codes is not None:
        if rec.microscopic_confirmation not in rules.confirmation_positive_codes:
            return "no_microscopic_confirmation"
    if rec.bone_marrow_transplant in rules.transplant_positive_codes:
        return "bone_marrow_transplant"
    if rules.morphology_code is not None:
        if rec.morphology != rules.morphology_code:
            return "morphology_mismatch"
    return None


def apply_filters(records: list[RawRecord],
                  rules: FilterRules) -> tuple[list[RawRecord], FilterReport]:
    """Drop records failing any active exclusion rule.

    Each removal is attributed to the first rule (in FilterRules.RULE_ORDER)
    that rejects the record. Idempotent: survivors pass every active rule.
    """
    removed = {name: 0 for name in FilterRules.RULE_ORDER}
    kept = []
    for rec in records:
        rule = _first_rejecting_rule(rec, rules)
        if rule is None:
            kept.append(rec)
        else:
            removed[rule] += 1
    return kept, FilterReport(initial=len(records), removed=removed,
                              final=len(kept))


def categorize_interval(days: int | None) -> str:
    """Bin a treatment-delay interval in days.

    Missing means no treatment was started. Bins: 0-60, 61-90, 91+ days.
    """
    if days is None:
        return "untreated"
    if days < 0:
        raise DataError("treatment precedes reference date")
    if days <= 60:
        return "<=60"
    if days <= 90:
        return "61-90"
    return ">90"


def build_targets(records: list[RawRecord], days_per_month: float = DAYS_PER_MONTH,
                  death_codes: tuple = ("1",)) -> list[SurvivalTarget]:
    """Derive (time in months, death indicator) from dates and vital status."""
    if not (0 < days_per_month < np.inf):
        raise DataError("days_per_month must be finite and positive")
    targets = []
    for i, rec in enumerate(records):
        if rec.diagnosis_date is None or rec.last_info_date is None:
            raise DataError(f"record {i}: missing diagnosis or last-info date")
        days = (rec.last_info_date - rec.diagnosis_date).days
        if days < 0:
            raise DataError(f"record {i}: last-information date precedes diagnosis")
        event = 1 if rec.vital_status in death_codes else 0
        targets.append(SurvivalTarget(days / days_per_month, event))
    return targets


def _calibrate_censoring_rate(latent_times: np.ndarray, censor_rate: float) -> float:
    """Exponential censoring rate giving the requested expected censored fraction.

    Solves mean(1 - exp(-lam * T)) = censor_rate by bisection on the drawn
    latent event times.
    """
    def frac(lam):
        return float(np.mean(-np.expm1(-lam * latent_times)))

    lo, hi = 1e-12, 1.0
    while frac(hi) < censor_rate and hi < 1e12:
        hi *= 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if frac(mid) < censor_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synth_cohort(n: int, d: int, model: str = "ph", beta=None,
                 censor_rate: float = 0.0, seed: int = 0) -> Cohort:
    """Generate a synthetic cohort with a known linear predictor.

    Features are i.i.d. standard normal. In "ph" mode event times are
    exponential with rate exp(beta @ x); in "aft" mode log event time is
    -beta @ x plus N(0, 1) noise, so in both modes a higher linear predictor
    means earlier events. Censoring is independent exponential, calibrated
    so the expected censored fraction matches ``censor_rate``.

    The returned cohort's ``meta`` keeps the oracle: the true linear
    predictor and the latent (uncensored) event times.
    """
    if n < 1 or d < 1:
        raise DataError("n and d must be at least 1")
    if not 0.0 <= censor_rate < 1.0:
        raise DataError("censor_rate must lie in [0, 1)")
    if model not in ("ph", "aft"):
        raise DataError(f"unknown generator model {model!r}")
    beta = np.zeros(d) if beta is None else np.asarray(beta, dtype=float)
    if beta.shape != (d,):
        raise DataError("beta must have length d")

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    eta = X @ beta
    if model == "ph":
        latent = rng.exponential(1.0, size=n) / np.exp(eta)
    else:
        latent = np.exp(-eta + rng.standard_normal(n))

    if censor_rate == 0.0:
        time, event = latent.copy(), np.ones(n, dtype=int)
    else:
        lam = _calibrate_censoring_rate(latent, censor_rate)
        cens = rng.exponential(1.0 / lam, size=n)
        time = np.minimum(latent, cens)
        event = (latent <= cens).astype(int)

    columns = [ColumnSpec(f"x{j}", "numeric") for j in range(d)]
    return Cohort(features=X, columns=columns, time=time, event=event,
                  meta={"linear_predictor": eta, "latent_time": latent,
                        "beta": beta, "model": model, "seed": seed})


@contextmanager
def atomic_write(path):
    """UTF-8 text handle on ``<path>.tmp``, moved over ``path`` when the
    block ends; if it raises, the temporary file is removed instead."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_cohort_csv(cohort: Cohort, path) -> None:
    """Write an encoded cohort as CSV: feature columns, time, event[, weight]."""
    header = cohort.column_names() + ["time", "event"]
    cols = [*cohort.features.T, cohort.time, cohort.event]
    if cohort.weights is not None:
        header, cols = header + ["weight"], cols + [cohort.weights]
    cells = [list(map(repr, col.tolist())) if col.dtype.kind == "f" else
             [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
              for v in col.tolist()] for col in cols]
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def read_cohort_csv(path, ordinal=()) -> Cohort:
    """Read a cohort written by write_cohort_csv.

    Every feature column is numeric except those named in ``ordinal``.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise DataError(f"{path} is empty")
        rows = list(reader)
    if not rows:
        raise DataError(f"{path} has no data rows")
    has_w = header[-1] == "weight"
    n_meta = 3 if has_w else 2
    feat_names = header[:-n_meta]
    if (len(header) < n_meta or header[len(feat_names)] != "time"
            or header[len(feat_names) + 1] != "event"):
        raise DataError(f"{path}: expected trailing time,event[,weight] columns")
    columns = [ColumnSpec(name, "ordinal" if name in ordinal else "numeric")
               for name in feat_names]
    numeric = all(c.kind == "numeric" for c in columns)
    raw = [r[:len(feat_names)] for r in rows]
    try:
        features = (np.asarray(raw, dtype=float) if numeric
                    else np.asarray(raw, dtype=object))
        time = np.asarray([float(r[len(feat_names)]) for r in rows])
        event = np.asarray([int(r[len(feat_names) + 1]) for r in rows])
        weights = (np.asarray([float(r[-1]) for r in rows]) if has_w else None)
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: unparseable cell ({exc})") from None
    return Cohort(features=features, columns=columns, time=time, event=event,
                  weights=weights)

"""Command-line orchestration.

Verbs: prep, synth, hpo, train-eval, explain. Configuration is a flat
key-value text file; command-line flags override config keys. All
randomness flows from one master seed through labeled derivation, and
every output is written atomically with deterministic content (no
timestamps), so reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import multiprocessing
import os
import sys
import threading
import time as _time
import traceback
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import models as M
from .data import (DAYS_PER_MONTH, INTERVAL_CATEGORIES, Cohort, ColumnSpec,
                   FilterRules, apply_filters, build_targets,
                   categorize_interval, atomic_write, ingest_csv,
                   read_cohort_csv, synth_cohort, write_cohort_csv)
from .errors import ConfigError, DataError, SurvKitError, TrainingError
from .estimators import censoring_survival, kaplan_meier
from .explain import (EXACT_MAX_FEATURES, _at_least_one,
                      global_attribution, permutation_importance)
from .hpo import ParamSpec, Study, run_study
from .metrics import (default_time_grid, harrell_c, ibs, ipcw_c, td_auc)
from .preprocess import fit_encoder, split, transform
from .seeding import derive_seed

log = logging.getLogger("survkit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

# metrics.grid_resolution at most: a survival matrix holds test rows x
# resolution floats
MAX_GRID_RESOLUTION = 10_000

# RawRecord field -> default registry column name
DEFAULT_SCHEMA = {
    "institution": "INSTITU", "education": "ESCOLARI", "age": "IDADE",
    "sex": "SEXO", "residence_city": "IBGE", "care_category": "CATEATEND",
    "prior_diagnosis": "DIAGPREV", "topography": "TOPO", "staging": "EC",
    "diagnosis_year": "ANODIAG", "health_region": "DRS",
    "treatment_city": "IBGEATEN", "hospital_qualification": "HABILIT2",
    "hospital_region": "DRS_INST",
    "diagnosis_date": "DTDIAG", "consultation_date": "DTCONSULT",
    "treatment_date": "DTTRAT", "last_info_date": "DTULTINFO",
    "vital_status": "ULTINFO", "morphology": "MORFO",
    "residence_state": "UF", "microscopic_confirmation": "BASEDIAG",
    "bone_marrow_transplant": "TMO",
}

NUMERIC_FEATURES = ("age", "diagnosis_year")
FEATURE_FIELDS = (
    "institution", "education", "age", "sex", "residence_city",
    "care_category", "prior_diagnosis", "topography", "staging",
    "diagnosis_year", "health_region", "treatment_city",
    "hospital_qualification", "hospital_region",
)
DERIVED_FEATURES = ("consult_to_treatment_cat", "diagnosis_to_treatment_cat")
# the exclusion rules that ``filter.off`` may name, in attribution order
FILTER_NAMES = ("age", "residency", "staging", "confirmation", "transplant",
                "morphology")


class RunConfig:
    """Flat key-value configuration with typed accessors."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    @classmethod
    def load(cls, path: str | None, overrides: dict[str, str]) -> "RunConfig":
        values: dict[str, str] = {}
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            for lineno, line in enumerate(text.splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(values)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from None

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected number, got {raw!r}") from None

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self.get(key)
        if raw is None:
            return default
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected boolean, got {raw!r}")

    def get_list(self, key: str, default: list[str] | None = None) -> list[str]:
        raw = self.get(key)
        if raw is None:
            return default if default is not None else []
        return [item.strip() for item in raw.split(",") if item.strip()]

    def get_float_list(self, key: str) -> list[float]:
        try:
            return [float(item) for item in self.get_list(key)]
        except ValueError:
            raise ConfigError(f"{key}: expected numbers, got "
                              f"{self.get(key)!r}") from None

    def prefixed(self, prefix: str) -> dict[str, str]:
        plen = len(prefix)
        return {k[plen:]: v for k, v in self.values.items()
                if k.startswith(prefix)}


def _write_json(path: Path, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {path} as a directory: {exc}") from None
    return path


def _out_dir(config: RunConfig) -> Path:
    return _make_dir(Path(config.get("out", "run_output")))


def _master_seed(config: RunConfig) -> int:
    return config.get_int("seed", 0)


# ---------------------------------------------------------------- synth

def cmd_synth(config: RunConfig) -> int:
    out = _out_dir(config)
    seed = derive_seed(_master_seed(config), "synth")
    n = config.get_int("synth.n", 1000)
    d = config.get_int("synth.d", 5)
    model = config.get("synth.model", "ph")
    beta = config.get_float_list("synth.beta") or None
    censor_rate = config.get_float("synth.censor_rate", 0.3)
    cohort = synth_cohort(n=n, d=d, model=model, beta=beta,
                          censor_rate=censor_rate, seed=seed)
    dest = out / config.get("synth.output", "cohort.csv")
    write_cohort_csv(cohort, dest)
    log.info("wrote %s (%d rows, %d features)", dest, cohort.n, cohort.n_features)
    return EXIT_OK


# ----------------------------------------------------------------- prep

def _interval_category(treatment, reference):
    """Delay category; only a missing treatment date means untreated. A
    missing reference date makes the covariate missing, not untreated."""
    if treatment is None:
        return categorize_interval(None)
    if reference is None:
        return None
    return categorize_interval((treatment - reference).days)


def _registry_cohort(config: RunConfig, out: Path) -> Cohort:
    days_per_month = config.get_float("prep.days_per_month", DAYS_PER_MONTH)
    if not (0 < days_per_month < np.inf):
        raise ConfigError("prep.days_per_month must be finite and positive, "
                          f"got {days_per_month!r}")
    inactive = set(config.get_list("filter.off"))
    unknown = sorted(inactive - set(FILTER_NAMES))
    if unknown:
        raise ConfigError(f"filter.off: unknown rule(s) {', '.join(unknown)}; "
                          f"the rules are {', '.join(FILTER_NAMES)}")
    schema = dict(DEFAULT_SCHEMA)
    schema.update(config.prefixed("schema."))
    # an empty mapping drops the field (e.g. a registry without a TMO column)
    schema = {field: col for field, col in schema.items() if col}
    records = ingest_csv(config.require("prep.input"), schema)

    rules = FilterRules(
        min_age=None if "age" in inactive else config.get_int("filter.min_age", 20),
        resident_state=None if "residency" in inactive
        else config.get("filter.resident_state", "SP"),
        undefined_staging_codes=() if "staging" in inactive
        else tuple(config.get_list("filter.undefined_staging", ["X", "Y", "0", ""])),
        confirmation_positive_codes=None if "confirmation" in inactive
        else tuple(config.get_list("filter.confirmation_codes", ["1"])),
        transplant_positive_codes=() if "transplant" in inactive
        else tuple(config.get_list("filter.transplant_codes", ["1", "S"])),
        morphology_code=None if "morphology" in inactive
        else config.get("filter.morphology", "8140/3"),
    )
    kept, report = apply_filters(records, rules)
    _write_json(out / "filter_report.json", report.to_dict())

    rows, times, events = [], [], []
    dropped_missing = 0
    dropped_invalid = 0
    death_codes = tuple(config.get_list("prep.death_codes", ["1"]))
    for rec in kept:
        values = [getattr(rec, f) for f in FEATURE_FIELDS]
        try:
            values.append(_interval_category(rec.treatment_date,
                                             rec.consultation_date))
            values.append(_interval_category(rec.treatment_date,
                                             rec.diagnosis_date))
        except DataError:
            dropped_invalid += 1
            continue
        if any(v is None for v in values):
            dropped_missing += 1
            continue
        try:
            target = build_targets([rec], days_per_month, death_codes)[0]
        except DataError:
            dropped_invalid += 1
            continue
        rows.append([str(v) for v in values])
        times.append(target.time)
        events.append(target.event)
    if not rows:
        raise DataError("no rows left after filtering and validation")
    columns = []
    for name in FEATURE_FIELDS:
        kind = "numeric" if name in NUMERIC_FEATURES else "ordinal"
        columns.append(ColumnSpec(name, kind))
    for name in DERIVED_FEATURES:
        # delay categories have a fixed hierarchy, never lexicographic
        columns.append(ColumnSpec(name, "ordinal", INTERVAL_CATEGORIES))
    features = np.asarray(rows, dtype=object)
    cohort = Cohort(features=features, columns=columns,
                    time=np.asarray(times), event=np.asarray(events),
                    meta={"dropped_missing_covariates": dropped_missing,
                          "dropped_invalid_rows": dropped_invalid})
    return cohort


def _survival_cohort(config: RunConfig, out: Path) -> Cohort:
    ordinal = config.get_list("columns.ordinal")
    cohort = read_cohort_csv(config.require("prep.input"), ordinal)
    unknown = sorted(set(ordinal) - set(cohort.column_names()))
    if unknown:
        raise ConfigError(f"columns.ordinal names no feature column: "
                          f"{', '.join(unknown)}")
    report = {"initial": cohort.n, "removed": {}, "final": cohort.n}
    _write_json(out / "filter_report.json", report)
    return cohort


def cmd_prep(config: RunConfig) -> int:
    out = _out_dir(config)
    seed = _master_seed(config)
    mode = config.get("prep.mode", "survival")
    if mode == "registry":
        cohort = _registry_cohort(config, out)
    elif mode == "survival":
        cohort = _survival_cohort(config, out)
    else:
        raise ConfigError(f"unknown prep.mode {mode!r}")

    orders = {col: config.get_list(f"order.{col}")
              for col in {k.split(".", 1)[1] for k in config.values
                          if k.startswith("order.")}}
    test_fraction = config.get_float("prep.test_fraction", 0.2)
    stratify = config.get_bool("prep.stratify", True)
    train, test = split(cohort, test_fraction, stratify_on_event=stratify,
                        seed=derive_seed(seed, "prep/split"))
    encoder = fit_encoder(train, orders or None)
    train_enc = transform(encoder, train)
    test_enc = transform(encoder, test)
    write_cohort_csv(train_enc, out / "train.csv")
    write_cohort_csv(test_enc, out / "test.csv")
    with atomic_write(out / "encoder.json") as fh:
        fh.write(encoder.to_json() + "\n")
    meta = {
        "mode": mode,
        "test_fraction": test_fraction,
        "stratified": stratify,
        "seed": seed,
        "n_train": train.n,
        "n_test": test.n,
        "train_events": int(train.event.sum()),
        "test_events": int(test.event.sum()),
        "lexicographic_fallback": encoder.lexicographic_fallback,
        "columns": [{"name": c.name, "kind": c.kind} for c in cohort.columns],
    }
    meta.update({k: v for k, v in cohort.meta.items() if isinstance(v, int)})
    _write_json(out / "prep_meta.json", meta)
    log.info("prepared %d train / %d test rows", train.n, test.n)
    return EXIT_OK


def _load_prepared(out: Path) -> tuple[Cohort, Cohort]:
    train_path, test_path = out / "train.csv", out / "test.csv"
    if not train_path.exists() or not test_path.exists():
        raise DataError(f"prepared cohorts not found in {out}; run prep first")
    return read_cohort_csv(train_path), read_cohort_csv(test_path)


# ------------------------------------------------------------------ hpo

def _parse_space_entry(name: str, text: str) -> ParamSpec:
    """One ``hpo.space`` entry: float:lo:hi[:log], int:lo:hi or
    cat:a|b|c. Anything else, or a bound that is not a finite number of
    its kind, is a ConfigError."""
    parts = [p.strip() for p in text.split(":")]
    kind, args = parts[0], parts[1:]
    try:
        if kind == "float" and (len(args) == 2 or args[2:] == ["log"]):
            low, high = float(args[0]), float(args[1])
            if np.isfinite(low) and np.isfinite(high):
                return ParamSpec(name, "float", low, high, log=len(args) == 3)
        if kind == "int" and len(args) == 2:
            return ParamSpec(name, "int", int(args[0]), int(args[1]))
        if kind == "cat" and len(args) == 1:
            choices = tuple(c.strip() for c in args[0].split("|"))
            if all(choices):
                return ParamSpec(name, "categorical", choices=choices)
    except ValueError:
        pass
    raise ConfigError(f"bad space entry for {name!r}: {text!r}")


def _space_for(config: RunConfig, family: str) -> list[ParamSpec]:
    """The family's ``hpo.space.<family>.*`` entries, else its default
    space. A numeric bound or a categorical choice that the family's
    params class refuses is a ConfigError, so a bad space stops ``hpo``
    before any trial is fitted."""
    entries = config.prefixed(f"hpo.space.{family}.")
    fam = M.FAMILY_TABLE.get(family)
    if not entries and (fam is None or not fam.space):
        raise ConfigError(f"no default search space for family {family!r}")
    if fam is None:
        raise ConfigError(f"unknown model family {family!r}")
    space = ([_parse_space_entry(name, text)
              for name, text in sorted(entries.items())] if entries
             else [ParamSpec(*entry) for entry in fam.space])
    for spec in space:
        for value in (spec.low, spec.high) if spec.is_numeric else spec.choices:
            try:
                fam.params(**{spec.name: value})
            except (ConfigError, TypeError) as exc:
                raise ConfigError(f"hpo.space.{family}.{spec.name}: value "
                                  f"{value!r} refused: {exc}") from None
    return space


def cmd_hpo(config: RunConfig) -> int:
    out = _out_dir(config)
    seed = _master_seed(config)
    train, _ = _load_prepared(out)
    families = config.get_list("families", ["rsf", "gb_cox"])
    samplers = config.get_list("sampler", ["tpe"])
    if samplers == ["all"]:
        samplers = ["random", "tpe", "cmaes"]
    if not families or not samplers:
        raise ConfigError("hpo needs at least one family and one sampler")
    n_trials = config.get_int("trials", 150)
    k_folds = config.get_int("folds", 10)
    objective = config.get("hpo.objective", "harrell")
    studies_dir = _make_dir(out / "studies")

    for family in families:
        best_value, best_payload = -np.inf, None
        for sampler in samplers:
            space = _space_for(config, family)
            study_path = studies_dir / f"study_{family}_{sampler}.json"
            study = None
            if study_path.exists():
                study = Study.from_json(study_path.read_text(encoding="utf-8"))
                log.info("resuming %s/%s at trial %d", family, sampler,
                         len(study.trials))
            started = _time.perf_counter()
            study = run_study(
                train, family, space, sampler=sampler, n_trials=n_trials,
                k_folds=k_folds, seed=derive_seed(seed, f"hpo/{family}/{sampler}"),
                objective=objective, study=study)
            log.info("hpo %s/%s: best %.4f (%.1fs)", family, sampler,
                     study.best_trial.value, _time.perf_counter() - started)
            with atomic_write(study_path) as fh:
                fh.write(study.to_json() + "\n")
            if study.best_trial.value > best_value:
                best_value = study.best_trial.value
                best_payload = {"family": family, "sampler": sampler,
                                "value": study.best_trial.value,
                                "params": study.best_trial.params,
                                "n_trials": n_trials, "k_folds": k_folds}
        _write_json(out / f"best_params_{family}.json", best_payload)
    return EXIT_OK


# ----------------------------------------------------------- train-eval

def _fits_type(value, kind) -> bool:
    """Whether a JSON value is one of a params field's declared type: an
    int (not a bool) for int, any number for float, None where optional."""
    options = typing.get_args(kind) or (kind,)
    if value is None:
        return type(None) in options
    return any(type(value) is k or (k is float and type(value) is int)
               for k in options)


def _best_params(path: Path, param_class, fields: dict) -> dict:
    """The ``params`` object of a ``best_params_<family>.json`` file. A
    file that is not JSON or has no ``params`` object is a DataError, and
    so is one that names a key, a value type or a value that
    ``param_class`` refuses."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed {path}: {exc}") from None
    params = obj.get("params") if isinstance(obj, dict) else None
    if not isinstance(params, dict):
        raise DataError(f"malformed {path}: no 'params' object")
    for key, value in params.items():
        if key not in fields or not _fits_type(value, fields[key]):
            raise DataError(f"malformed {path}: bad parameter "
                            f"{key!r} = {value!r}")
    try:
        param_class(**params)
    except ConfigError as exc:
        raise DataError(f"malformed {path}: {exc}") from None
    return params


def _family_params(config: RunConfig, out: Path, family: str) -> dict:
    """The family's tuned parameters, if ``hpo`` wrote any (``_best_params``),
    updated by its ``family.<family>.<key>`` config values, each read as
    the type its params field declares; an unknown key or a malformed value
    (one its params class refuses, too) is a ConfigError."""
    param_class = M.PARAM_CLASSES[family]
    fields = typing.get_type_hints(param_class)
    params: dict = {}
    best_file = out / f"best_params_{family}.json"
    if best_file.exists():
        params.update(_best_params(best_file, param_class, fields))
    keys = config.prefixed(f"family.{family}.")
    for key in keys:
        name = f"family.{family}.{key}"
        if key not in fields:
            raise ConfigError(f"{name}: {family} has no parameter {key!r}")
        kind = fields[key]
        if type(None) in typing.get_args(kind):  # optional: "none" or a value
            if config.require(name).lower() == "none":
                params[key] = None
                continue
            kind, = (a for a in typing.get_args(kind) if a is not type(None))
        read = {bool: config.get_bool, int: config.get_int,
                float: config.get_float}.get(kind, config.require)
        params[key] = read(name)
    try:
        param_class(**{key: params[key] for key in keys})
    except ConfigError as exc:
        raise ConfigError(f"family.{family}: {exc}") from None
    return params


def _train_eval_task(task: tuple[str, dict], *, out, train, test, X_test,
                     censor_dist, tau, grid, km):
    """One family's fit, scores and model file, or one horizon classifier.
    A family returns (metrics row, mean survival curve or None, seconds),
    or its message if it raised a SurvKitError or ValueError; a horizon
    returns its ``horizons.csv`` line."""
    family, params = task
    if family == M.HORIZON:
        h = params["horizon"]
        clf = M.fit_horizon_classifier(train, M.HorizonParams(**params))
        p_death = M.predict_risk(clf, X_test)
        return ",".join([
            repr(float(h)), repr(float(km(h))),
            repr(float(np.mean(p_death < 0.5))),
            repr(float(np.mean(1.0 - p_death))),
            str(clf.meta["n_excluded"]), str(clf.meta["n_trained"])])
    started = _time.perf_counter()
    try:
        model = M.fit_family(family, train, **params)
        risks = M.predict_risk(model, X_test)
        row = {
            "model": family,
            "c_index": harrell_c(test.time, test.event, risks).c_index,
            "c_index_ipcw": ipcw_c(test.time, test.event, risks,
                                   censor_dist, tau=tau).c_index,
            "ibs": None,
            "mean_td_auc": None,
            "endpoint_mean_td_auc": None,
            "per_time_auc": [],
        }
        curve_mean = None
        if family in M.CURVE_FAMILIES:
            mat = M.survival_matrix(model, X_test, grid.times)
            row["ibs"] = ibs(grid, mat, test.time, test.event, censor_dist)
            curve_mean = mat.mean(axis=0)
        if family in M.TDAUC_FAMILIES:
            auc = td_auc(test.time, test.event, risks, grid, censor_dist)
            row["mean_td_auc"] = auc.mean
            row["endpoint_mean_td_auc"] = auc.endpoint_mean
            row["per_time_auc"] = [
                {"time": float(t), "auc": float(v)}
                for t, v in zip(auc.times, auc.values)]
        M.save_model(model, out / f"model_{family}.json")
    except (SurvKitError, ValueError) as exc:
        return str(exc)
    return row, curve_mean, _time.perf_counter() - started


_worker_run = None  # set only in pool workers: the bound task function


def _start_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _pool_task(task):
    """``_worker_run(task)``, its warnings and any error returned as
    values for the parent to re-issue in task order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = _worker_run(task), None
        except Exception as exc:
            result, error = None, (exc, traceback.format_exc())
    return result, error, [(w.message, w.category, w.filename, w.lineno)
                           for w in caught]


def _reissue(outcome):
    result, error, caught = outcome
    for warning in caught:
        warnings.warn_explicit(*warning)
    if error is not None:
        raise error[0] from RuntimeError(f"in a worker process:\n{error[1]}")
    return result


@contextlib.contextmanager
def _task_results(run, tasks: list):
    """``run(task)`` for each task, as an iterator in task order. With
    fork and two or more usable CPUs, a fork-based pool of one worker per
    CPU (at most one per task) inherits ``run``; it is shut down, and
    waited for, when the block ends. Otherwise each task runs in-process
    when its result is asked for.

    Fork, not spawn: a spawned worker would import numpy, scipy and
    survkit again (0.4-0.6 s on a 2-CPU x86 host) and be sent the cohorts
    by pickle. A process running other Python threads runs the tasks
    in-process, since one of those threads may hold a lock at the fork."""
    workers = (min(len(tasks), len(os.sched_getaffinity(0)))
               if hasattr(os, "sched_getaffinity")
               and "fork" in multiprocessing.get_all_start_methods()
               and threading.active_count() == 1 else 1)
    if workers < 2:
        yield map(run, tasks)
        return
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(run,))
    try:
        yield map(_reissue, pool.map(_pool_task, tasks))
    except BrokenProcessPool as exc:
        raise TrainingError(f"a train-eval worker died: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_train_eval(config: RunConfig) -> int:
    out = _out_dir(config)
    seed = _master_seed(config)
    train, test = _load_prepared(out)
    families = config.get_list("families", list(M.FAMILIES))
    if not families:
        raise ConfigError("no model families configured")
    unknown = [f for f in families if f not in M.FAMILIES]
    if unknown:
        raise ConfigError(f"unknown families: {unknown}")

    censor_source = config.get("metrics.censor_source", "eval")
    if censor_source == "eval":
        censor_dist = censoring_survival(test.time, test.event)
    elif censor_source == "train":
        censor_dist = censoring_survival(train.time, train.event)
    else:
        raise ConfigError("metrics.censor_source must be eval or train, "
                          f"got {censor_source!r}")
    tau = config.get_float("metrics.tau")
    if tau is not None and not tau > 0:  # NaN too
        raise ConfigError(f"metrics.tau must be positive, got {tau}")
    if tau is not None and censor_dist(tau) <= 0:  # ipcw_c would refuse it
        raise DataError(f"censoring survival is zero at metrics.tau = {tau}")
    resolution = config.get_int("metrics.grid_resolution", 100)
    if resolution < 2:  # IBS integrates over at least two grid times
        raise ConfigError("metrics.grid_resolution must be at least 2, "
                          f"got {resolution}")
    if resolution > MAX_GRID_RESOLUTION:
        raise ConfigError("metrics.grid_resolution must be at most "
                          f"{MAX_GRID_RESOLUTION}, got {resolution}")
    horizons = config.get_float_list("horizons")
    for h in horizons:  # refused before the first fit, not after the last
        M.HorizonParams(horizon=h)
    # every family's and horizon's params, resolved before the first fit;
    # a family listed twice is fitted once (two workers would race to
    # write its model file)
    tasks = [(family, {**_family_params(config, out, family),
                       "seed": derive_seed(seed, f"train/{family}")})
             for family in dict.fromkeys(families)]
    if horizons:
        shared = _family_params(config, out, M.HORIZON)
        tasks += [(M.HORIZON, {**shared, "horizon": h, "seed":
                               derive_seed(seed, f"train/horizon/{h}")})
                  for h in horizons]
    grid = default_time_grid(test.time, test.event, censor_dist,
                             resolution=resolution)
    km = kaplan_meier(test.time, test.event)
    run = functools.partial(
        _train_eval_task, out=out, train=train, test=test,
        X_test=np.asarray(test.features, dtype=float),
        censor_dist=censor_dist, tau=tau, grid=grid, km=km)

    rows, failures, outcomes = [], {}, {}
    curve_means: dict[str, np.ndarray] = {}
    with _task_results(run, tasks) as results:
        for family in families:
            if family not in outcomes:
                outcomes[family] = next(results)
            outcome = outcomes[family]
            if isinstance(outcome, str):
                failures[family] = outcome
                log.error("family %s failed: %s", family, outcome)
                continue
            row, curve_mean, seconds = outcome
            rows.append(row)
            if curve_mean is not None:
                curve_means[family] = curve_mean
            log.info("%s: C=%.4f (%.1fs)", family, row["c_index"], seconds)
        if not rows:
            raise TrainingError(f"every family failed: {failures}")

        settings = {"tau": tau, "censor_source": censor_source,
                    "grid_low": float(grid.times[0]),
                    "grid_high": float(grid.times[-1]),
                    "grid_resolution": int(grid.resolution), "seed": seed}
        _write_json(out / "metrics.json",
                    {"models": rows, "failures": failures,
                     "settings": settings})

        header = ["time", "km"] + [f for f in families if f in curve_means]
        km_vals = km(grid.times)
        with atomic_write(out / "curves.csv") as fh:
            fh.write(",".join(header) + "\n")
            for k, t in enumerate(grid.times):
                cells = [repr(float(t)), repr(float(km_vals[k]))]
                cells += [repr(float(curve_means[f][k])) for f in header[2:]]
                fh.write(",".join(cells) + "\n")

        if horizons:
            # the horizon tasks' lines; a horizon's error surfaces here
            hlines = ["horizon,km_survival,classifier_fraction_survive,"
                      "classifier_mean_survival,n_excluded_train,n_trained",
                      *results]
            with atomic_write(out / "horizons.csv") as fh:
                fh.write("\n".join(hlines) + "\n")
    return EXIT_OK


# -------------------------------------------------------------- explain

def cmd_explain(config: RunConfig) -> int:
    out = _out_dir(config)
    seed = _master_seed(config)
    family = config.get("explain.model")
    if family is None:
        raise ConfigError("explain.model must name a trained family")
    dataset = config.get("explain.dataset", "validation")
    if dataset not in ("validation", "train"):
        raise ConfigError("explain.dataset must be validation or train")
    metric = config.get("explain.metric", "harrell_c")
    if metric not in ("harrell_c", "ipcw_c"):
        raise ConfigError(f"explain.metric must be harrell_c or ipcw_c, "
                          f"got {metric!r}")
    mode = config.get("explain.mode")
    if mode not in (None, "exact", "montecarlo"):
        raise ConfigError(f"explain.mode must be exact or montecarlo, "
                          f"got {mode!r}")
    model_path = out / f"model_{family}.json"
    if not model_path.exists():
        raise DataError(f"missing model file {model_path}; run train-eval first")
    model = M.load_model(model_path)
    train, test = _load_prepared(out)
    eval_cohort = test if dataset == "validation" else train

    # what permutation importance or Shapley would refuse, refused before
    # either calls the model
    n_repeats = config.get_int("explain.n_repeats", 10)
    sample_size = min(config.get_int("explain.sample_size", 100),
                      eval_cohort.n)
    background_size = config.get_int("explain.background_size", 100)
    n_permutations = config.get_int("explain.n_permutations", 500)
    _at_least_one(n_repeats=n_repeats, sample_size=sample_size,
                  background_size=background_size)
    d = eval_cohort.n_features
    mode = mode or ("exact" if d <= EXACT_MAX_FEATURES else "montecarlo")
    if mode == "exact" and d > EXACT_MAX_FEATURES:
        raise DataError(f"exact mode supports at most {EXACT_MAX_FEATURES} "
                        f"features, got {d}")
    if mode == "montecarlo":
        _at_least_one(n_permutations=n_permutations)

    pi = permutation_importance(
        model, eval_cohort, metric=metric, n_repeats=n_repeats,
        seed=derive_seed(seed, f"explain/pi/{family}"))
    shap = global_attribution(
        model, eval_cohort, sample_size=sample_size, mode=mode,
        n_permutations=n_permutations,
        seed=derive_seed(seed, f"explain/shap/{family}"),
        background=train, background_size=background_size)
    pi.to_csv(out / f"importance_pi_{family}.csv")  # both or neither
    shap.to_csv(out / f"importance_shap_{family}.csv")
    log.info("explained %s on %s set (PI + Shapley)", family, dataset)
    return EXIT_OK


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survkit",
        description="Censoring-aware survival model comparison toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("prep", "synth", "hpo", "train-eval", "explain"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--families", default=None)
        p.add_argument("--sampler", default=None,
                       choices=["random", "tpe", "cmaes", "all"])
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--folds", type=int, default=None)
    return parser


COMMANDS = {
    "prep": cmd_prep,
    "synth": cmd_synth,
    "hpo": cmd_hpo,
    "train-eval": cmd_train_eval,
    "explain": cmd_explain,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": None if args.seed is None else str(args.seed),
        "out": args.out,
        "families": args.families,
        "sampler": args.sampler,
        "trials": None if args.trials is None else str(args.trials),
        "folds": None if args.folds is None else str(args.folds),
    }
    try:
        config = RunConfig.load(args.config, overrides)
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except TrainingError as exc:
        log.error("training failure: %s", exc)
        return EXIT_TRAINING
    except MemoryError as exc:
        log.error("out of memory: %r", exc)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())

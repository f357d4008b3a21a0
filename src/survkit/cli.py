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
import json
import logging
import sys
import time as _time
import typing
from pathlib import Path

import numpy as np

from . import models as M
from .data import (INTERVAL_CATEGORIES, Cohort, ColumnSpec, FilterRules,
                   apply_filters, build_targets, categorize_interval,
                   atomic_write, ingest_csv, read_cohort_csv, synth_cohort,
                   write_cohort_csv)
from .errors import ConfigError, DataError, SurvKitError, TrainingError
from .estimators import censoring_survival, kaplan_meier
from .explain import global_attribution, permutation_importance
from .hpo import ParamSpec, Study, run_study
from .metrics import (default_time_grid, harrell_c, ibs, ipcw_c, td_auc)
from .preprocess import fit_encoder, split, transform
from .seeding import derive_seed

log = logging.getLogger("survkit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

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

    def prefixed(self, prefix: str) -> dict[str, str]:
        plen = len(prefix)
        return {k[plen:]: v for k, v in self.values.items()
                if k.startswith(prefix)}


def _write_json(path: Path, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.get("out", "run_output"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _master_seed(config: RunConfig) -> int:
    return config.get_int("seed", 0)


# ---------------------------------------------------------------- synth

def cmd_synth(config: RunConfig) -> int:
    out = _out_dir(config)
    seed = derive_seed(_master_seed(config), "synth")
    n = config.get_int("synth.n", 1000)
    d = config.get_int("synth.d", 5)
    model = config.get("synth.model", "ph")
    beta_raw = config.get_list("synth.beta")
    beta = [float(b) for b in beta_raw] if beta_raw else None
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
    schema = dict(DEFAULT_SCHEMA)
    schema.update(config.prefixed("schema."))
    # an empty mapping drops the field (e.g. a registry without a TMO column)
    schema = {field: col for field, col in schema.items() if col}
    records = ingest_csv(config.require("prep.input"), schema)

    inactive = set(config.get_list("filter.off"))
    rules = FilterRules(
        min_age=None if "age" in inactive else config.get_int("filter.min_age", 20),
        resident_state=None if "residency" in inactive
        else config.get("filter.resident_state", "SP"),
        undefined_staging_codes=() if "staging" in inactive
        else tuple(config.get_list("filter.undefined_staging", ["X", "Y", "0", ""])),
        require_microscopic_confirmation="confirmation" not in inactive,
        confirmation_positive_codes=tuple(
            config.get_list("filter.confirmation_codes", ["1"])),
        exclude_bone_marrow_transplant="transplant" not in inactive,
        transplant_positive_codes=tuple(
            config.get_list("filter.transplant_codes", ["1", "S"])),
        morphology_code=None if "morphology" in inactive
        else config.get("filter.morphology", "8140/3"),
    )
    kept, report = apply_filters(records, rules)
    _write_json(out / "filter_report.json", report.to_dict())

    rows, times, events = [], [], []
    dropped_missing = 0
    dropped_invalid = 0
    death_codes = tuple(config.get_list("prep.death_codes", ["1"]))
    days_per_month = config.get_float("prep.days_per_month", 30.4375)
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
    ordinal = set(config.get_list("columns.ordinal"))
    path = config.require("prep.input")
    columns = None
    if ordinal:
        try:
            header = Path(path).read_text(encoding="utf-8").splitlines()[0]
        except (OSError, IndexError) as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        names = [c for c in header.split(",") if c not in ("time", "event",
                                                           "weight")]
        columns = [ColumnSpec(n, "ordinal" if n in ordinal else "numeric")
                   for n in names]
    cohort = read_cohort_csv(path, columns)
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
    n_trials = config.get_int("trials", 150)
    k_folds = config.get_int("folds", 10)
    objective = config.get("hpo.objective", "harrell")
    studies_dir = out / "studies"
    studies_dir.mkdir(exist_ok=True)

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
    file that is not JSON, has no ``params`` object, or names a key, a
    value type or a value that ``param_class`` refuses is a DataError."""
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
        raise ConfigError(f"metrics.censor_source must be eval or train")
    tau = config.get_float("metrics.tau")
    resolution = config.get_int("metrics.grid_resolution", 100)
    if resolution < 2:  # IBS integrates over at least two grid times
        raise ConfigError("metrics.grid_resolution must be at least 2, "
                          f"got {resolution}")
    horizons = [float(h) for h in config.get_list("horizons")]
    for h in horizons:  # refused before the first fit, not after the last
        M.HorizonParams(horizon=h)
    grid = default_time_grid(test.time, test.event, censor_dist,
                             resolution=resolution)

    X_test = np.asarray(test.features, dtype=float)
    rows, failures = [], {}
    curve_means: dict[str, np.ndarray] = {}
    for family in families:
        params = _family_params(config, out, family)
        params["seed"] = derive_seed(seed, f"train/{family}")
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
            if family in M.CURVE_FAMILIES:
                mat = M.survival_matrix(model, X_test, grid.times)
                row["ibs"] = ibs(grid, mat, test.time, test.event, censor_dist)
                curve_means[family] = mat.mean(axis=0)
                del mat  # the next family fits without it
            if family in M.TDAUC_FAMILIES:
                auc = td_auc(test.time, test.event, risks, grid, censor_dist)
                row["mean_td_auc"] = auc.mean
                row["endpoint_mean_td_auc"] = auc.endpoint_mean
                row["per_time_auc"] = [
                    {"time": float(t), "auc": float(v)}
                    for t, v in zip(auc.times, auc.values)]
            rows.append(row)
            M.save_model(model, out / f"model_{family}.json")
            log.info("%s: C=%.4f (%.1fs)", family, row["c_index"],
                     _time.perf_counter() - started)
        except (SurvKitError, ValueError) as exc:
            failures[family] = str(exc)
            log.error("family %s failed: %s", family, exc)
    if not rows:
        raise TrainingError(f"every family failed: {failures}")

    settings = {"tau": tau, "censor_source": censor_source,
                "grid_low": float(grid.times[0]),
                "grid_high": float(grid.times[-1]),
                "grid_resolution": int(grid.resolution), "seed": seed}
    _write_json(out / "metrics.json",
                {"models": rows, "failures": failures, "settings": settings})

    km = kaplan_meier(test.time, test.event)
    header = ["time", "km"] + [f for f in families if f in curve_means]
    km_vals = km(grid.times)
    with atomic_write(out / "curves.csv") as fh:
        fh.write(",".join(header) + "\n")
        for k, t in enumerate(grid.times):
            cells = [repr(float(t)), repr(float(km_vals[k]))]
            cells += [repr(float(curve_means[f][k])) for f in header[2:]]
            fh.write(",".join(cells) + "\n")

    if horizons:
        hlines = ["horizon,km_survival,classifier_fraction_survive,"
                  "classifier_mean_survival,n_excluded_train,n_trained"]
        for h in horizons:
            params = _family_params(config, out, M.HORIZON)
            params["horizon"] = h
            params["seed"] = derive_seed(seed, f"train/horizon/{h}")
            clf = M.fit_horizon_classifier(train, M.HorizonParams(**params))
            p_death = M.predict_risk(clf, X_test)
            hlines.append(",".join([
                repr(float(h)), repr(float(km(h))),
                repr(float(np.mean(p_death < 0.5))),
                repr(float(np.mean(1.0 - p_death))),
                str(clf.meta["n_excluded"]), str(clf.meta["n_trained"])]))
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
    model_path = out / f"model_{family}.json"
    if not model_path.exists():
        raise DataError(f"missing model file {model_path}; run train-eval first")
    model = M.load_model(model_path)
    train, test = _load_prepared(out)
    dataset = config.get("explain.dataset", "validation")
    if dataset not in ("validation", "train"):
        raise ConfigError("explain.dataset must be validation or train")
    eval_cohort = test if dataset == "validation" else train

    pi = permutation_importance(
        model, eval_cohort, metric=config.get("explain.metric", "harrell_c"),
        n_repeats=config.get_int("explain.n_repeats", 10),
        seed=derive_seed(seed, f"explain/pi/{family}"))
    pi.to_csv(out / f"importance_pi_{family}.csv")

    d = eval_cohort.n_features
    mode = config.get("explain.mode",
                      "exact" if d <= 12 else "montecarlo")
    sample_size = min(config.get_int("explain.sample_size", 100), eval_cohort.n)
    shap = global_attribution(
        model, eval_cohort, sample_size=sample_size, mode=mode,
        n_permutations=config.get_int("explain.n_permutations", 500),
        seed=derive_seed(seed, f"explain/shap/{family}"),
        background=train,
        background_size=config.get_int("explain.background_size", 100))
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


if __name__ == "__main__":
    sys.exit(main())

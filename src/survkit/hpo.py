"""Hyperparameter optimization: search spaces, samplers, study runner.

Three samplers share one interface: given the search space, the trial
history and a seed stream they propose the next parameter assignment.
Random search ignores history; the Parzen-estimator sampler models good
and bad trials with kernel densities; the evolution strategy adapts a
multivariate Gaussian over the numeric subspace. The study runner
maximizes the fold-averaged concordance index.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Cohort
from .errors import ConfigError, DataError, TrainingError
from .estimators import censoring_survival
from .metrics import harrell_c, ipcw_c
from .models import fit_family, predict_risk
from .preprocess import kfold
from .seeding import derive_seed

__all__ = [
    "ParamSpec",
    "Trial",
    "Study",
    "TpeConfig",
    "CmaesConfig",
    "sample_random",
    "sample_tpe",
    "sample_cmaes",
    "run_study",
    "SAMPLERS",
]

log = logging.getLogger("survkit.hpo")


@dataclass(frozen=True)
class ParamSpec:
    """One search dimension: float (optionally log-scaled), int or categorical."""

    name: str
    kind: str  # "float" | "int" | "categorical"
    low: float | None = None
    high: float | None = None
    log: bool = False
    choices: tuple | None = None

    def __post_init__(self):
        if self.kind in ("float", "int"):
            if self.low is None or self.high is None or not self.low < self.high:
                raise ConfigError(f"{self.name}: need low < high")
            if self.log and self.low <= 0:
                raise ConfigError(f"{self.name}: log scale needs positive bounds")
        elif self.kind == "categorical":
            if not self.choices:
                raise ConfigError(f"{self.name}: choices must be nonempty")
        else:
            raise ConfigError(f"{self.name}: unknown kind {self.kind!r}")

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("float", "int")

    def to_unit(self, value) -> float:
        lo, hi = self._transformed_bounds()
        v = math.log(value) if self.log else float(value)
        return (v - lo) / (hi - lo)

    def from_unit(self, u: float):
        lo, hi = self._transformed_bounds()
        v = lo + float(np.clip(u, 0.0, 1.0)) * (hi - lo)
        if self.log:
            v = math.exp(v)
        if self.kind == "int":
            return int(np.clip(round(v), self.low, self.high))
        return float(np.clip(v, self.low, self.high))

    def _transformed_bounds(self):
        if self.log:
            return math.log(self.low), math.log(self.high)
        return float(self.low), float(self.high)


@dataclass
class Trial:
    """One sampled configuration with its fold-averaged objective value."""

    index: int
    params: dict
    value: float | None = None
    fold_values: list[float] | None = None
    error: str | None = None

    def __post_init__(self):
        if (self.value is None) == (self.error is None):
            raise ConfigError("a trial carries either a value or a failure marker")

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class Study:
    """Search state: space, ordered trials, sampler id and the best trial."""

    space: list[ParamSpec]
    trials: list[Trial] = field(default_factory=list)
    sampler: str = "random"
    seed: int = 0
    best_index: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def best_trial(self) -> Trial | None:
        return None if self.best_index is None else self.trials[self.best_index]

    def record(self, trial: Trial) -> None:
        self.trials.append(trial)
        if trial.value is not None and (
                self.best_index is None
                or trial.value > self.trials[self.best_index].value):
            self.best_index = trial.index

    def to_json(self) -> str:
        return json.dumps({
            "space": [asdict(s) for s in self.space],
            "trials": [asdict(t) for t in self.trials],
            "sampler": self.sampler,
            "seed": self.seed,
            "best_index": self.best_index,
            "meta": self.meta,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Study":
        try:
            obj = json.loads(text)
            space = [ParamSpec(**{**s, "choices": tuple(s["choices"])
                                  if s["choices"] is not None else None})
                     for s in obj["space"]]
            trials = [Trial(**t) for t in obj["trials"]]
            return cls(space=space, trials=trials, sampler=obj["sampler"],
                       seed=obj["seed"], best_index=obj["best_index"],
                       meta=obj.get("meta", {}))
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise DataError(f"malformed study JSON: {exc!r}") from None


def sample_random(space: list[ParamSpec], history: list[Trial],
                  rng: np.random.Generator) -> dict:
    """Independent draws: (log-)uniform floats, uniform ints and choices."""
    params = {}
    for spec in space:
        if spec.kind == "float":
            if spec.log:
                params[spec.name] = float(np.exp(rng.uniform(
                    math.log(spec.low), math.log(spec.high))))
            else:
                params[spec.name] = float(rng.uniform(spec.low, spec.high))
        elif spec.kind == "int":
            params[spec.name] = int(rng.integers(int(spec.low), int(spec.high) + 1))
        else:
            params[spec.name] = spec.choices[int(rng.integers(len(spec.choices)))]
    return params


@dataclass(frozen=True)
class TpeConfig:
    gamma: float = 0.25
    n_startup: int = 10
    n_candidates: int = 24


class _ParzenDensity:
    """Gaussian kernels at the observations plus one uniform prior component.

    The prior component (weight 1/(k+1)) keeps exploration alive when the
    observations collapse into a narrow cluster; the kernel bandwidth
    follows the Scott rule with a floor of 1e-3 of the range.
    """

    def __init__(self, points: np.ndarray, lo: float, hi: float):
        self.points = np.asarray(points, dtype=float)
        self.lo, self.hi = lo, hi
        span = hi - lo
        k = self.points.size
        h = float(self.points.std()) * k ** -0.2 if k else 0.0
        # floor keeps a collapsed cluster from freezing the search; it
        # tightens as observations accumulate
        self.h = max(h, span / min(100, k + 1))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dens = np.full(x.shape, 1.0 / (self.hi - self.lo))
        if self.points.size:
            z = (x[:, None] - self.points[None, :]) / self.h
            dens = dens + (np.exp(-0.5 * z ** 2).sum(axis=1)
                           / (self.h * math.sqrt(2 * math.pi)))
        return dens / (self.points.size + 1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.integers(0, self.points.size + 1, size=n)
        uniform = rng.uniform(self.lo, self.hi, size=n)
        if self.points.size == 0:
            return uniform
        kernels = (self.points[np.clip(comp - 1, 0, None)]
                   + self.h * rng.standard_normal(n))
        return np.clip(np.where(comp == 0, uniform, kernels), self.lo, self.hi)


def _tpe_numeric(spec: ParamSpec, good: np.ndarray, bad: np.ndarray,
                 cfg: TpeConfig, rng: np.random.Generator):
    """Propose one numeric value: draw candidates from the good-trial
    density and keep the candidate maximizing l(x)/g(x)."""
    transform = np.log if spec.log else np.asarray
    lo, hi = spec._transformed_bounds()
    dens_l = _ParzenDensity(transform(good), lo, hi)
    dens_g = _ParzenDensity(transform(bad), lo, hi)
    cand = dens_l.sample(cfg.n_candidates, rng)
    score = dens_l.pdf(cand) / np.maximum(dens_g.pdf(cand), 1e-300)
    best = float(cand[int(np.argmax(score))])
    if spec.log:
        best = math.exp(best)
    if spec.kind == "int":
        return int(np.clip(round(best), spec.low, spec.high))
    return float(np.clip(best, spec.low, spec.high))


def _tpe_categorical(spec: ParamSpec, good: list, bad: list,
                     cfg: TpeConfig, rng: np.random.Generator):
    """Add-one-smoothed category frequencies for both groups."""
    k = len(spec.choices)

    def probs(values):
        counts = np.array([sum(1 for v in values if v == c)
                           for c in spec.choices], dtype=float)
        return (counts + 1.0) / (len(values) + k)

    p_l, p_g = probs(good), probs(bad)
    idx = rng.choice(k, size=cfg.n_candidates, p=p_l)
    scores = p_l[idx] / p_g[idx]
    return spec.choices[int(idx[int(np.argmax(scores))])]


def tpe_split(completed: list[Trial], gamma: float) -> tuple[list[Trial], list[Trial]]:
    """Split completed trials into the top ceil(gamma*m) and the rest."""
    ranked = sorted(completed, key=lambda t: -t.value)
    n_good = math.ceil(gamma * len(ranked))
    return ranked[:n_good], ranked[n_good:]


def sample_tpe(space: list[ParamSpec], history: list[Trial],
               rng: np.random.Generator,
               config: TpeConfig = TpeConfig()) -> dict:
    """Parzen-estimator sampler.

    The first n_startup completed trials delegate to random search. After
    that, trials split into good (top ceil(gamma * m) by objective) and bad
    groups; per parameter, candidates drawn from the good-group density are
    ranked by the density ratio l(x)/g(x).
    """
    completed = [t for t in history if not t.failed]
    if len(completed) < config.n_startup:
        return sample_random(space, history, rng)
    good, bad = tpe_split(completed, config.gamma)
    params = {}
    for spec in space:
        good_v = [t.params[spec.name] for t in good]
        bad_v = [t.params[spec.name] for t in bad]
        if spec.is_numeric:
            value = _tpe_numeric(spec, np.asarray(good_v, dtype=float),
                                 np.asarray(bad_v, dtype=float), config, rng)
        else:
            value = _tpe_categorical(spec, good_v, bad_v, config, rng)
        params[spec.name] = value
    return params


@dataclass(frozen=True)
class CmaesConfig:
    sigma0: float = 0.2
    population: int | None = None  # None: 4 + floor(3 ln d)


class _CmaState:
    """Standard covariance-matrix-adaptation state over the unit cube."""

    def __init__(self, d: int, sigma0: float):
        self.d = d
        self.mean = np.full(d, 0.5)
        self.sigma = sigma0
        self.cov = np.eye(d)
        self.p_sigma = np.zeros(d)
        self.p_c = np.zeros(d)
        self.gen = 0
        self.chi_n = math.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d * d))

    def _decompose(self):
        cov = 0.5 * (self.cov + self.cov.T)
        evals, basis = np.linalg.eigh(cov)
        evals = np.maximum(evals, 1e-30)
        return evals, basis

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        evals, basis = self._decompose()
        z = rng.standard_normal(self.d)
        return self.mean + self.sigma * (basis @ (np.sqrt(evals) * z))

    def update(self, xs: np.ndarray, fitness: np.ndarray, lam: int) -> None:
        """Weighted recombination, rank-one + rank-mu covariance update and
        cumulative step-size control (maximization: best = highest value)."""
        d = self.d
        mu = lam // 2
        w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        w /= w.sum()
        mueff = 1.0 / np.sum(w ** 2)
        c_sigma = (mueff + 2) / (d + mueff + 5)
        d_sigma = 1 + 2 * max(0.0, math.sqrt((mueff - 1) / (d + 1)) - 1) + c_sigma
        c_c = (4 + mueff / d) / (d + 4 + 2 * mueff / d)
        c_1 = 2 / ((d + 1.3) ** 2 + mueff)
        c_mu = min(1 - c_1,
                   2 * (mueff - 2 + 1 / mueff) / ((d + 2) ** 2 + mueff))

        # failures rank last; ties keep sampling order
        keys = np.where(np.isnan(fitness), -np.inf, fitness)
        order = np.argsort(-keys, kind="stable")
        sel = xs[order[:mu]]
        old_mean = self.mean.copy()
        new_mean = w @ sel
        y_w = (new_mean - old_mean) / self.sigma

        evals, basis = self._decompose()
        inv_sqrt = basis @ np.diag(1.0 / np.sqrt(evals)) @ basis.T
        self.p_sigma = ((1 - c_sigma) * self.p_sigma
                        + math.sqrt(c_sigma * (2 - c_sigma) * mueff)
                        * (inv_sqrt @ y_w))
        self.gen += 1
        norm_ps = float(np.linalg.norm(self.p_sigma))
        h_sigma = (norm_ps / math.sqrt(1 - (1 - c_sigma) ** (2 * self.gen))
                   / self.chi_n) < (1.4 + 2 / (d + 1))
        self.p_c = ((1 - c_c) * self.p_c
                    + (math.sqrt(c_c * (2 - c_c) * mueff) * y_w if h_sigma else 0.0))
        ys = (sel - old_mean) / self.sigma
        rank_mu = (w[:, None] * ys).T @ ys
        self.cov = ((1 - c_1 - c_mu) * self.cov
                    + c_1 * (np.outer(self.p_c, self.p_c)
                             + (0.0 if h_sigma else c_c * (2 - c_c)) * self.cov)
                    + c_mu * rank_mu)
        self.cov = 0.5 * (self.cov + self.cov.T)
        self.sigma *= math.exp((c_sigma / d_sigma) * (norm_ps / self.chi_n - 1))
        self.mean = new_mean


# (numeric space, config, the (params, value) records of the longest
# history prefix replayed so far, the state reached after it). A pure
# cache: it is read once per call, replaced whole and never updated in
# place, so any caller, thread or test sees the state of a full replay.
_cma_resume: tuple | None = None


def _cma_replay(space: list[ParamSpec], history: list[Trial],
                config: CmaesConfig) -> tuple[_CmaState, int, list[ParamSpec]]:
    """The state after every completed generation of ``history``.

    A history that extends the last replayed prefix resumes from the state
    cached after it, so a study's T calls cost O(T) updates in all; any
    other history replays from the start. The updates run in the same
    order either way, so the state is the same bit for bit.
    """
    global _cma_resume
    numeric = [s for s in space if s.is_numeric]
    if not numeric:
        raise ConfigError("CMA-ES needs at least one numeric parameter")
    d = len(numeric)
    lam = config.population or (4 + int(3 * math.log(d)))
    end = len(history) - len(history) % lam
    state, done = _CmaState(d, config.sigma0), []
    if _cma_resume is not None:
        cached_space, cached_config, records, cached = _cma_resume
        if (cached_space == tuple(numeric) and cached_config == config
                and records == [(t.params, t.value)
                                for t in history[:len(records)]]):
            state, done = cached, records
    if len(done) < end:
        state = copy.deepcopy(state)  # a caller may hold the cached state
        for start in range(len(done), end, lam):
            gen = history[start:start + lam]
            xs = np.array([[s.to_unit(t.params[s.name]) for s in numeric]
                           for t in gen])
            fitness = np.array([np.nan if t.failed else t.value for t in gen])
            state.update(xs, fitness, lam)
        done = done + [(dict(t.params), t.value)
                       for t in history[len(done):end]]
        _cma_resume = (tuple(numeric), config, done, state)
    return state, lam, numeric


def sample_cmaes(space: list[ParamSpec], history: list[Trial],
                 rng: np.random.Generator,
                 config: CmaesConfig = CmaesConfig()) -> dict:
    """Evolution-strategy sampler over the numeric subspace.

    Numeric parameters are normalized to the unit cube (log scale where
    declared); every completed generation in the history advances the
    Gaussian state. Categorical parameters fall outside the method's scope
    and are sampled randomly.
    """
    state, _, numeric = _cma_replay(space, history, config)
    x = np.clip(state.sample(rng), 0.0, 1.0)
    params = {}
    for spec, u in zip(numeric, x):
        params[spec.name] = spec.from_unit(float(u))
    for spec in space:
        if not spec.is_numeric:
            log.debug("CMA-ES: categorical %s sampled randomly", spec.name)
            params[spec.name] = sample_random([spec], history, rng)[spec.name]
    return params


SAMPLERS = {
    "random": sample_random,
    "tpe": sample_tpe,
    "cmaes": sample_cmaes,
}


def run_study(train: Cohort, family: str, space: list[ParamSpec],
              sampler: str = "random", n_trials: int = 150, k_folds: int = 10,
              seed: int = 0, objective: str = "harrell",
              stratify_folds: bool = True, base_params: dict | None = None,
              study: Study | None = None) -> Study:
    """Cross-validated search maximizing the mean held-out concordance index.

    Per trial: sample a configuration, fit the family on each fold's
    training portion with a derived seed (a risk-only fit: no curve work),
    score the held-out portion, and average. Failed fits record a failure
    marker and the study continues.
    Fully deterministic given the seed; passing an existing ``study``
    resumes it at the recorded trial count.
    """
    if n_trials < 1:
        raise ConfigError("n_trials must be at least 1")
    if k_folds < 2:
        raise ConfigError("k_folds must be at least 2")
    if sampler not in SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}")
    if objective not in ("harrell", "ipcw"):
        raise ConfigError(f"unknown objective {objective!r}")
    sample_fn = SAMPLERS[sampler]
    base_params = base_params or {}

    folds = kfold(train.n, k_folds, seed=derive_seed(seed, "hpo/folds"),
                  event=train.event if stratify_folds else None)
    meta = {"family": family, "k_folds": k_folds, "objective": objective,
            "stratified_folds": stratify_folds}
    if study is None:
        study = Study(space=space, sampler=sampler, seed=seed, meta=meta)
    else:
        wanted = {**meta, "sampler": sampler, "seed": seed,
                  "space": list(space)}
        found = {**study.meta, "sampler": study.sampler, "seed": study.seed,
                 "space": list(study.space)}
        differ = [key for key in wanted if found.get(key) != wanted[key]]
        if differ:
            raise ConfigError("resumed study was built with a different "
                              + ", ".join(differ))

    for t in range(len(study.trials), n_trials):
        rng = np.random.default_rng(derive_seed(seed, f"hpo/trial/{t}"))
        params = sample_fn(space, study.trials, rng)
        fold_values = []
        error = None
        for f, test_idx in enumerate(folds):
            mask = np.ones(train.n, dtype=bool)
            mask[test_idx] = False
            fit_seed = derive_seed(seed, f"hpo/trial/{t}/fold/{f}")
            try:
                model = fit_family(family, train.subset(np.flatnonzero(mask)),
                                   curves=False,
                                   **{**base_params, **params, "seed": fit_seed})
                risks = predict_risk(model, np.asarray(
                    train.features[test_idx], dtype=float))
                t_ev = train.time[test_idx]
                e_ev = train.event[test_idx]
                if objective == "harrell":
                    value = harrell_c(t_ev, e_ev, risks).c_index
                else:
                    g = censoring_survival(t_ev, e_ev)
                    value = ipcw_c(t_ev, e_ev, risks, g).c_index
            except (DataError, TrainingError, ValueError) as exc:
                error = f"fold {f}: {exc}"
                log.warning("trial %d failed: %s", t, error)
                break
            fold_values.append(float(value))
        if error is None:
            trial = Trial(index=t, params=params,
                          value=float(np.mean(fold_values)),
                          fold_values=fold_values)
        else:
            trial = Trial(index=t, params=params, error=error)
        study.record(trial)

    if all(t.failed for t in study.trials):
        raise TrainingError("every trial failed")
    return study

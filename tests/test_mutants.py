"""Seeded mutants of every file a verb reads: each run exits 0, 2, 3 or 4.

One tiny run (synth -> prep -> hpo -> train-eval -> explain) is built
once. Each mutant copies it, damages one file the way a truncated write,
a hand edit or a foreign tool might, and runs the verb that reads that
file through ``cli.main``. The verb may succeed or refuse the file with
its exit code, but never raise.

Files read by a verb: the config text (every verb), ``cohort.csv``
(``prep``), ``train.csv`` and ``test.csv`` (``hpo``, ``train-eval``,
``explain``), ``studies/*.json`` (a resumed ``hpo``),
``best_params_*.json`` (``train-eval``) and ``model_*.json``
(``explain``). No verb reads ``encoder.json``, ``prep_meta.json``,
``filter_report.json``, ``metrics.json`` or ``curves.csv``, so they are
not mutated.

Config values are damaged with text that is not a number, an empty value
or a negative count, not with huge counts: a config asking for 10**30
trees is a valid (endless) request, not a malformed file. Model and study
counts that a verb would loop over are overridden by the config or checked
against it, so huge JSON values are safe to try there.
"""

import json
import random
import shutil
import warnings

import pytest

from survkit.cli import main

FAMILIES = ("rsf", "gbsa", "ssvm", "gb_cox", "gb_aft", "gb_reg_weighted")

CONFIG = {
    "seed": "7", "synth.n": "120", "synth.d": "3",
    "prep.input": "run/cohort.csv",
    "families": ",".join(FAMILIES), "sampler": "all", "trials": "3",
    "folds": "2",
    "hpo.space.ssvm.gamma": "float:0.01:1:log",
    "hpo.space.ssvm.epochs": "int:5:20",
    "hpo.space.gb_cox.n_rounds": "int:2:4",
    "hpo.space.gb_cox.learning_rate": "float:0.05:0.3",
    "family.rsf.n_trees": "3", "family.gbsa.n_rounds": "3",
    "family.ssvm.epochs": "20", "family.gb_cox.n_rounds": "3",
    "family.gb_aft.n_rounds": "3", "family.gb_reg_weighted.n_rounds": "3",
    "family.horizon.n_rounds": "3", "horizons": "1.0",
    "explain.model": "rsf", "explain.n_repeats": "1",
    "explain.sample_size": "3", "explain.background_size": "10",
}
HPO_FAMILIES = ["--families", "ssvm,gb_cox"]

JSON_VALUES = (None, "x", -1, 1e308, [], {}, 10 ** 30)
CSV_CELLS = ("", "x", "nan", "inf", "1e400")
CONFIG_VALUES = ("", "x", "-1", "nan", "0")


def _config_text(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _run(config_path, verb, extra=()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a warning is not a traceback
        return main([verb, "--config", str(config_path), "--out", "run",
                     *extra])


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutants")
    cfg = root / "run.cfg"
    cfg.write_text(_config_text(CONFIG), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert _run(cfg, "synth") == 0
        assert _run(cfg, "prep") == 0
        assert _run(cfg, "hpo", HPO_FAMILIES) == 0
        assert _run(cfg, "train-eval") == 0
        assert _run(cfg, "explain") == 0
    return root


def _json_slots(obj, path=()):
    """Each object member's path and each list element's path, except that
    a list of numbers or lists (a model's arrays) offers its first only."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _json_slots(value, path + (key,))
    elif isinstance(obj, list) and obj:
        every = all(isinstance(item, dict) for item in obj)
        for i in range(len(obj) if every else 1):
            yield path + (i,)
            yield from _json_slots(obj[i], path + (i,))


def _mutate_json(text: str, rng: random.Random) -> str:
    if rng.random() < 0.15:
        return text[:rng.randrange(len(text))]
    obj = json.loads(text)
    *parent_path, last = rng.choice(list(_json_slots(obj)))
    parent = obj
    for step in parent_path:
        parent = parent[step]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[last]
    else:
        parent[last] = rng.choice(JSON_VALUES)
    return json.dumps(obj)


def _mutate_csv(text: str, rng: random.Random) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    r = rng.randrange(len(rows))
    if rng.random() < 0.2:
        rows[r].append("1.0")
    else:
        rows[r][rng.randrange(len(rows[r]))] = rng.choice(CSV_CELLS)
    return "".join(",".join(row) + "\n" for row in rows)


def _mutate_config(text: str, rng: random.Random) -> str:
    if rng.random() < 0.15:
        return text[:rng.randrange(len(text))]
    keys = dict(CONFIG)
    key = rng.choice(sorted(keys))
    if rng.random() < 0.2:
        del keys[key]
    else:
        keys[key] = rng.choice(CONFIG_VALUES)
    return _config_text(keys)


# (file, verb that reads it, number of seeded mutants)
TARGETS = [
    ("run.cfg", "synth", 2), ("run.cfg", "prep", 3), ("run.cfg", "hpo", 3),
    ("run.cfg", "train-eval", 3), ("run.cfg", "explain", 3),
    ("run/cohort.csv", "prep", 6),
    ("run/train.csv", "train-eval", 4), ("run/train.csv", "hpo", 2),
    ("run/test.csv", "train-eval", 3), ("run/test.csv", "explain", 3),
    ("run/studies/study_ssvm_random.json", "hpo", 8),
    ("run/studies/study_ssvm_tpe.json", "hpo", 8),
    ("run/studies/study_ssvm_cmaes.json", "hpo", 8),
    ("run/studies/study_gb_cox_cmaes.json", "hpo", 8),
    ("run/best_params_ssvm.json", "train-eval", 3),
    ("run/best_params_gb_cox.json", "train-eval", 3),
] + [(f"run/model_{family}.json", "explain", 2) for family in FAMILIES]

MUTANTS = [(name, verb, k) for name, verb, count in TARGETS
           for k in range(count)]


@pytest.mark.parametrize("name,verb,k", MUTANTS,
                         ids=[f"{n.split('/')[-1]}-{v}-{k}"
                              for n, v, k in MUTANTS])
def test_mutant_exits_with_a_code(base_run, tmp_path, monkeypatch, name,
                                  verb, k):
    root = tmp_path / "copy"
    shutil.copytree(base_run, root)
    monkeypatch.chdir(root)
    path = root / name
    rng = random.Random(f"{name}/{verb}/{k}")
    mutate = {".cfg": _mutate_config, ".csv": _mutate_csv,
              ".json": _mutate_json}[path.suffix]
    path.write_text(mutate(path.read_text(encoding="utf-8"), rng),
                    encoding="utf-8")
    extra = []
    if verb == "hpo":  # 7 trials replay CMA-ES's first generation of 6
        extra = HPO_FAMILIES + ["--trials", "7"]
    if name.startswith("run/model_"):
        extra = []
        family = name[len("run/model_"):-len(".json")]
        (root / "run.cfg").write_text(
            _config_text({**CONFIG, "explain.model": family}),
            encoding="utf-8")
    assert _run(root / "run.cfg", verb, extra) in (0, 2, 3, 4)

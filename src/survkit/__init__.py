"""survkit: censoring-aware survival machine learning.

Six model families (random survival forest, first- and second-order Cox
boosting, AFT boosting, weighted time regression, ranking SVM) behind one
risk convention, four censoring-aware metrics, three hyperparameter
samplers, model-agnostic attribution, and the data plumbing to run the
whole comparison from a CSV.
"""

from .data import (Cohort, ColumnSpec, FilterReport, FilterRules, RawRecord,
                   SurvivalTarget, apply_filters, build_targets,
                   categorize_interval, ingest_csv, read_cohort_csv,
                   synth_cohort, write_cohort_csv)
from .errors import (ConfigError, ConvergenceError, DataError,
                     NoSurvivalFunctionError, SurvKitError, TrainingError)
from .estimators import (CoxCalibration, StepFunction, breslow_baseline,
                         breslow_survival, censoring_survival, cox_calibrate,
                         kaplan_meier, nelson_aalen)
from .explain import (ImportanceReport, ShapleyResult, global_attribution,
                      permutation_importance, shapley_values)
from .hpo import (ParamSpec, Study, Trial, run_study, sample_cmaes,
                  sample_random, sample_tpe)
from .metrics import (ConcordanceResult, TimeGrid, brier, default_tau,
                      default_time_grid, harrell_c, ibs, ipcw_c, td_auc)
from .models import (FittedModel, fit_family, fit_gb_aft, fit_gb_cox,
                     fit_gb_reg_weighted, fit_gbsa, fit_horizon_classifier,
                     fit_rsf, fit_ssvm, load_model, predict_curves,
                     predict_risk, save_model, survival_matrix)
from .preprocess import EncoderState, fit_encoder, kfold, split, transform

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

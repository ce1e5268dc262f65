"""Learning representations that are sufficient and necessary causes of labels.

The package has three layers.  Exact machinery: discrete structural
causal models with counterfactual probability-of-necessity/sufficiency
oracles (`pns`), and indicator risk estimators with divergence and
deviation bounds (`risk`).  Learned machinery: a small reverse-mode
autodiff core (`autodiff`), Gaussian encoders and linear labelers
(`model`), and the adversarial training loop (`train`).  Harness: the
planted-factor synthetic benchmark (`synth`), distance-correlation
evaluation (`evaluate`), and the `pnsrisk` command line (`cli`).  Every
random draw comes from a keyed Philox stream (`streams`).
"""

from .autodiff import Tensor, check_gradients, constant, parameter
from .evaluate import EvalReport, distance_correlation, evaluate, group_accuracy
from .model import (
    GaussianEncoder,
    GaussianPrior,
    LinearHead,
    Mlp,
    clone_perturbed,
    load_checkpoint,
    predict,
    save_checkpoint,
    surrogate_m,
    surrogate_sf,
)
from .pns import (
    DiscreteScm,
    PnsReport,
    UndefinedConditionalError,
    analyze,
    check_exogeneity,
    check_monotonicity,
    format_report,
    necessity_ratio,
    pns_exact,
    pns_identified,
    random_identifiable_scm,
    read_scm,
    sufficiency_ratio,
)
from .risk import (
    BoundReport,
    DiscreteDomain,
    MalformedDomainError,
    RiskReport,
    beta_divergence,
    deviation_bound,
    domain_shift_bound,
    estimate_risk,
    gaussian_kl,
    sufficiency_deviation_trial,
    true_sufficiency_risk,
)
from .synth import (
    SynthConfig,
    SynthData,
    factor_table,
    feature_scm,
    functional_intervention,
    generate,
    label_scm,
    read_csv,
    write_csv,
)
from .train import (
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # autodiff
    "Tensor", "parameter", "constant", "check_gradients",
    # counterfactual oracle
    "DiscreteScm", "PnsReport", "UndefinedConditionalError",
    "pns_exact", "pns_identified", "check_monotonicity", "check_exogeneity",
    "necessity_ratio", "sufficiency_ratio", "analyze",
    "random_identifiable_scm", "read_scm", "format_report",
    # models
    "Mlp", "GaussianEncoder", "GaussianPrior", "LinearHead", "predict",
    "surrogate_sf", "surrogate_m", "clone_perturbed",
    "save_checkpoint", "load_checkpoint",
    # risk and bounds
    "MalformedDomainError", "DiscreteDomain", "RiskReport", "BoundReport",
    "estimate_risk", "beta_divergence", "gaussian_kl", "deviation_bound",
    "domain_shift_bound", "true_sufficiency_risk",
    "sufficiency_deviation_trial",
    # synthetic benchmark
    "SynthConfig", "SynthData", "generate", "factor_table",
    "write_csv", "read_csv", "label_scm", "feature_scm",
    "functional_intervention",
    # training
    "TrainConfig", "TrainResult", "TrainingDiverged", "train",
    "save_model", "load_model",
    # evaluation
    "distance_correlation", "EvalReport", "evaluate", "group_accuracy",
]

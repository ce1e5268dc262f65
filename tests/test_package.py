"""The package namespace: each module's __all__, re-exported once."""

import importlib
import inspect

import pnsrisk

MODULES = ("autodiff", "evaluate", "model", "pns", "risk", "streams", "synth", "train")

# pnsrisk.__all__ when it was a hand-written list; every name must still resolve
EARLIER_ALL = (
    "__version__",
    "Tensor", "parameter", "check_gradients",
    "DiscreteScm", "PnsReport", "UndefinedConditionalError",
    "pns_exact", "pns_identified", "check_monotonicity", "check_exogeneity",
    "necessity_ratio", "sufficiency_ratio", "analyze",
    "random_identifiable_scm", "read_scm", "format_report",
    "Mlp", "GaussianEncoder", "GaussianPrior", "LinearHead", "predict",
    "surrogate_sf", "surrogate_m", "clone_perturbed",
    "save_checkpoint", "load_checkpoint",
    "MalformedDomainError", "DiscreteDomain", "RiskReport", "BoundReport",
    "estimate_risk", "beta_divergence", "gaussian_kl", "deviation_bound",
    "domain_shift_bound", "true_sufficiency_risk",
    "sufficiency_deviation_trial",
    "SynthConfig", "SynthData", "generate", "factor_table",
    "write_csv", "read_csv", "label_scm", "feature_scm",
    "TrainConfig", "TrainResult", "TrainingDiverged", "train",
    "save_model", "load_model",
    "distance_correlation", "EvalReport", "evaluate", "group_accuracy",
)


def test_module_lists_are_disjoint_and_make_the_package_list():
    owner = {}
    for name in MODULES:
        for public in importlib.import_module(f"pnsrisk.{name}").__all__:
            assert public not in owner, f"{public} in both {owner.get(public)} and {name}"
            owner[public] = name
    assert pnsrisk.__all__ == ["__version__", *owner]
    for public, name in owner.items():
        module = importlib.import_module(f"pnsrisk.{name}")
        assert getattr(pnsrisk, public) is getattr(module, public)


def test_earlier_names_still_resolve():
    assert set(EARLIER_ALL) <= set(pnsrisk.__all__)
    for name in EARLIER_ALL:
        assert hasattr(pnsrisk, name), name


def test_train_and_evaluate_are_the_functions():
    assert inspect.isfunction(pnsrisk.train)
    assert inspect.isfunction(pnsrisk.evaluate)
    assert pnsrisk.train is importlib.import_module("pnsrisk.train").train

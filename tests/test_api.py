"""The package's public surface: each name is declared once, in its module's __all__."""

import openmap
from openmap import analysis, basis, domain, mapgen, states, superop, twoqubit

PUBLIC = [  # 65 names
    "AffineMap", "CPReport", "CompatibilityResult", "CorrelationTable", "DensityMatrix",
    "DisconnectionTranscript", "DomainQuery", "FixedCorrelationParameters",
    "FixedMeanParameters", "GAMMA_SWEEP", "HermitianBasis", "InconsistentCriteriaError",
    "InvertibilityReport", "JointBasis", "JointState", "MeanAffineMap", "MeanValueVector",
    "ParameterReport", "RealizabilityReport", "ScenarioReport", "ShrinkageReport",
    "SingularMapError", "SuperOperator", "TransferMatrix", "TwoQubitScenario", "XI3_SWEEP",
    "apply", "build_basis", "canonical_joint_basis", "choi_analysis", "choi_matrix",
    "compatible", "compose", "conjugation_superoperator", "correlations",
    "detect_parameters", "disconnection_demo", "domain_shrinkage_demo",
    "dynamics_realizability", "expand", "fixed_correlation_map", "fixed_mean_value_map",
    "from_action", "heisenberg_means", "identity_map", "identity_superoperator", "invert",
    "invertibility", "is_hermiticity_preserving", "is_trace_preserving", "is_unital",
    "mean_affine", "mean_vector", "means_from_matrix", "partial_trace_r",
    "purity_inequality", "reconstruct", "reduce", "reproduce_fixed_corr",
    "reproduce_fixed_mean", "transfer_matrix", "two_qubit_unitary", "unitalize", "unvec",
    "vec",
]

MODULES = (analysis, basis, domain, mapgen, states, superop, twoqubit)


def test_public_names_are_the_pinned_list():
    assert sorted(openmap.__all__) == sorted(PUBLIC)


def test_no_name_is_declared_by_two_modules():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(declared) == sorted(openmap.__all__)


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from openmap import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(openmap.__all__)
    for name, value in ns.items():
        assert value is getattr(openmap, name)

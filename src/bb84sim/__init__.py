"""Deterministic BB84 protocol simulator with an intercept-resend
eavesdropper, binomial interval estimation for the error rate, and a
key-rate based security decision, plus seeded Monte Carlo runners.
"""

from .core import (
    Basis,
    CIMethod,
    ConfidenceInterval,
    Decision,
    QberEstimate,
    SecurityVerdict,
    TransmissionRecord,
)
from .decision import (
    DecisionPolicy,
    KeyRateReport,
    binary_entropy,
    decide,
    key_rate,
    threshold_root,
)
from .harness import (
    FiniteSizePoint,
    HistogramResult,
    SweepConfig,
    SweepPoint,
    SweepResult,
    TrialRow,
    derive_trial_seed,
    run_finite_size_study,
    run_histogram,
    run_sweep,
)
from .protocol import (
    ChannelModel,
    EmptySampleError,
    EveStrategy,
    SessionConfig,
    SessionResult,
    TransmissionLedger,
    run_session,
)
from .stats import (
    TrialAggregate,
    aggregate_trials,
    ci_clopper_pearson,
    ci_hoeffding,
    ci_wald,
    ci_wilson,
    confidence_interval,
    hoeffding_half_width,
    normal_quantile,
    qber_point,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CIMethod",
    "ChannelModel",
    "ConfidenceInterval",
    "Decision",
    "DecisionPolicy",
    "EmptySampleError",
    "EveStrategy",
    "FiniteSizePoint",
    "HistogramResult",
    "KeyRateReport",
    "QberEstimate",
    "SecurityVerdict",
    "SessionConfig",
    "SessionResult",
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "TransmissionLedger",
    "TransmissionRecord",
    "TrialAggregate",
    "TrialRow",
    "aggregate_trials",
    "binary_entropy",
    "ci_clopper_pearson",
    "ci_hoeffding",
    "ci_wald",
    "ci_wilson",
    "confidence_interval",
    "decide",
    "derive_trial_seed",
    "hoeffding_half_width",
    "key_rate",
    "normal_quantile",
    "qber_point",
    "run_finite_size_study",
    "run_histogram",
    "run_session",
    "run_sweep",
    "threshold_root",
]

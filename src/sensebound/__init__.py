"""sensebound: closed-loop simulation and numerical verification of
information-rate limits for control under nonlinear sensing.

A noiseless linear plant is observed through a memoryless (possibly
nonlinear, possibly discrete) channel; a Bayes filter tracks the unstable
modes; a certainty-equivalence controller closes the loop. The package
measures the realized directed-information flow, checks the entropy
rate-balance identity, classifies mean-square boundedness/convergence,
and audits the curvature assumptions under which information above the
expansion rate forces the estimation error to zero.
"""

from .audits import (
    CurvatureAudit,
    audit_assumption1,
    audit_assumption2,
    audit_assumption3,
    audit_run,
    lemma2_accumulate,
)
from .channels import (
    ChannelModel,
    CubicGaussianChannel,
    LinearGaussianChannel,
    ModuloGaussianChannel,
    SignQuantizerChannel,
    TanhGaussianChannel,
    make_channel,
)
from .config import ExperimentConfig, build_context, parse_config
from .entropy import gaussian_entropy_nats, grid_entropy_nats, knn_entropy_nats, nats_to_bits
from .filters import (
    Belief,
    FilterStep,
    GaussianBelief,
    GridBelief,
    GridSpec,
    ParticleBelief,
    make_initial_belief,
    moments,
    predict,
    update,
)
from .infoflow import (
    InfoLedger,
    NecessityVerdict,
    ensemble_mean_ledger,
    necessity_audit,
    rate_balance_check,
)
from .loop import (
    EnsembleStats,
    OutcomeClassification,
    OutcomeThresholds,
    RunContext,
    RunRecord,
    classify_outcome,
    kalman_error_floor,
    run_closed_loop,
    run_ensemble,
    tracked_block,
)
from .report import ReportBundle, render_svg, run_experiment, run_sweep
from .system import (
    FeedbackGain,
    ModeDecomposition,
    SystemModel,
    decompose,
    design_gain,
    expansion_rate,
)

__version__ = "0.1.0"

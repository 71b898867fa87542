"""tracefill: recover fully missing channels of a multivariate time series.

Train an LSTM autoencoder on complete recordings, then freeze it and run
gradient descent on the unknown channel itself until the network's view of
the signals becomes self-consistent. Built on a small tape-based reverse-
mode autodiff core; ships with a nonlinear filter circuit simulator that
generates the bundled synthetic benchmark suite.
"""

from .autodiff import (
    NonFiniteError,
    ShapeError,
    Tape,
    Var,
    grad_check,
    run_op_checks,
)
from .circuit import (
    SUITE_PARAMS,
    CircuitParams,
    Dc,
    Sine,
    Trapezoid,
    WaveformSpec,
    capacitance,
    generate_suite,
    kcl_residual,
    simulate,
)
from .metrics import FeatureReport, amplitude_spectrum, rmse_report
from .nn import (
    AutoencoderParams,
    NetConfig,
    forward_steps,
    init_params,
    lift_params,
)
from .optim import Adam, mse, reduced_loss
from .preprocess import (
    ScalerParams,
    TimeSeriesSet,
    fit_scaler,
    inverse_transform,
    transform,
)
from .reconstruct import ReconstructionResult, ReconstructionSpec, reconstruct
from .training import (
    DivergenceError,
    EvalReport,
    TrainConfig,
    TrainedModel,
    evaluate_model,
    train,
)

__version__ = "0.1.0"

"""uafkit: the five-parameter universal activation function

    f(x) = ln(1 + e^{A(x+B) + Cx^2}) - ln(1 + e^{D(x-B)}) + E

with overflow-safe evaluation, analytic gradients, presets for eight classic
activations, error analysis (critical points, RMSE tables, characteristic
equations), constrained Levenberg-Marquardt fitting, and a small trainable-
activation network harness.
"""

from .analysis import (
    ErrorReport,
    RmseTable,
    characteristic_residual,
    characteristic_residual_scaled,
    critical_points,
    error_report,
    interval_rmse,
    rmse_table,
)
from .core import (
    GAUSSIAN,
    IDENTITY,
    LN2,
    RELU,
    SIGMOID,
    SOFTPLUS,
    STEP,
    TANH,
    PresetKind,
    UafGradient,
    UafOverflowError,
    UafParams,
    eval_batch,
    eval_naive,
    eval_stable,
    grad,
    grad_batch,
    leaky_relu,
    preset,
)
from .datasets import Dataset, make_blobs, make_gas_analogue
from .fitting import (
    BUILTIN_SPEC_NAMES,
    FitResult,
    FitSpec,
    Tie,
    builtin_spec,
    fit,
    fit_free,
)
from .network import (
    AdamConfig,
    FixedActivation,
    Network,
    NetworkConfig,
    SgdConfig,
    TrainableUaf,
    TrainReport,
    train,
)
from .targets import TargetActivation, approx_error, approx_error_batch, target, target_eval

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation; there is one, the NumPy kernels."""
    return "numpy"


__all__ = [
    "__version__",
    "backend_name",
    "UafParams",
    "UafGradient",
    "PresetKind",
    "UafOverflowError",
    "IDENTITY",
    "STEP",
    "SIGMOID",
    "TANH",
    "RELU",
    "SOFTPLUS",
    "GAUSSIAN",
    "LN2",
    "leaky_relu",
    "eval_naive",
    "eval_stable",
    "grad",
    "grad_batch",
    "preset",
    "eval_batch",
    "TargetActivation",
    "target",
    "target_eval",
    "approx_error",
    "approx_error_batch",
    "ErrorReport",
    "RmseTable",
    "critical_points",
    "interval_rmse",
    "rmse_table",
    "error_report",
    "characteristic_residual",
    "characteristic_residual_scaled",
    "Tie",
    "FitSpec",
    "FitResult",
    "fit",
    "fit_free",
    "builtin_spec",
    "BUILTIN_SPEC_NAMES",
    "Dataset",
    "make_gas_analogue",
    "make_blobs",
    "FixedActivation",
    "TrainableUaf",
    "SgdConfig",
    "AdamConfig",
    "NetworkConfig",
    "TrainReport",
    "Network",
    "train",
]

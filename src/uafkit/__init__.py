"""uafkit: the five-parameter universal activation function

    f(x) = ln(1 + e^{A(x+B) + Cx^2}) - ln(1 + e^{D(x-B)}) + E

with overflow-safe evaluation, analytic gradients, presets for eight classic
activations, error analysis (critical points, RMSE tables, characteristic
equations), constrained Levenberg-Marquardt fitting, and a small trainable-
activation network harness.

The package exports every name its modules list in their __all__.
"""

from . import analysis, core, datasets, fitting, network, targets
from .analysis import *
from .core import *
from .datasets import *
from .fitting import *
from .network import *
from .targets import *

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation; there is one, the NumPy kernels."""
    return "numpy"


__all__ = ["__version__", "backend_name"] + [
    name for m in (core, targets, analysis, fitting, datasets, network) for name in m.__all__
]

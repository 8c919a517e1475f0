"""Who infected whom in multi-type stochastic epidemics.

Forward shortest-path simulation, backward branching-process Monte
Carlo, and analytic fixed-point bounds for the fractions of infections
attributable to each infector type.
"""

# The package serves each module's __all__.
from .analytic import *
from .backward import *
from .branching import *
from .config import *
from .errors import *
from .graph import *
from .rng import *

__version__ = "0.1.0"

# forward loads scipy.sparse; its names are imported on first use.
_FORWARD = frozenset({
    "OutbreakResult", "RhoEstimate", "aggregate_rho", "attribute_infectors",
    "is_large_outbreak", "replicate_records", "replicate_rho", "run_epidemic",
    "run_epidemic_lazy",
})


def __getattr__(name):
    if name in _FORWARD:
        from . import forward

        return getattr(forward, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

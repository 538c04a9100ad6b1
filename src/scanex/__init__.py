"""Extremes of 1-dependent stationary sequences, with certified error
bounds, applied to the discrete scan statistic over Bernoulli trials.

Every name in a module's ``__all__`` is exported here as well."""

__version__ = "0.1.0"

from . import extremes, montecarlo, pipeline, scan_exact
from .extremes import *
from .montecarlo import *
from .pipeline import *
from .scan_exact import *

__all__ = ["__version__", *extremes.__all__, *montecarlo.__all__,
           *pipeline.__all__, *scan_exact.__all__]

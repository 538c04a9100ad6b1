"""Extremes of 1-dependent stationary sequences, with certified error
bounds, applied to the discrete scan statistic over Bernoulli trials.

Every name in a module's ``__all__`` is exported here as well.  The
pure-Python modules ``extremes`` and ``pipeline`` load with the package;
the numpy modules ``scan_exact`` and ``montecarlo`` load together the
first time one of their names is read from the package, so
``import scanex`` does not import numpy."""

__version__ = "0.1.0"

import importlib

from . import extremes, pipeline
from .extremes import *
from .pipeline import *

# the ``__all__`` of each numpy module, loaded on first use
_LAZY = {
    "montecarlo": ("SimulationPlan", "MCEstimate", "BlockSample",
                   "simulate_scan_cdf", "simulate_block_sequence"),
    "scan_exact": ("MAX_CHAIN_STATES", "MAX_STATE_STEPS", "MAX_BRUTE_N",
                   "BernoulliScanSpec", "exact_scan_cdf", "brute_force_scan_cdf",
                   "block_q_sequence", "block_p_sequence"),
}
_OWNER = {name: mod for mod, names in _LAZY.items() for name in (mod, *names)}
_loaded = False

__all__ = ["__version__", *extremes.__all__, *_LAZY["montecarlo"],
           *pipeline.__all__, *_LAZY["scan_exact"]]


def _load() -> None:
    """Import the numpy modules and bind their names where the package holds
    none yet (a wrapper or a patch set before the load stays)."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    for mod_name, names in _LAZY.items():
        mod = importlib.import_module(f".{mod_name}", __name__)
        for name in names:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    mod = importlib.import_module(f".{owner}", __name__)
    return mod if name == owner else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})

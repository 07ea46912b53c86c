"""Simulation laboratory for finite continuum-armed bandits.

Modules: ``environment`` (instances, mean functions, validators),
``policies`` (UCBF and oracle baselines over bin partitions), ``analysis``
(regret and its exact decomposition), ``experiments`` (seeded Monte Carlo
harness), ``cli`` (command-line front end).
"""

from . import analysis, environment, experiments, policies

__version__ = "0.6.0"

__all__ = ["analysis", "environment", "experiments", "policies", "__version__"]

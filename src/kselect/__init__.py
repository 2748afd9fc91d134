"""Solver, pricing and simulation toolkit for selling up to k units to a
stream of buyers under non-decreasing marginal production costs.

Layers, bottom up:

* cost_model: the setup {L, U, k, marginals} and its convex conjugate
* lower_bound: the tight bound alpha* and its certifying interval chain
* pricing: randomized price curves inverting the chain's allocation curves
* mechanisms: posted-price execution, offline optimum, Monte-Carlo estimates
* instances: staircase hard instances and truncated-normal arrival streams
* cli: the ``kselect`` command tying the layers together
"""

from types import ModuleType as _ModuleType

from .cost_model import make_cost_model
from .errors import SolverError, ValidationError
from .instances import read_instance
from .lower_bound import build_intervals, solve_alpha_star
from .mechanisms import Mechanism, expected_welfare, offline_opt, ratio_to_opt
from .pricing import build_scheme

__version__ = "0.1.0"

# the entry points the README's library section names, and nothing else;
# every other name is imported from its own module
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

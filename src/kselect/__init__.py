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

from .cost_model import (
    CostModel,
    allocation_count_g,
    conjugate,
    cumulative_cost,
    make_cost_model,
    model_from_json,
    model_to_json,
)
from .errors import DegenerateModelError, SolverError, ValidationError
from .instances import (
    Instance,
    gen_iid,
    gen_low2high,
    gen_sorted,
    hard_instance,
    instance_text,
    read_instance,
    write_instance,
)
from .lower_bound import (
    DEFAULT_TOL,
    LowerBoundSolution,
    build_intervals,
    compute_k_underbar,
    compute_xi,
    eval_psi,
    solve_alpha_star,
    verify_equality,
)
from .mechanisms import (
    BuyerDecision,
    Mechanism,
    RunOutcome,
    WelfareEstimate,
    expected_welfare,
    make_pinned_deterministic,
    make_static_random,
    offline_opt,
    ratio_to_opt,
    run_posted_price,
    run_trial,
    trial_rng,
)
from .pricing import (
    PriceVector,
    PricingScheme,
    Segment,
    build_pricing_scheme_k2,
    build_scheme,
    inverse_price,
    price_at,
    prices_for_seeds,
    scheme_from_json,
    scheme_to_json,
    static_prices_for_quantiles,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

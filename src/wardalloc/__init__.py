"""Hospital ward-excellence planning under two financing regimes.

Local financing is a finite game: every hospital picks the ward type it makes
excellent and patients split by district population; the solver enumerates
its pure Nash equilibria. Central financing is a budgeted facility-location
problem: a planner picks which upgrades to fund and patients go to their
cheapest destination; the suite provides a greedy heuristic, an exact
ward-by-ward solver, and a CPLEX-LP export for cross-validation.
"""

from .central_plan import (
    EMPTY_EXCELLENCE,
    EXACT_ENUMERATION_CAP,
    OUTSIDE,
    ExcellenceSet,
    GreedyStep,
    PlanSolution,
    StaircaseVerdict,
    TotalOrders,
    admissible,
    check_staircase,
    evaluate_Z,
    exact_solve,
    export_ilp,
    greedy_solve,
    hospital_order,
    plan_to_dict,
    total_orders,
    ward_order,
)
from .errors import (
    AssumptionViolationError,
    BudgetExceededError,
    GenerationError,
    InstanceTooLargeError,
    InvalidInstanceError,
    WardallocError,
)
from .local_game import (
    PROFILE_ENUMERATION_CAP,
    DiversificationVerdict,
    EquilibriumReport,
    PayoffTensor,
    StrategyProfile,
    build_payoff_tensor,
    diversification_verdict,
    enumerate_pure_nash,
    equilibrium_report_to_dict,
    payoff,
)
from .scenario import (
    PROFILES,
    SCHEMA_VERSION,
    AssumptionReport,
    DemandCell,
    ScenarioInstance,
    Violation,
    all_assumptions,
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
    dumps_scenario,
    format_rational,
    generate_scenario,
    instance_from_dict,
    instance_to_dict,
    largest_remainder_split,
    load_scenario,
    parse_rational,
    save_scenario,
)

__version__ = "0.1.0"

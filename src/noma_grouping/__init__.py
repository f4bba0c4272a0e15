"""QoS-aware user grouping and power minimization for multi-cell NOMA downlinks.

The experiment harness and its command line front end are not imported
here: their names live in noma_grouping.harness and noma_grouping.cli.
"""

from .scenario import (
    ChannelGains,
    Scenario,
    ScenarioGenerationError,
    SimConfig,
    draw_channel_gains,
    generate_scenario,
    noise_power_w,
    default_config,
    path_loss_db,
)
from .power import (
    CcinrTable,
    Grouping,
    InfeasibleSolutionError,
    PowerSolution,
    achieved_rates,
    assemble_coupling,
    decode_orders,
    solve_all_powers,
    solve_coupling,
    total_power,
    user_powers,
)
from .graph import (
    ChannelTotals,
    EbaBudgetExhausted,
    League,
    LeagueGraph,
    StaleLeagueError,
    VirtualUser,
    apply_league,
    fga_candidates,
    find_negative_loop_eba,
    is_improvement,
)
from .game import (
    GameTrace,
    initial_grouping,
    run_game,
)
from .baselines import (
    InstanceTooLargeError,
    enumerate_leagues,
    exhaustive_best_grouping,
    gale_shapley_grouping,
    is_nash_equilibrium,
    sccd_grouping,
)

__version__ = "0.1.0"

"""QoS-aware user grouping and power minimization for multi-cell NOMA downlinks."""

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
    ccinr,
    decode_orders,
    solve_all_powers,
    solve_coupling,
    total_power,
    user_powers,
)
from .graph import (
    EbaBudgetExhausted,
    League,
    LeagueGraph,
    StaleLeagueError,
    VirtualUser,
    apply_league,
    build_graph,
    dump_adjacency_csv,
    find_negative_loop_eba,
    find_negative_loop_fga,
)
from .game import (
    Action,
    GameTrace,
    action_effect,
    initial_grouping,
    is_nash_equilibrium,
    run_game,
)
from .baselines import (
    InstanceTooLargeError,
    StrategyKind,
    enumerate_leagues,
    exhaustive_best_grouping,
    gale_shapley_grouping,
    sccd_grouping,
)
from .harness import (
    ExperimentSpec,
    TrialResult,
    load_config,
    run_experiment,
    run_strategy,
    summarize,
)

__version__ = "0.1.0"

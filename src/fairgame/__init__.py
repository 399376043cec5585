"""Fair-altruistic game transforms and proportionally fair multi-agent
policy-gradient learning on desk-scale social dilemmas.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    FairgameError,
    SchemaError,
    StaleBufferError,
)
from .games import (
    Allocation,
    DilemmaClass,
    DilemmaKind,
    DilemmaPayoffs,
    NormalFormGame,
    altruism_level_bruteforce,
    altruism_level_closed_form,
    altruistic_extension,
    as_dilemma_payoffs,
    check_consistency_ts_r2,
    check_proportionally_fair,
    classify_social_dilemma,
    find_pure_nash,
    pf_optimum,
    shift_payoffs,
    social_optima,
)
from .markov import (
    AltruismWeights,
    FairGradient,
    SoftmaxPolicyProfile,
    TabularMarkovGame,
    ValueBundle,
    baseline_zero_check,
    bellman_apply,
    exact_fair_gradient,
    fair_advantage,
    fair_objective,
    joint_policy_prob,
    mc_fair_gradient,
    proportional_fair_state_value,
    solve_values,
)
from .envs import (
    EnvStep,
    MarkovGameEnv,
    MiniCleanupConfig,
    MiniCleanupEnv,
    RepeatedMatrixGameEnv,
    matrix_markov_game,
    mini_cleanup_env,
    random_markov_game,
    repeated_matrix_env,
)
from .learning import (
    Algorithm,
    CriticTable,
    ObjectiveMode,
    RolloutBuffer,
    TrainConfig,
    TrainResult,
    a2c_update,
    combine_fair_advantages,
    combine_utilitarian_advantages,
    compute_gae,
    ppo_update,
    save_policy_snapshot,
    train,
)
from .formats import load_policy_snapshot
from .metrics import EpisodeMetrics, emit_plot_data, gini, rolling_aggregate

__version__ = "0.1.0"

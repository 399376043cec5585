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
    fair_objective,
    mc_fair_gradient,
    solve_values,
)
from .envs import (
    EnvStep,
    MarkovGameEnv,
    MiniCleanupConfig,
    MiniCleanupEnv,
    RepeatedMatrixGameEnv,
    matrix_markov_game,
    random_markov_game,
)
from .learning import (
    Algorithm,
    EpisodeTable,
    ObjectiveMode,
    RolloutBuffer,
    TrainConfig,
    TrainResult,
    a2c_update,
    combine_fair_advantages,
    compute_gae,
    ppo_update,
    save_policy_snapshot,
    train,
)
from .formats import load_policy_snapshot
from .metrics import emit_plot_data, gini, rolling_aggregate, write_panels

__version__ = "0.1.0"

"""Desk-scale lab for in-context policy optimization.

A regularized bandit expert generates rollouts; a one-layer linear
self-attention student is trained to match its logits under a Fisher-weighted
loss; closed-loop matching and reward-shock experiments validate the theory;
and a minimum-entropy refinement loop applies the same idea to text
generation at inference time.
"""

from .bandit import CrnStream, History, HistoryStep, coupled_sample, draw_reward, sample_task
from .errors import (
    GeneratorError,
    IcpoError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidParamsError,
    NoConsensusError,
    RankDeficiencyError,
    StepSizeError,
)
from .lsa import (
    LsaParams,
    TwoChannelParams,
    build_embedding,
    closed_form_logits,
    extract_two_channel,
    lsa_forward,
    project,
    realize_teacher_params,
    teacher_two_channel,
    two_channel_logits,
)
from .loop import (
    MatchingReport,
    ShockReport,
    matching_experiment,
    rollout,
    shock_bound,
    shock_constants,
    shock_experiment,
)
from .pretrain import (
    FisherStats,
    PretrainDataset,
    empirical_stats,
    fisher_matrix,
    generate_dataset,
    gradient,
    load_dataset,
    load_params,
    loss_direct,
    loss_quadratic,
    save_dataset,
    save_params,
    solve_ls,
    train_gd,
)
from .teacher import MixedPolicy, TeacherConfig, coverage_margin, mix_policy, softmax, teacher_logits

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

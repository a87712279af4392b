"""Minimum-entropy in-context refinement: loop, generators, voting, metrics."""

from .answers import VoteResult, canonicalize, extract_answer, majority_vote
from .generator import (
    CallAccounting,
    FunctionGenerator,
    GeneratorRequest,
    GeneratorResponse,
    HttpGenerator,
    Message,
    ScriptedGenerator,
    count_tokens,
)
from .loop import (
    Candidate,
    IcpoHistory,
    MeIcpoConfig,
    MeIcpoResult,
    RoundTrace,
    run_me_icpo,
    write_trace_jsonl,
)
from .metrics import RunMetrics, compute_metrics
from .prompts import MODES, summarization_prompt, system_prompt

__all__ = [name for name in dir() if not name.startswith("_")]

"""Minimum-entropy in-context refinement over a pluggable generator.

Per round: sample k candidate responses, reward them by majority vote over
their extracted answers, summarize each, tentatively append each (summary,
reward) pair to the running context, and commit the candidate whose tentative
context yields the lowest predictive answer entropy.  After the final round a
single response is sampled from the accumulated context.

A round makes two generator calls: one for the candidates, and one for the k
summaries with, under `selection = entropy`, look-ahead j as the follow-up of
summary j (`Generator.generate(summaries, then)`).  Look-ahead j is built from
summary j and reward j alone, so a generator may send it as soon as summary j
is back.  Results are assembled by candidate index and accounted in candidate
order, so the outcome does not depend on the order in which calls finish.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from ..atomic import write_atomic
from ..errors import InvalidConfigError
from .answers import canonicalize, extract_answer, majority_vote
from .generator import (
    CallAccounting,
    Generator,
    GeneratorRequest,
    GeneratorResponse,
    Message,
    count_tokens,
)
from .prompts import MODES, summarization_prompt, system_prompt


@dataclass(frozen=True)
class IcpoHistory:
    """The running context: system prompt, question, and committed idea/reward pairs."""

    system: str
    question: str
    pairs: tuple[tuple[str, int], ...] = ()

    def extended(self, summary: str, reward: int) -> "IcpoHistory":
        return replace(self, pairs=self.pairs + ((summary, reward),))

    def render_messages(self, include_rewards: bool = True) -> tuple[Message, ...]:
        """Chat messages for the next sampling call.

        With reward tags the committed ideas are grouped into reward-0 and
        reward-1 blocks; without them they appear as one untagged list.
        """
        blocks = [self.question]
        if self.pairs:
            if include_rewards:
                for reward, label in ((0, "bad ideas (reward 0):"), (1, "good ideas (reward 1):")):
                    group = [s for s, r in self.pairs if r == reward]
                    if group:
                        lines = "\n\n".join(f"[{i}]- {s}" for i, s in enumerate(group))
                        blocks.append(f"{label}\n\n{lines}")
            else:
                lines = "\n\n".join(f"[{i}]- {s}" for i, (s, _) in enumerate(self.pairs))
                blocks.append(f"ideas from previous attempts:\n\n{lines}")
        return (Message("system", self.system), Message("user", "\n\n".join(blocks)))


@dataclass
class Candidate:
    """One sampled response and everything the round learned about it."""

    text: str
    answer: Optional[str]
    reward: int = 0
    summary: str = ""
    summary_truncated: bool = False
    entropy: Optional[float] = None
    selected: bool = False


@dataclass
class RoundTrace:
    round_index: int
    skipped: bool
    candidates: list[Candidate] = field(default_factory=list)


@dataclass(frozen=True)
class MeIcpoConfig:
    """Knobs of the refinement loop; defaults follow the reference protocol."""

    rounds: int = 5
    k: int = 16
    m: int = 16  # lookahead samples for the entropy estimate
    temperature: float = 0.6
    top_p: float = 0.95
    entropy_temperature: float = 0.6
    max_tokens: int = 1024
    lookahead_max_tokens: int = 256
    summary_cap_tokens: int = 500
    mode: str = "numeric"
    include_reward_tags: bool = True  # off reproduces the "w/o Reward" variant
    selection: str = "entropy"  # "reward" reproduces the "w/o Entropy" variant
    final_vote: bool = False  # vote k final samples instead of one greedy sample

    def __post_init__(self):
        if self.rounds < 1 or self.k < 1 or self.m < 1:
            raise InvalidConfigError("rounds, k, and m must all be >= 1")
        if self.mode not in MODES:
            raise InvalidConfigError(f"unknown answer mode {self.mode!r}")
        if self.selection not in ("entropy", "reward"):
            raise InvalidConfigError(f"selection must be 'entropy' or 'reward', got {self.selection!r}")
        for name in ("temperature", "entropy_temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.top_p <= 1:
            raise InvalidConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        for name in ("max_tokens", "lookahead_max_tokens", "summary_cap_tokens"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class MeIcpoResult:
    final_answer: Optional[str]  # canonical form
    final_text: str
    history: IcpoHistory
    rounds: list[RoundTrace]
    accounting: CallAccounting

    def trace_records(self) -> list[dict]:
        """Flat JSON-ready records, one per candidate per round."""
        records = []
        for rnd in self.rounds:
            for j, cand in enumerate(rnd.candidates):
                records.append(
                    {
                        "round": rnd.round_index,
                        "candidate": j,
                        "skipped": rnd.skipped,
                        "text_sha256": hashlib.sha256(cand.text.encode()).hexdigest()[:16],
                        "answer": cand.answer,
                        "reward": cand.reward,
                        "entropy": cand.entropy,
                        "selected": cand.selected,
                        "summary_truncated": cand.summary_truncated,
                        "tokens": count_tokens(cand.text),
                    }
                )
        return records


def write_trace_jsonl(result: MeIcpoResult, path: str | Path) -> None:
    lines = [json.dumps(rec, sort_keys=True) for rec in result.trace_records()]
    write_atomic(path, "\n".join(lines) + "\n")


def _context_request(history: IcpoHistory, cfg: MeIcpoConfig, kind: str = "sample") -> GeneratorRequest:
    """A request on the running context: k samples at the sampling settings (`sample`),
    m look-ahead samples at the entropy temperature (`lookahead`), or one greedy sample."""
    n, temperature, top_p, max_tokens = {
        "sample": (cfg.k, cfg.temperature, cfg.top_p, cfg.max_tokens),
        "lookahead": (cfg.m, cfg.entropy_temperature, 1.0, cfg.lookahead_max_tokens),
        "greedy": (1, 0.0, 1.0, cfg.max_tokens),
    }[kind]
    return GeneratorRequest(
        messages=history.render_messages(cfg.include_reward_tags),
        temperature=temperature,
        top_p=top_p,
        max_tokens=max_tokens,
        n=n,
    )


def _summary_request(text: str, mode: str, cap_tokens: int) -> GeneratorRequest:
    return GeneratorRequest(
        messages=(Message("user", summarization_prompt(mode, text)),),
        temperature=0.0,
        top_p=1.0,
        max_tokens=cap_tokens,
        n=1,
    )


def _summary_of(response: GeneratorResponse, cap_tokens: int) -> tuple[str, bool]:
    """(summary, truncated); the cap holds on whitespace tokens even if the backend ignored max_tokens."""
    summary = response.texts[0].strip()
    words = summary.split()
    if len(words) > cap_tokens:
        return " ".join(words[:cap_tokens]), True
    return summary, False


def _entropy_of(response: GeneratorResponse, mode: str) -> float:
    """Shannon entropy (nats) of the sampled answers, pooled by canonical form.

    All absent answers share one bucket, so a context that derails the
    generator scores high.
    """
    buckets: dict[str, int] = {}
    for text in response.texts:
        answer = canonicalize(extract_answer(text, mode), mode)
        key = answer if answer is not None else "<no-answer>"
        buckets[key] = buckets.get(key, 0) + 1
    total = sum(buckets.values())
    return -sum((c / total) * math.log(c / total) for c in buckets.values())


def run_me_icpo(question: str, cfg: MeIcpoConfig, generator: Generator) -> MeIcpoResult:
    """Execute the full refinement loop and sample the final response.

    A round where no candidate yields an extractable answer is skipped: the
    context is left unchanged and the skip is logged in the trace.  The final
    answer is the vote over k final samples (`final_vote`) or over one greedy
    sample.
    """
    history = IcpoHistory(system=system_prompt(cfg.mode, cfg.include_reward_tags), question=question)
    accounting = CallAccounting()
    rounds: list[RoundTrace] = []

    for round_index in range(1, cfg.rounds + 1):
        [response] = generator.generate([_context_request(history, cfg)])
        accounting.add("candidates", response)
        candidates = [Candidate(text=t, answer=extract_answer(t, cfg.mode)) for t in response.texts]

        trace = RoundTrace(round_index=round_index, skipped=False, candidates=candidates)
        if all(c.answer is None for c in candidates):
            trace.skipped = True
            rounds.append(trace)
            continue

        vote = majority_vote([c.answer for c in candidates], cfg.mode)

        def lookahead(j: int, response: GeneratorResponse) -> GeneratorRequest:
            summary, _ = _summary_of(response, cfg.summary_cap_tokens)
            return _context_request(history.extended(summary, vote.rewards[j]), cfg, "lookahead")

        entropy = cfg.selection == "entropy"
        summaries = [_summary_request(c.text, cfg.mode, cfg.summary_cap_tokens) for c in candidates]
        responses = generator.generate(summaries, lookahead if entropy else None)
        for cand, reward, response in zip(candidates, vote.rewards, responses):
            cand.reward = reward
            cand.summary, cand.summary_truncated = _summary_of(response, cfg.summary_cap_tokens)
            accounting.add("summarize", response)
        for cand, response in zip(candidates, responses[len(candidates) :]):
            cand.entropy = _entropy_of(response, cfg.mode)
            accounting.add("entropy", response)
        rank = (lambda c: c.entropy) if entropy else (lambda c: -c.reward)
        best = min(range(len(candidates)), key=lambda j: (rank(candidates[j]), j))

        candidates[best].selected = True
        history = history.extended(candidates[best].summary, candidates[best].reward)
        rounds.append(trace)

    [response] = generator.generate([_context_request(history, cfg, "sample" if cfg.final_vote else "greedy")])
    accounting.add("final", response)
    answers = [extract_answer(t, cfg.mode) for t in response.texts]
    final_text, final_answer = response.texts[0], None
    if any(a is not None for a in answers):
        vote = majority_vote(answers, cfg.mode)
        final_answer = vote.answer
        final_text = next(t for t, a in zip(response.texts, answers) if canonicalize(a, cfg.mode) == final_answer)
    return MeIcpoResult(
        final_answer=final_answer,
        final_text=final_text,
        history=history,
        rounds=rounds,
        accounting=accounting,
    )

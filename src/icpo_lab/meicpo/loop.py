"""Minimum-entropy in-context refinement over a pluggable generator.

Per round: sample k candidate responses, reward them by majority vote over
their extracted answers, summarize each, tentatively append each (summary,
reward) pair to the running context, and commit the candidate whose tentative
context yields the lowest predictive answer entropy.  After the final round a
single response is sampled from the accumulated context.

The k summaries of a round go to the generator as one `generate_many` wave,
and so do the k entropy look-aheads; results are assembled by candidate
index, so the outcome does not depend on the order in which calls finish.
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
    vote_answer: Optional[str] = None
    vote_tie: bool = False


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
    system: Optional[str] = None  # override the per-mode system prompt

    def __post_init__(self):
        if self.rounds < 1 or self.k < 1 or self.m < 1:
            raise InvalidConfigError("rounds, k, and m must all be >= 1")
        if self.mode not in MODES:
            raise InvalidConfigError(f"unknown answer mode {self.mode!r}")
        if self.selection not in ("entropy", "reward"):
            raise InvalidConfigError(f"selection must be 'entropy' or 'reward', got {self.selection!r}")


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
            if rnd.skipped and not rnd.candidates:
                records.append({"round": rnd.round_index, "skipped": True})
                continue
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


def _summary_request(text: str, mode: str, cap_tokens: int) -> GeneratorRequest:
    return GeneratorRequest(
        messages=(Message("user", summarization_prompt(mode, text)),),
        temperature=0.0,
        top_p=1.0,
        max_tokens=cap_tokens,
        n=1,
    )


def _summary_of(response: GeneratorResponse, cap_tokens: int) -> tuple[str, bool]:
    summary = response.texts[0].strip()
    words = summary.split()
    if len(words) > cap_tokens:
        return " ".join(words[:cap_tokens]), True
    return summary, False


def summarize(
    text: str,
    generator: Generator,
    mode: str,
    cap_tokens: int = 500,
    accounting: CallAccounting | None = None,
) -> tuple[str, bool]:
    """Greedy-decode a compressed idea for one candidate; enforce the hard cap.

    Returns (summary, truncated).  The cap is enforced locally on whitespace
    tokens even if the backend ignored max_tokens.
    """
    response = generator.generate(_summary_request(text, mode, cap_tokens))
    if accounting is not None:
        accounting.add("summarize", response)
    return _summary_of(response, cap_tokens)


def _lookahead_request(
    history: IcpoHistory, m: int, temperature: float, max_tokens: int, include_reward_tags: bool
) -> GeneratorRequest:
    if m < 1:
        raise InvalidConfigError(f"need at least one lookahead sample, got m={m}")
    return GeneratorRequest(
        messages=history.render_messages(include_reward_tags),
        temperature=temperature,
        top_p=1.0,
        max_tokens=max_tokens,
        n=m,
    )


def _entropy_of(response: GeneratorResponse, mode: str) -> float:
    buckets: dict[str, int] = {}
    for text in response.texts:
        answer = canonicalize(extract_answer(text, mode), mode)
        key = answer if answer is not None else "<no-answer>"
        buckets[key] = buckets.get(key, 0) + 1
    total = sum(buckets.values())
    return -sum((c / total) * math.log(c / total) for c in buckets.values())


def estimate_entropy(
    history: IcpoHistory,
    generator: Generator,
    m: int,
    temperature: float,
    mode: str,
    max_tokens: int = 256,
    include_reward_tags: bool = True,
    accounting: CallAccounting | None = None,
) -> float:
    """Shannon entropy (nats) of the answer distribution after `history`.

    Estimated from m sampled completions; answers are pooled by canonical
    form with all absent answers sharing one bucket, so a context that
    derails the generator scores high.
    """
    request = _lookahead_request(history, m, temperature, max_tokens, include_reward_tags)
    response = generator.generate(request)
    if accounting is not None:
        accounting.add("entropy", response)
    return _entropy_of(response, mode)


def _wave(
    generator: Generator, requests: list[GeneratorRequest], purpose: str, accounting: CallAccounting
) -> list[GeneratorResponse]:
    """Send independent requests as one wave; account in request order."""
    responses = generator.generate_many(requests)
    for response in responses:
        accounting.add(purpose, response)
    return responses


def run_me_icpo(question: str, cfg: MeIcpoConfig, generator: Generator) -> MeIcpoResult:
    """Execute the full refinement loop and sample the final response.

    A round where no candidate yields an extractable answer is skipped: the
    context is left unchanged and the skip is logged in the trace.
    """
    system = cfg.system if cfg.system is not None else system_prompt(cfg.mode, cfg.include_reward_tags)
    history = IcpoHistory(system=system, question=question)
    accounting = CallAccounting()
    rounds: list[RoundTrace] = []

    for round_index in range(1, cfg.rounds + 1):
        request = GeneratorRequest(
            messages=history.render_messages(cfg.include_reward_tags),
            temperature=cfg.temperature,
            top_p=cfg.top_p,
            max_tokens=cfg.max_tokens,
            n=cfg.k,
        )
        response = generator.generate(request)
        accounting.add("candidates", response)
        candidates = [Candidate(text=t, answer=extract_answer(t, cfg.mode)) for t in response.texts]

        trace = RoundTrace(round_index=round_index, skipped=False, candidates=candidates)
        if all(c.answer is None for c in candidates):
            trace.skipped = True
            rounds.append(trace)
            continue

        vote = majority_vote([c.answer for c in candidates], cfg.mode)
        trace.vote_answer = vote.answer
        trace.vote_tie = vote.tie
        summaries = _wave(
            generator,
            [_summary_request(c.text, cfg.mode, cfg.summary_cap_tokens) for c in candidates],
            "summarize",
            accounting,
        )
        for cand, reward, response in zip(candidates, vote.rewards, summaries):
            cand.reward = reward
            cand.summary, cand.summary_truncated = _summary_of(response, cfg.summary_cap_tokens)

        if cfg.selection == "entropy":
            lookaheads = _wave(
                generator,
                [
                    _lookahead_request(
                        history.extended(c.summary, c.reward),
                        cfg.m,
                        cfg.entropy_temperature,
                        cfg.lookahead_max_tokens,
                        cfg.include_reward_tags,
                    )
                    for c in candidates
                ],
                "entropy",
                accounting,
            )
            for cand, response in zip(candidates, lookaheads):
                cand.entropy = _entropy_of(response, cfg.mode)
            best = min(range(len(candidates)), key=lambda j: (candidates[j].entropy, j))
        else:
            best = max(range(len(candidates)), key=lambda j: (candidates[j].reward, -j))

        candidates[best].selected = True
        history = history.extended(candidates[best].summary, candidates[best].reward)
        rounds.append(trace)

    final_text, final_answer = _final_response(history, cfg, generator, accounting)
    return MeIcpoResult(
        final_answer=final_answer,
        final_text=final_text,
        history=history,
        rounds=rounds,
        accounting=accounting,
    )


def _final_response(
    history: IcpoHistory,
    cfg: MeIcpoConfig,
    generator: Generator,
    accounting: CallAccounting,
) -> tuple[str, Optional[str]]:
    if cfg.final_vote:
        request = GeneratorRequest(
            messages=history.render_messages(cfg.include_reward_tags),
            temperature=cfg.temperature,
            top_p=cfg.top_p,
            max_tokens=cfg.max_tokens,
            n=cfg.k,
        )
        response = generator.generate(request)
        accounting.add("final", response)
        answers = [extract_answer(t, cfg.mode) for t in response.texts]
        if all(a is None for a in answers):
            return response.texts[0], None
        vote = majority_vote(answers, cfg.mode)
        pick = next(j for j, a in enumerate(answers) if canonicalize(a, cfg.mode) == vote.answer)
        return response.texts[pick], vote.answer
    request = GeneratorRequest(
        messages=history.render_messages(cfg.include_reward_tags),
        temperature=0.0,
        top_p=1.0,
        max_tokens=cfg.max_tokens,
        n=1,
    )
    response = generator.generate(request)
    accounting.add("final", response)
    text = response.texts[0]
    return text, canonicalize(extract_answer(text, cfg.mode), cfg.mode)

"""Benchmark-style aggregate metrics over per-question answer samples."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .answers import canonicalize


@dataclass
class RunMetrics:
    """Mean@k, single-attempt Accuracy, and Maj@k over a question set.

    Accuracy scores the first sample of each question.  Majority ties are
    broken uniformly at random with the recorded seed; `ties` counts how
    many questions needed a tie-break.
    """

    mean_at_k: float
    accuracy: float
    maj_at_k: float
    k: int
    tie_seed: int
    ties: int
    per_question_mean: list[float] = field(default_factory=list)
    per_question_first: list[int] = field(default_factory=list)
    per_question_maj: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mean_at_k": self.mean_at_k,
            "accuracy": self.accuracy,
            "maj_at_k": self.maj_at_k,
            "k": self.k,
            "tie_seed": self.tie_seed,
            "ties": self.ties,
            "per_question_mean": self.per_question_mean,
            "per_question_first": self.per_question_first,
            "per_question_maj": self.per_question_maj,
        }


def compute_metrics(
    answers_per_question: Sequence[Sequence[Optional[str]]],
    golds: Sequence[str],
    mode: str = "numeric",
    tie_seed: int = 0,
) -> RunMetrics:
    """Score k answer samples per question against the gold answers.

    Absent answers count as wrong everywhere; for Maj@k they pool into a
    no-answer bucket that can win the vote (and then scores 0).
    """
    if len(answers_per_question) == 0:
        raise ValueError("need at least one question")
    if len(answers_per_question) != len(golds):
        raise ValueError(f"{len(answers_per_question)} answer lists vs {len(golds)} golds")
    k = len(answers_per_question[0])
    if k < 1 or any(len(row) != k for row in answers_per_question):
        raise ValueError("every question needs the same k >= 1 samples")

    per_mean: list[float] = []
    per_first: list[int] = []
    per_maj: list[int] = []
    ties = 0
    for qi, (row, gold) in enumerate(zip(answers_per_question, golds)):
        gold_c = canonicalize(gold, mode)
        canon = [canonicalize(a, mode) for a in row]
        correct = [int(a is not None and a == gold_c) for a in canon]
        per_mean.append(sum(correct) / k)
        per_first.append(correct[0])

        counts = Counter(a if a is not None else "<no-answer>" for a in canon)
        top = max(counts.values())
        winners = sorted(a for a, c in counts.items() if c == top)
        if len(winners) > 1:
            ties += 1
            rng = np.random.default_rng([tie_seed, qi])
            winner = winners[int(rng.integers(len(winners)))]
        else:
            winner = winners[0]
        per_maj.append(int(winner == gold_c))

    return RunMetrics(
        mean_at_k=float(np.mean(per_mean)),
        accuracy=float(np.mean(per_first)),
        maj_at_k=float(np.mean(per_maj)),
        k=k,
        tie_seed=tie_seed,
        ties=ties,
        per_question_mean=per_mean,
        per_question_first=per_first,
        per_question_maj=per_maj,
    )

"""Answer extraction, canonicalization, and majority voting over candidates."""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional, Sequence

from ..errors import NoConsensusError

_NUMERIC_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)")


def _last_boxed_content(text: str) -> Optional[str]:
    """Content of the last balanced boxed{...} block, None if there is none.

    Scans back from the last `boxed{`, so a response ending in its answer is
    read from its tail only.
    """
    marker = "boxed{"
    idx = text.rfind(marker)
    while idx >= 0:
        depth = 0
        for j in range(idx + len(marker) - 1, len(text)):
            ch = text[j]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return text[idx + len(marker) : j]
        idx = text.rfind(marker, 0, idx)
    return None


def extract_answer(text: str, mode: str = "numeric") -> Optional[str]:
    """Pull the final answer out of a response per the answer-format contract.

    Looks at the last boxed{} block only; a response with no valid block
    yields None, which is a value (a corrupted candidate), not an error.
    """
    content = _last_boxed_content(text)
    if content is None:
        return None
    content = content.strip()
    if mode == "numeric":
        return content if _NUMERIC_RE.fullmatch(content) else None
    if mode == "letter":
        return content.upper() if content.upper() in ("A", "B", "C", "D") else None
    if mode == "freeform":
        return content if content else None
    raise ValueError(f"unknown answer mode {mode!r}")


@functools.lru_cache(maxsize=4096)
def canonicalize(answer: Optional[str], mode: str = "numeric") -> Optional[str]:
    """Normalize an answer for voting: '204.0' and '204' must agree in numeric mode."""
    if answer is None:
        return None
    answer = answer.strip()
    if mode == "numeric":
        try:
            value = Decimal(answer)
        except InvalidOperation:
            return None
        if value == value.to_integral_value():
            value = value.to_integral_value()
        text = format(value.normalize(), "f")
        return "0" if text == "-0" else text
    if mode == "letter":
        return answer.upper()
    return answer


@dataclass
class VoteResult:
    answer: str  # canonical mode answer
    rewards: list[int]
    tie: bool


def majority_vote(answers: Sequence[Optional[str]], mode: str = "numeric") -> VoteResult:
    """Mode over present answers; reward 1 exactly where a candidate matches it.

    Ties go to the lexicographically smallest canonical answer and are
    flagged.  Absent answers never earn reward.  Raises when every answer is
    absent, since no vote exists.
    """
    canonical = [canonicalize(a, mode) for a in answers]
    present = [a for a in canonical if a is not None]
    if not present:
        raise NoConsensusError("no candidate produced an extractable answer")
    counts = Counter(present)
    top = max(counts.values())
    winners = sorted(a for a, c in counts.items() if c == top)
    winner = winners[0]
    rewards = [1 if a == winner else 0 for a in canonical]
    return VoteResult(answer=winner, rewards=rewards, tie=len(winners) > 1)

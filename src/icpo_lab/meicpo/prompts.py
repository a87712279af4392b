"""Prompt templates shipped as text assets, keyed by answer mode.

Modes: "numeric" (competition math, decimal answers), "letter" (multiple
choice A-D), "freeform" (anything goes).  Summarization templates carry an
`{answer}` slot that is substituted literally.
"""

from __future__ import annotations

import functools
from importlib import resources

MODES = ("numeric", "letter", "freeform")


@functools.cache
def _load(name: str) -> str:
    return resources.files(__package__).joinpath("prompts", name).read_text()


_REWARD_TAG_CLAUSE = "; each idea is tagged with reward 1 (correct) or reward 0 (incorrect)"


def system_prompt(mode: str, include_rewards: bool = True) -> str:
    """Per-mode system prompt; without rewards the tag-semantics clause is dropped."""
    if mode not in MODES:
        raise ValueError(f"unknown answer mode {mode!r}; expected one of {MODES}")
    text = _load(f"system_{mode}.txt").strip()
    if not include_rewards:
        text = text.replace(_REWARD_TAG_CLAUSE, "")
    return text


def summarization_prompt(mode: str, answer_text: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown answer mode {mode!r}; expected one of {MODES}")
    return _load(f"summ_{mode}.txt").strip().replace("{answer}", answer_text)

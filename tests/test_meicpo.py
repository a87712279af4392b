"""Refinement-loop tests: extraction, voting, entropy selection, metrics, HTTP client."""

import json
import math
import random
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests

from icpo_lab.errors import GeneratorError, InvalidConfigError, NoConsensusError
from icpo_lab.meicpo import (
    FunctionGenerator,
    GeneratorRequest,
    HttpGenerator,
    IcpoHistory,
    MeIcpoConfig,
    Message,
    ScriptedGenerator,
    canonicalize,
    compute_metrics,
    estimate_entropy,
    extract_answer,
    majority_vote,
    run_me_icpo,
    summarize,
    system_prompt,
)


class TestExtractAnswer:
    def test_basic_numeric(self):
        assert extract_answer("Thus the answer is boxed{204.0}", "numeric") == "204.0"

    def test_absent_is_none(self):
        assert extract_answer("no box here", "numeric") is None

    def test_last_occurrence_wins(self):
        assert extract_answer("boxed{1} ... later boxed{2}", "numeric") == "2"

    def test_latex_macro_form(self):
        assert extract_answer(r"so \boxed{42} holds", "numeric") == "42"

    def test_nested_braces_freeform(self):
        assert extract_answer(r"final: \boxed{\frac{3}{5}}", "freeform") == r"\frac{3}{5}"

    def test_numeric_mode_rejects_non_decimal(self):
        assert extract_answer(r"boxed{\frac{3}{5}}", "numeric") is None
        assert extract_answer("boxed{x+1}", "numeric") is None
        assert extract_answer("boxed{-1.5}", "numeric") == "-1.5"

    def test_letter_mode(self):
        assert extract_answer("boxed{C}", "letter") == "C"
        assert extract_answer("boxed{c}", "letter") == "C"
        assert extract_answer("boxed{E}", "letter") is None

    def test_unbalanced_box_falls_back_to_earlier(self):
        assert extract_answer("boxed{7} junk boxed{unclosed", "numeric") == "7"


class TestCanonicalize:
    def test_numeric_normalization(self):
        assert canonicalize("204.0", "numeric") == "204"
        assert canonicalize("204", "numeric") == "204"
        assert canonicalize("1.50", "numeric") == "1.5"
        assert canonicalize("-0", "numeric") == "0"
        assert canonicalize("+3", "numeric") == "3"

    def test_letter_upper(self):
        assert canonicalize(" b ", "letter") == "B"

    def test_none_passthrough(self):
        assert canonicalize(None, "numeric") is None


class TestMajorityVote:
    def test_simple_mode(self):
        vote = majority_vote(["5", "5", "7"], "numeric")
        assert vote.answer == "5"
        assert vote.rewards == [1, 1, 0]
        assert not vote.tie

    def test_two_way_tie_is_lexicographic_and_flagged(self):
        vote = majority_vote(["5", "7"], "numeric")
        assert vote.answer == "5"
        assert vote.tie

    def test_decimal_variants_vote_together(self):
        vote = majority_vote(["204.0", "204.0", "348.0", None], "numeric")
        assert vote.answer == canonicalize("204.0", "numeric")
        assert vote.rewards == [1, 1, 0, 0]

    def test_all_absent_raises(self):
        with pytest.raises(NoConsensusError):
            majority_vote([None, None], "numeric")

    def test_reward_sum_equals_mode_multiplicity(self):
        """Brute-force oracle over random synthetic answer lists."""
        rng = np.random.default_rng(0)
        pool = ["1", "2", "2.0", "3", None]
        for _ in range(300):
            answers = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 9))]
            if all(a is None for a in answers):
                continue
            vote = majority_vote(answers, "numeric")
            counts = Counter(canonicalize(a, "numeric") for a in answers if a is not None)
            assert sum(vote.rewards) == counts[vote.answer]
            assert counts[vote.answer] == max(counts.values())

    def test_exhaustive_two_candidate_oracle(self):
        """Every 2-candidate outcome against a hand-rolled vote."""
        alphabet = ["1", "2", None]
        for a in alphabet:
            for b in alphabet:
                if a is None and b is None:
                    continue
                vote = majority_vote([a, b], "numeric")
                present = [x for x in (a, b) if x is not None]
                if len(present) == 1 or present[0] == present[1]:
                    assert vote.answer == present[0]
                    assert not vote.tie
                else:
                    assert vote.answer == min(present)
                    assert vote.tie


class TestSummarize:
    def test_echo_contract(self):
        gen = FunctionGenerator(lambda req: ["Echoed idea. boxed{3}"])
        summary, truncated = summarize("full text", gen, "numeric")
        assert summary == "Echoed idea. boxed{3}"
        assert not truncated
        # Greedy decoding request with the candidate wrapped in the template.
        req = gen.requests[0]
        assert req.temperature == 0.0
        assert "full text" in req.messages[0].text
        assert "[Answer start]" in req.messages[0].text

    def test_hard_cap_truncates_and_flags(self):
        long_text = " ".join(f"w{i}" for i in range(600))
        gen = FunctionGenerator(lambda req: [long_text])
        summary, truncated = summarize("x", gen, "numeric", cap_tokens=500)
        assert truncated
        assert len(summary.split()) == 500

    def test_empty_candidate_passes_through(self):
        gen = FunctionGenerator(lambda req: ["summary of nothing"])
        summary, truncated = summarize("", gen, "numeric")
        assert summary == "summary of nothing"
        assert not truncated


class TestEstimateEntropy:
    def _history(self):
        return IcpoHistory(system="sys", question="q")

    def test_point_mass_is_zero(self):
        gen = FunctionGenerator(lambda req: ["boxed{4}"] * req.n)
        assert estimate_entropy(self._history(), gen, m=8, temperature=0.6, mode="numeric") == 0.0

    def test_all_distinct_is_log_m(self):
        gen = FunctionGenerator(lambda req: [f"boxed{{{j}}}" for j in range(req.n)])
        h = estimate_entropy(self._history(), gen, m=4, temperature=0.6, mode="numeric")
        assert h == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_groups(self):
        gen = FunctionGenerator(lambda req: ["boxed{1}", "boxed{1}", "boxed{2}", "boxed{2}"])
        h = estimate_entropy(self._history(), gen, m=4, temperature=0.6, mode="numeric")
        assert h == pytest.approx(math.log(2.0), abs=1e-12)

    def test_absent_answers_pool_into_one_bucket(self):
        gen = FunctionGenerator(lambda req: ["no box", "also none", "boxed{1}", "boxed{1}"])
        h = estimate_entropy(self._history(), gen, m=4, temperature=0.6, mode="numeric")
        assert h == pytest.approx(math.log(2.0), abs=1e-12)

    def test_decimal_variants_share_a_bucket(self):
        gen = FunctionGenerator(lambda req: ["boxed{2}", "boxed{2.0}"])
        assert estimate_entropy(self._history(), gen, m=2, temperature=0.6, mode="numeric") == 0.0


class TestHistoryRendering:
    def test_groups_by_reward_tag(self):
        h = IcpoHistory(system="S", question="Q")
        h = h.extended("wrong idea", 0).extended("right idea", 1).extended("second right", 1)
        user = h.render_messages(include_rewards=True)[1].text
        assert "bad ideas (reward 0):" in user
        assert "good ideas (reward 1):" in user
        assert user.index("bad ideas") < user.index("good ideas")
        assert "[0]- right idea" in user and "[1]- second right" in user

    def test_reward_tags_omittable(self):
        h = IcpoHistory(system="S", question="Q").extended("idea", 1)
        user = h.render_messages(include_rewards=False)[1].text
        assert "reward" not in user
        assert "[0]- idea" in user

    def test_empty_history_is_question_only(self):
        msgs = IcpoHistory(system="S", question="Q").render_messages()
        assert msgs[0] == Message("system", "S")
        assert msgs[1].text == "Q"


def _loop_generator(entropy_map):
    """Mock for full-loop tests.

    Candidate texts are produced from `candidates`; summaries echo a marker;
    lookahead batches answer according to which candidate's marker is in the
    tentative context, with per-candidate answer diversity from entropy_map.
    """
    return FunctionGenerator(_loop_responder(entropy_map))


def _loop_responder(entropy_map):
    """The pure response function behind `_loop_generator`."""

    def respond(req: GeneratorRequest):
        text = "\n".join(m.text for m in req.messages)
        if text.startswith("Provide a concise summary"):
            for j in range(len(entropy_map)):
                if f"CAND{j}" in text:
                    return [f"summary-{j}"]
            return ["summary-?"]
        if req.temperature == 0.0:
            return ["final answer boxed{9}"]
        for j, distinct in entropy_map.items():
            if f"summary-{j}" in text:
                return [f"boxed{{{i % distinct}}}" for i in range(req.n)]
        # First-round candidate sampling: all vote for 7 except the last.
        k = req.n
        texts = [f"CAND{j} boxed{{7}}" for j in range(k - 1)]
        texts.append(f"CAND{k - 1} boxed{{8}}")
        return texts

    return respond


class TestRunMeIcpo:
    def test_single_candidate_single_round(self):
        gen = ScriptedGenerator(
            [
                ["only candidate boxed{5}"],  # round 1 sampling (k=1)
                ["idea summary"],  # summarize
                ["boxed{5}", "boxed{5}"],  # entropy lookahead (m=2)
                ["final boxed{5}"],  # final greedy sample
            ]
        )
        cfg = MeIcpoConfig(rounds=1, k=1, m=2, mode="numeric")
        result = run_me_icpo("Q?", cfg, gen)
        assert result.history.pairs == (("idea summary", 1),)
        assert result.final_answer == "5"
        assert result.rounds[0].candidates[0].reward == 1

    def test_minimum_entropy_candidate_committed(self):
        # Candidate 1's tentative context yields a point mass (entropy 0);
        # the others yield two answers (entropy ln 2).
        gen = _loop_generator({0: 2, 1: 1, 2: 2})
        cfg = MeIcpoConfig(rounds=1, k=3, m=4, mode="numeric")
        result = run_me_icpo("Q?", cfg, gen)
        trace = result.rounds[0]
        entropies = [c.entropy for c in trace.candidates]
        assert entropies[1] == 0.0
        assert entropies[0] == pytest.approx(math.log(2.0))
        assert trace.candidates[1].selected
        assert result.history.pairs[0][0] == "summary-1"
        # The committed entropy is the minimum, by argmin with index ties.
        committed = [c for c in trace.candidates if c.selected][0]
        assert committed.entropy == min(entropies)

    def test_entropy_tie_breaks_to_lowest_index(self):
        gen = _loop_generator({0: 2, 1: 2, 2: 2})
        cfg = MeIcpoConfig(rounds=1, k=3, m=4, mode="numeric")
        result = run_me_icpo("Q?", cfg, gen)
        assert result.rounds[0].candidates[0].selected

    def test_round_without_answers_is_skipped(self):
        gen = ScriptedGenerator(
            [
                ["no box at all", "still none"],  # round 1: skipped
                ["c0 boxed{3}", "c1 boxed{3}"],  # round 2 sampling
                ["s0"],
                ["s1"],  # summaries
                ["boxed{3}"],
                ["boxed{3}"],  # lookaheads (m=1)
                ["final boxed{3}"],
            ]
        )
        cfg = MeIcpoConfig(rounds=2, k=2, m=1, mode="numeric")
        result = run_me_icpo("Q?", cfg, gen)
        assert result.rounds[0].skipped
        assert not result.rounds[1].skipped
        assert len(result.history.pairs) == 1  # grew only in the non-skipped round

    def test_history_grows_by_one_per_round(self):
        gen = _loop_generator({0: 2, 1: 1, 2: 2})
        cfg = MeIcpoConfig(rounds=3, k=3, m=4, mode="numeric")
        result = run_me_icpo("Q?", cfg, gen)
        effective = sum(0 if r.skipped else 1 for r in result.rounds)
        assert len(result.history.pairs) == effective

    def test_reward_greedy_ablation_skips_lookahead(self):
        gen = _loop_generator({0: 2, 1: 1, 2: 2})
        cfg = MeIcpoConfig(rounds=1, k=3, m=4, mode="numeric", selection="reward")
        result = run_me_icpo("Q?", cfg, gen)
        trace = result.rounds[0]
        # Highest reward wins (candidates 0 and 1 voted with the majority;
        # index tie goes low), and no entropy was ever measured.
        assert trace.candidates[0].selected
        assert all(c.entropy is None for c in trace.candidates)
        purposes = {m for m in gen.requests if m.temperature == 0.6 and m.n == 4}
        assert not purposes  # no lookahead batches issued

    def test_without_reward_tags_prompt_is_untagged(self):
        gen = _loop_generator({0: 1, 1: 2, 2: 2})
        cfg = MeIcpoConfig(rounds=2, k=3, m=2, mode="numeric", include_reward_tags=False)
        run_me_icpo("Q?", cfg, gen)
        second_round = [
            r for r in gen.requests if r.n == 3 and any("ideas from previous" in m.text for m in r.messages)
        ]
        assert second_round
        assert all("reward" not in m.text for r in second_round for m in r.messages)

    def test_trace_is_deterministic(self):
        cfg = MeIcpoConfig(rounds=2, k=3, m=4, mode="numeric")
        r1 = run_me_icpo("Q?", cfg, _loop_generator({0: 2, 1: 1, 2: 2}))
        r2 = run_me_icpo("Q?", cfg, _loop_generator({0: 2, 1: 1, 2: 2}))
        assert r1.trace_records() == r2.trace_records()
        assert r1.final_answer == r2.final_answer

    def test_trace_records_structure(self, tmp_path):
        from icpo_lab.meicpo import write_trace_jsonl

        result = run_me_icpo(
            "Q?", MeIcpoConfig(rounds=1, k=3, m=2, mode="numeric"), _loop_generator({0: 1, 1: 2, 2: 2})
        )
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(result, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 3
        assert sum(r["selected"] for r in records) == 1
        assert all(
            {"round", "candidate", "answer", "reward", "entropy", "text_sha256"} <= set(r) for r in records
        )

    def test_accounting_counts_all_calls(self):
        gen = _loop_generator({0: 2, 1: 1, 2: 2})
        cfg = MeIcpoConfig(rounds=1, k=3, m=4, mode="numeric")
        result = run_me_icpo("Q?", cfg, gen)
        acc = result.accounting
        assert acc.calls == 1 + 3 + 3 + 1  # candidates, summaries, lookaheads, final
        assert acc.by_purpose["candidates"]["calls"] == 1
        assert acc.by_purpose["entropy"]["calls"] == 3
        assert acc.completion_tokens > 0

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            MeIcpoConfig(rounds=0)
        with pytest.raises(InvalidConfigError):
            MeIcpoConfig(selection="greedy")
        with pytest.raises(InvalidConfigError):
            MeIcpoConfig(mode="roman")

    def test_system_prompt_defaults_by_mode(self):
        gen = ScriptedGenerator([["boxed{1}"], ["s"], ["boxed{1}"], ["boxed{1}"]])
        run_me_icpo("Q?", MeIcpoConfig(rounds=1, k=1, m=1, mode="letter"), gen)
        assert gen.requests[0].messages[0].text == system_prompt("letter")

    def test_protocol_defaults(self):
        """Reference protocol: 5 rounds of 16 candidates at T=0.6/top-p 0.95,
        16 lookahead samples also at 0.6, summary hard cap of 500 tokens."""
        cfg = MeIcpoConfig()
        assert cfg.rounds == 5
        assert cfg.k == 16
        assert cfg.m == 16
        assert cfg.temperature == 0.6
        assert cfg.top_p == 0.95
        assert cfg.entropy_temperature == 0.6
        assert cfg.summary_cap_tokens == 500


class TestComputeMetrics:
    def test_all_correct(self):
        m = compute_metrics([["1", "1.0"], ["2", "2"]], golds=["1", "2"], mode="numeric")
        assert m.mean_at_k == 1.0 and m.accuracy == 1.0 and m.maj_at_k == 1.0

    def test_half_correct_with_tie(self):
        rates = [
            compute_metrics([["5", "5", "6", "6"]], golds=["5"], mode="numeric", tie_seed=s).maj_at_k
            for s in range(400)
        ]
        m = compute_metrics([["5", "5", "6", "6"]], golds=["5"], mode="numeric")
        assert m.mean_at_k == 0.5
        assert m.accuracy == 1.0  # first sample is correct
        assert m.ties == 1
        assert abs(np.mean(rates) - 0.5) < 0.075  # 3 sigma for 400 fair coin flips

    def test_two_question_enumeration_oracle(self):
        answers = [["3", None, "3"], ["1", "2", "2"]]
        golds = ["3", "2"]
        m = compute_metrics(answers, golds, mode="numeric", tie_seed=0)
        # By hand: q1 has 2/3 correct, first correct, majority 3 -> correct;
        # q2 has 2/3 correct, first wrong, majority 2 -> correct.
        assert m.mean_at_k == pytest.approx((2 / 3 + 2 / 3) / 2)
        assert m.accuracy == pytest.approx(0.5)
        assert m.maj_at_k == 1.0
        assert m.ties == 0

    def test_absent_answers_count_as_wrong(self):
        m = compute_metrics([[None, None, None]], golds=["1"], mode="numeric")
        assert m.mean_at_k == 0.0 and m.maj_at_k == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compute_metrics([], golds=[], mode="numeric")
        with pytest.raises(ValueError):
            compute_metrics([["1"], ["1", "2"]], golds=["1", "2"], mode="numeric")


class _FakeResponse:
    def __init__(self, status_code=200, body=None, headers=None):
        self.status_code = status_code
        self._body = body or {}
        self.text = json.dumps(self._body)
        self.headers = headers or {}

    def json(self):
        return self._body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise GeneratorError(f"HTTP {self.status_code}")


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


class _NotJsonResponse(_FakeResponse):
    def __init__(self):
        super().__init__(200)
        self.text = "<html>gateway</html>"

    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class TestHttpGenerator:
    def _request(self, n=2):
        return GeneratorRequest(messages=(Message("user", "hi"),), n=n, max_tokens=16)

    def test_parses_chat_choices_and_usage(self):
        body = {
            "choices": [{"message": {"content": "a"}}, {"message": {"content": "b"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 7},
        }
        session = _FakeSession([_FakeResponse(200, body)])
        gen = HttpGenerator("http://x/v1/chat", "m", session=session, max_retries=0, backoff=0.0)
        resp = gen.generate(self._request())
        assert resp.texts == ["a", "b"]
        assert resp.prompt_tokens == 11 and resp.completion_tokens == 7

    def test_payload_shape_and_bearer_header(self, monkeypatch):
        monkeypatch.setenv("ICPO_API_KEY", "sekret")
        session = _FakeSession([_FakeResponse(200, {"choices": [{"text": "a"}, {"text": "b"}]})])
        gen = HttpGenerator("http://x/v1/chat", "my-model", session=session, max_retries=0, backoff=0.0)
        gen.generate(self._request())
        post = session.posts[0]
        assert post["json"]["model"] == "my-model"
        assert post["json"]["n"] == 2
        assert post["json"]["messages"] == [{"role": "user", "content": "hi"}]
        assert post["headers"]["Authorization"] == "Bearer sekret"

    def test_retries_server_errors_then_succeeds(self):
        ok = _FakeResponse(200, {"choices": [{"text": "a"}, {"text": "b"}]})
        session = _FakeSession([_FakeResponse(500), _FakeResponse(429), ok])
        gen = HttpGenerator("http://x", "m", session=session, max_retries=2, backoff=0.0)
        assert gen.generate(self._request()).texts == ["a", "b"]
        assert len(session.posts) == 3

    def test_surfaces_after_retry_budget(self):
        session = _FakeSession([_FakeResponse(500)] * 3)
        gen = HttpGenerator("http://x", "m", session=session, max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError):
            gen.generate(self._request())

    def test_client_error_is_not_retried(self):
        session = _FakeSession([_FakeResponse(404)] * 3)
        gen = HttpGenerator("http://x", "m", session=session, max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError, match="HTTP 404"):
            gen.generate(self._request())
        assert len(session.posts) == 1

    @pytest.mark.parametrize(
        "bad",
        [lambda: _FakeResponse(200, {"error": "no choices"}), _NotJsonResponse],
        ids=["missing-choices", "not-json"],
    )
    def test_malformed_body_is_not_retried(self, bad):
        session = _FakeSession([bad() for _ in range(3)])
        gen = HttpGenerator("http://x", "m", session=session, max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError, match="malformed"):
            gen.generate(self._request())
        assert len(session.posts) == 1

    def test_retries_transport_errors_then_succeeds(self):
        ok = _FakeResponse(200, {"choices": [{"text": "a"}, {"text": "b"}]})
        session = _FakeSession([requests.ConnectionError("reset"), requests.Timeout("slow"), ok])
        gen = HttpGenerator("http://x", "m", session=session, max_retries=2, backoff=0.0)
        assert gen.generate(self._request()).texts == ["a", "b"]
        assert len(session.posts) == 3

    def test_choice_count_mismatch_is_error(self):
        session = _FakeSession([_FakeResponse(200, {"choices": [{"text": "only one"}]})] * 2)
        gen = HttpGenerator("http://x", "m", session=session, max_retries=1, backoff=0.0)
        with pytest.raises(GeneratorError):
            gen.generate(self._request(n=2))


class TestRetryAfter:
    """A retried 429/5xx waits max(backoff * attempt, Retry-After seconds)."""

    def _run(self, monkeypatch, statuses_and_headers, backoff=1.0):
        slept = []
        monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
        ok = _FakeResponse(200, {"choices": [{"text": "a"}]})
        session = _FakeSession([_FakeResponse(code, headers=h) for code, h in statuses_and_headers] + [ok])
        retries = len(statuses_and_headers)
        gen = HttpGenerator("http://x", "m", session=session, max_retries=retries, backoff=backoff)
        assert gen.generate(GeneratorRequest(messages=(Message("user", "hi"),), n=1)).texts == ["a"]
        return slept

    def test_seconds_value_extends_the_backoff(self, monkeypatch):
        slept = self._run(monkeypatch, [(429, {"Retry-After": "3"}), (503, {"Retry-After": "2.5"})])
        assert slept == [3.0, 2.5]

    def test_backoff_wins_when_longer(self, monkeypatch):
        slept = self._run(monkeypatch, [(500, {"Retry-After": "0"}), (429, {"Retry-After": "1.5"})])
        assert slept == [1.0, 2.0]

    @pytest.mark.parametrize(
        "value", ["Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-1", "nan", "inf", ""]
    )
    def test_unusable_value_falls_back_to_linear_backoff(self, monkeypatch, value):
        slept = self._run(monkeypatch, [(429, {"Retry-After": value}), (500, {})], backoff=0.25)
        assert slept == [0.25, 0.5]

    def test_header_is_not_carried_to_a_later_attempt(self, monkeypatch):
        slept = self._run(monkeypatch, [(429, {"Retry-After": "4"}), (500, {})], backoff=0.5)
        assert slept == [4.0, 1.0]


class _KeyedSession:
    """Thread-safe fake session answering each post from its payload alone.

    `respond(request)` gives the texts (or an int HTTP status), `delay(request)`
    a wait in seconds, and an optional barrier makes every post wait for the
    rest of the wave.
    """

    def __init__(self, respond, delay=None, barrier=None):
        self.respond = respond
        self.delay = delay
        self.barrier = barrier
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        request = GeneratorRequest(
            messages=tuple(Message(m["role"], m["content"]) for m in json["messages"]),
            temperature=json["temperature"],
            top_p=json["top_p"],
            max_tokens=json["max_tokens"],
            n=json["n"],
        )
        self.posts.append(request)
        if self.barrier is not None:
            self.barrier.wait()
        if self.delay is not None:
            time.sleep(self.delay(request))
        out = self.respond(request)
        if isinstance(out, int):
            return _FakeResponse(out, {"error": request.messages[0].text})
        return _FakeResponse(200, {"choices": [{"text": t} for t in out]})


def _seeded_delay(seed, scale=0.004):
    """A different, reproducible delay per distinct request."""

    def delay(request):
        key = "\n".join(m.text for m in request.messages) + f"|{request.n}|{request.temperature}"
        return scale * random.Random(f"{seed}:{key}").random()

    return delay


def _wave(k):
    return [GeneratorRequest(messages=(Message("user", f"request {i}"),), n=1) for i in range(k)]


class TestConcurrentWaves:
    def test_wave_is_sent_concurrently(self):
        k = 8
        session = _KeyedSession(lambda r: [r.messages[0].text], barrier=threading.Barrier(k, timeout=5))
        gen = HttpGenerator("http://x", "m", session=session, max_retries=0, backoff=0.0)
        responses = gen.generate_many(_wave(k))
        assert [r.texts for r in responses] == [[f"request {i}"] for i in range(k)]

    def test_responses_come_back_by_index(self):
        k = 12
        order = random.Random(5).sample(range(k), k)
        finished = []

        def respond(request):
            finished.append(request.messages[0].text)
            return [request.messages[0].text.upper()]

        session = _KeyedSession(respond, delay=lambda r: 0.003 * order[int(r.messages[0].text.split()[1])])
        gen = HttpGenerator("http://x", "m", session=session, max_retries=0, backoff=0.0)
        responses = gen.generate_many(_wave(k))
        assert [r.texts for r in responses] == [[f"REQUEST {i}"] for i in range(k)]
        assert finished != [f"request {i}" for i in range(k)]  # completion order differed

    def test_lowest_index_failure_is_raised_after_the_whole_wave(self):
        k = 6

        def respond(request):
            index = int(request.messages[0].text.split()[1])
            return 404 if index in (2, 4) else [request.messages[0].text]

        # Request 2 fails last in time, yet its error is the one raised.
        session = _KeyedSession(respond, delay=lambda r: 0.05 if r.messages[0].text == "request 2" else 0.0)
        gen = HttpGenerator("http://x", "m", session=session, max_retries=0, backoff=0.0)
        with pytest.raises(GeneratorError, match="request 2"):
            gen.generate_many(_wave(k))
        assert len(session.posts) == k

    def test_empty_and_single_waves(self):
        session = _KeyedSession(lambda r: ["x"])
        gen = HttpGenerator("http://x", "m", session=session, max_retries=0, backoff=0.0)
        assert gen.generate_many([]) == []
        assert [r.texts for r in gen.generate_many(_wave(1))] == [["x"]]

    @pytest.mark.parametrize("selection", ["entropy", "reward"])
    def test_concurrent_run_equals_sequential_run(self, selection):
        entropy_map = {0: 2, 1: 3, 2: 1, 3: 2, 4: 1}
        cfg = MeIcpoConfig(rounds=3, k=5, m=4, mode="numeric", selection=selection)
        sequential = run_me_icpo("Q?", cfg, FunctionGenerator(_loop_responder(entropy_map)))
        session = _KeyedSession(_loop_responder(entropy_map), delay=_seeded_delay(3))
        http = HttpGenerator("http://x", "m", session=session, max_retries=0, backoff=0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches than cores, to shake out ordering bugs
        try:
            concurrent = run_me_icpo("Q?", cfg, http)
        finally:
            sys.setswitchinterval(interval)
        assert concurrent.trace_records() == sequential.trace_records()
        assert concurrent.accounting.to_dict() == sequential.accounting.to_dict()
        assert concurrent.history == sequential.history
        assert concurrent.final_text == sequential.final_text

    def test_scripted_waves_keep_fifo_order(self):
        gen = ScriptedGenerator([["a"], ["b"], ["c"]])
        responses = gen.generate_many(_wave(3))
        assert [r.texts for r in responses] == [["a"], ["b"], ["c"]]
        assert gen.requests == _wave(3)


class _WaveHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.peers.add(self.client_address)
        self.server.barrier.wait()
        data = json.dumps({"choices": [{"text": body["messages"][0]["content"]}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_own_session_keeps_a_connection_per_wave_slot():
    """Two 16-wide waves over loopback open 16 connections, not 16 + 6.

    The default keep-alive pool holds 10; a session the generator builds
    itself must keep every connection of the widest wave for the next one.
    """
    k = 16
    server = ThreadingHTTPServer(("127.0.0.1", 0), _WaveHandler)
    server.daemon_threads = True
    server.peers = set()
    server.barrier = threading.Barrier(k, timeout=5)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    gen = HttpGenerator(f"http://127.0.0.1:{server.server_address[1]}/", "m", max_retries=0, backoff=0.0)
    try:
        for _ in range(2):
            assert [r.texts for r in gen.generate_many(_wave(k))] == [[f"request {i}"] for i in range(k)]
    finally:
        gen._session.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(server.peers) == k


class TestScriptedGenerator:
    def test_exhaustion_raises(self):
        gen = ScriptedGenerator([["a"]])
        gen.generate(GeneratorRequest(messages=(Message("user", "x"),), n=1))
        with pytest.raises(GeneratorError):
            gen.generate(GeneratorRequest(messages=(Message("user", "x"),), n=1))

    def test_batch_size_must_match(self):
        gen = ScriptedGenerator([["a", "b"]])
        with pytest.raises(GeneratorError):
            gen.generate(GeneratorRequest(messages=(Message("user", "x"),), n=3))

"""Refinement-loop tests: extraction, voting, entropy selection, metrics, HTTP client."""

import json
import math
from collections import Counter

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

    return FunctionGenerator(respond)


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
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body or {}
        self.text = json.dumps(self._body)

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

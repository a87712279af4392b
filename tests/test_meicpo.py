"""Refinement-loop tests: extraction, voting, entropy selection, metrics, HTTP client."""

import contextlib
import http.client
import json
import math
import random
import ssl
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpo_lab.errors import GeneratorError, InvalidConfigError, NoConsensusError
from icpo_lab.meicpo.answers import _last_boxed_content, canonicalize, extract_answer, majority_vote
from icpo_lab.meicpo.generator import (
    MAX_IN_FLIGHT,
    FunctionGenerator,
    GeneratorRequest,
    HttpGenerator,
    Message,
    ScriptedGenerator,
    demo_generator,
)
from icpo_lab.meicpo.loop import (
    IcpoHistory,
    MeIcpoConfig,
    _context_request,
    _entropy_of,
    _summary_of,
    _summary_request,
    run_me_icpo,
)
from icpo_lab.meicpo.metrics import compute_metrics
from icpo_lab.meicpo.prompts import MODES, system_prompt


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

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(["boxed{", "{", "}", "x"]), max_size=24).map("".join))
    def test_backward_scan_matches_forward_scan(self, text):
        assert _last_boxed_content(text) == _forward_boxed_content(text)


def _forward_boxed_content(text):
    """Reference scan: every boxed{ from the front, keeping the last one that closes."""
    marker, best, start = "boxed{", None, 0
    while (idx := text.find(marker, start)) >= 0:
        depth = 0
        for j in range(idx + len(marker) - 1, len(text)):
            depth += {"{": 1, "}": -1}.get(text[j], 0)
            if depth == 0:
                best = text[idx + len(marker) : j]
                break
        start = idx + len(marker)
    return best


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


def _summarize(text, generator, mode, cap_tokens=500):
    """One candidate through the loop's summary wave: (summary, truncated)."""
    [response] = generator.generate([_summary_request(text, mode, cap_tokens)])
    return _summary_of(response, cap_tokens)


def _estimate_entropy(history, generator, m, temperature, mode, max_tokens=256):
    """One tentative context through the loop's look-ahead wave: entropy in nats."""
    cfg = MeIcpoConfig(m=m, entropy_temperature=temperature, lookahead_max_tokens=max_tokens)
    [response] = generator.generate([_context_request(history, cfg, "lookahead")])
    return _entropy_of(response, mode)


class TestSummarize:
    def test_echo_contract(self):
        gen = FunctionGenerator(lambda req: ["Echoed idea. boxed{3}"])
        summary, truncated = _summarize("full text", gen, "numeric")
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
        summary, truncated = _summarize("x", gen, "numeric", cap_tokens=500)
        assert truncated
        assert len(summary.split()) == 500

    def test_empty_candidate_passes_through(self):
        gen = FunctionGenerator(lambda req: ["summary of nothing"])
        summary, truncated = _summarize("", gen, "numeric")
        assert summary == "summary of nothing"
        assert not truncated


class TestEstimateEntropy:
    def _history(self):
        return IcpoHistory(system="sys", question="q")

    def test_point_mass_is_zero(self):
        gen = FunctionGenerator(lambda req: ["boxed{4}"] * req.n)
        assert _estimate_entropy(self._history(), gen, m=8, temperature=0.6, mode="numeric") == 0.0

    def test_all_distinct_is_log_m(self):
        gen = FunctionGenerator(lambda req: [f"boxed{{{j}}}" for j in range(req.n)])
        h = _estimate_entropy(self._history(), gen, m=4, temperature=0.6, mode="numeric")
        assert h == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_groups(self):
        gen = FunctionGenerator(lambda req: ["boxed{1}", "boxed{1}", "boxed{2}", "boxed{2}"])
        h = _estimate_entropy(self._history(), gen, m=4, temperature=0.6, mode="numeric")
        assert h == pytest.approx(math.log(2.0), abs=1e-12)

    def test_absent_answers_pool_into_one_bucket(self):
        gen = FunctionGenerator(lambda req: ["no box", "also none", "boxed{1}", "boxed{1}"])
        h = _estimate_entropy(self._history(), gen, m=4, temperature=0.6, mode="numeric")
        assert h == pytest.approx(math.log(2.0), abs=1e-12)

    def test_decimal_variants_share_a_bucket(self):
        gen = FunctionGenerator(lambda req: ["boxed{2}", "boxed{2.0}"])
        assert _estimate_entropy(self._history(), gen, m=2, temperature=0.6, mode="numeric") == 0.0


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

    @pytest.mark.parametrize("mode", MODES)
    def test_untagged_system_prompt_drops_the_reward_clause(self, mode):
        """The ablation removes the tag clause by string replacement, which would do nothing
        to a prompt asset that words the clause differently."""
        untagged = system_prompt(mode, include_rewards=False)
        assert untagged != system_prompt(mode)
        assert "reward 1" not in untagged

    def test_trace_is_deterministic(self):
        cfg = MeIcpoConfig(rounds=2, k=3, m=4, mode="numeric")
        r1 = run_me_icpo("Q?", cfg, _loop_generator({0: 2, 1: 1, 2: 2}))
        r2 = run_me_icpo("Q?", cfg, _loop_generator({0: 2, 1: 1, 2: 2}))
        assert r1.trace_records() == r2.trace_records()
        assert r1.final_answer == r2.final_answer

    def test_trace_records_structure(self, tmp_path):
        from icpo_lab.meicpo.loop import write_trace_jsonl

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

    @pytest.mark.parametrize("final_vote", [False, True])
    @pytest.mark.parametrize("selection", ["entropy", "reward"])
    def test_each_round_makes_two_generator_calls(self, selection, final_vote):
        """Candidates, then the summaries with their look-aheads as follow-ups, then one final
        call: 2 * rounds + 1 calls, 11 at the benchmark's 5 rounds.  `reward` sends no follow-ups."""
        follow_ups = []

        class Counting(FunctionGenerator):
            def generate(self, requests, then=None):
                follow_ups.append(then is not None)
                return super().generate(requests, then)

        cfg = MeIcpoConfig(rounds=5, k=4, m=3, selection=selection, final_vote=final_vote)
        result = run_me_icpo("Q?", cfg, Counting(_loop_responder({0: 2, 1: 1, 2: 2, 3: 1})))
        assert not any(r.skipped for r in result.rounds)
        assert follow_ups == [False, selection == "entropy"] * 5 + [False]

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            MeIcpoConfig(rounds=0)
        with pytest.raises(InvalidConfigError):
            MeIcpoConfig(selection="greedy")
        with pytest.raises(InvalidConfigError):
            MeIcpoConfig(mode="roman")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("temperature", math.nan),
            ("temperature", math.inf),
            ("temperature", -0.1),
            ("entropy_temperature", math.nan),
            ("top_p", 7.0),
            ("top_p", 0.0),
            ("top_p", math.nan),
        ],
    )
    def test_sampling_values_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            MeIcpoConfig(**{field: value})
        if field != "entropy_temperature":
            with pytest.raises(ValueError, match=field):
                GeneratorRequest(messages=(Message("user", "hi"),), **{field: value})

    @pytest.mark.parametrize("field", ["max_tokens", "lookahead_max_tokens", "summary_cap_tokens"])
    def test_token_caps_below_one_rejected(self, field):
        with pytest.raises(InvalidConfigError) as info:
            MeIcpoConfig(**{field: 0})
        assert str(info.value) == f"{field} must be >= 1, got 0"

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


def _reply(status=200, body=None, headers=None):
    """What `HttpGenerator._receive` returns: (status, response headers, body bytes)."""
    return status, headers or {}, json.dumps(body or {}).encode()


class _FakeTransport:
    """Answers one request's `_send`/`_receive`: pops scripted replies, raising exceptions."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.posts = []

    def __call__(self, body, headers):
        self.posts.append({"json": json.loads(body), "headers": headers})
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def _http(transport, endpoint="http://x", model="m", log=None, **kwargs):
    """An `HttpGenerator` whose `_send` and `_receive` fakes call `transport` once per request.

    `_send` hands back the body and headers in place of a connection and
    `_receive` answers them with `transport(body, headers)`, so a scripted
    exception surfaces as a failed read.  A `log` list gets one
    (step, first message, thread) entry per `_send` and per `_receive`.
    """
    gen = HttpGenerator(endpoint, model, **kwargs)

    def note(step, body):
        if log is not None:
            log.append((step, json.loads(body)["messages"][0]["content"], threading.current_thread()))

    def send(body, headers):
        note("send", body)
        return body, headers

    def receive(sent):
        note("receive", sent[0])
        return transport(*sent)

    gen._send, gen._receive = send, receive
    return gen


class TestHttpGenerator:
    def _request(self, n=2):
        return GeneratorRequest(messages=(Message("user", "hi"),), n=n, max_tokens=16)

    def test_parses_chat_choices_and_usage(self):
        body = {
            "choices": [{"message": {"content": "a"}}, {"message": {"content": "b"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 7},
        }
        gen = _http(_FakeTransport([_reply(200, body)]), "http://x/v1/chat", max_retries=0, backoff=0.0)
        [resp] = gen.generate([self._request()])
        assert resp.texts == ["a", "b"]
        assert resp.prompt_tokens == 11 and resp.completion_tokens == 7

    @pytest.mark.parametrize(
        "usage, counted, expected",
        [
            ({"prompt_tokens": 11, "completion_tokens": 7}, [], (11, 7)),
            ({"completion_tokens": 7}, ["hi"], (1, 7)),
            ({"prompt_tokens": 11}, ["two words", "b"], (11, 3)),
            (None, ["hi", "two words", "b"], (1, 3)),
        ],
    )
    def test_counts_tokens_only_where_usage_lacks_them(self, monkeypatch, usage, counted, expected):
        from icpo_lab.meicpo import generator

        calls = []

        def spy(text):
            calls.append(text)
            return len(text.split())

        monkeypatch.setattr(generator, "count_tokens", spy)
        body = {"choices": [{"message": {"content": "two words"}}, {"message": {"content": "b"}}]}
        if usage is not None:
            body["usage"] = usage
        gen = _http(_FakeTransport([_reply(200, body)]), "http://x/v1/chat", max_retries=0, backoff=0.0)
        [resp] = gen.generate([self._request()])
        assert (resp.prompt_tokens, resp.completion_tokens) == expected
        assert calls == counted

    def test_payload_shape_and_bearer_header(self, monkeypatch):
        monkeypatch.setenv("ICPO_API_KEY", "sekret")
        transport = _FakeTransport([_reply(200, {"choices": [{"text": "a"}, {"text": "b"}]})])
        gen = _http(transport, "http://x/v1/chat", "my-model", max_retries=0, backoff=0.0)
        gen.generate([self._request()])
        post = transport.posts[0]
        assert post["json"]["model"] == "my-model"
        assert post["json"]["n"] == 2
        assert post["json"]["messages"] == [{"role": "user", "content": "hi"}]
        assert b"\r\nAuthorization: Bearer sekret\r\n" in post["headers"]

    def test_retries_server_errors_then_succeeds(self):
        ok = _reply(200, {"choices": [{"text": "a"}, {"text": "b"}]})
        transport = _FakeTransport([_reply(500), _reply(429), ok])
        gen = _http(transport, max_retries=2, backoff=0.0)
        assert gen.generate([self._request()])[0].texts == ["a", "b"]
        assert len(transport.posts) == 3

    def test_surfaces_after_retry_budget(self):
        gen = _http(_FakeTransport([_reply(500)] * 3), max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError):
            gen.generate([self._request()])

    def test_client_error_is_not_retried(self):
        transport = _FakeTransport([_reply(404)] * 3)
        gen = _http(transport, max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError, match="HTTP 404"):
            gen.generate([self._request()])
        assert len(transport.posts) == 1

    @pytest.mark.parametrize(
        "bad",
        [_reply(200, {"error": "no choices"}), (200, {}, b"<html>gateway</html>")],
        ids=["missing-choices", "not-json"],
    )
    def test_malformed_body_is_not_retried(self, bad):
        transport = _FakeTransport([bad] * 3)
        gen = _http(transport, max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError, match="malformed"):
            gen.generate([self._request()])
        assert len(transport.posts) == 1

    def test_retries_transport_errors_then_succeeds(self):
        ok = _reply(200, {"choices": [{"text": "a"}, {"text": "b"}]})
        errors = [ConnectionResetError("reset"), TimeoutError("slow"), http.client.IncompleteRead(b"")]
        transport = _FakeTransport([*errors, ok])
        gen = _http(transport, max_retries=3, backoff=0.0)
        assert gen.generate([self._request()])[0].texts == ["a", "b"]
        assert len(transport.posts) == 4

    def test_choice_count_mismatch_is_error(self):
        gen = _http(_FakeTransport([_reply(200, {"choices": [{"text": "only one"}]})] * 2), max_retries=1, backoff=0.0)
        with pytest.raises(GeneratorError):
            gen.generate([self._request(n=2)])


    @pytest.mark.parametrize("endpoint", ["ftp://x/v1", "localhost:8000/v1", "http:///v1"])
    def test_endpoint_must_be_an_http_url(self, endpoint):
        with pytest.raises(InvalidConfigError, match="http:// or https://"):
            HttpGenerator(endpoint, "m")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_retries": -1}, "max_retries must be >= 0, got -1"),
            ({"timeout": 0}, "timeout must be a finite number of seconds > 0, got 0"),
            ({"timeout": -1.0}, "timeout must be a finite number of seconds > 0, got -1.0"),
            ({"timeout": math.nan}, "timeout must be a finite number of seconds > 0, got nan"),
            ({"timeout": math.inf}, "timeout must be a finite number of seconds > 0, got inf"),
        ],
    )
    def test_bad_timeout_or_retry_budget_rejected_when_built(self, kwargs, message):
        with pytest.raises(InvalidConfigError) as info:
            HttpGenerator("http://localhost:8000/v1", "m", **kwargs)
        assert str(info.value) == message

    def test_certificate_error_is_not_retried(self, monkeypatch):
        slept = []
        monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
        ok = _reply(200, {"choices": [{"text": "a"}, {"text": "b"}]})
        transport = _FakeTransport([ssl.SSLCertVerificationError("certificate verify failed"), ok])
        gen = _http(transport, "https://x", max_retries=2, backoff=1.0)
        with pytest.raises(GeneratorError, match="certificate"):
            gen.generate([self._request()])
        assert len(transport.posts) == 1 and slept == []


class TestRetryAfter:
    """A retried 429/5xx waits max(backoff * attempt, Retry-After seconds)."""

    def _run(self, monkeypatch, statuses_and_headers, backoff=1.0):
        slept = []
        monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
        ok = _reply(200, {"choices": [{"text": "a"}]})
        transport = _FakeTransport([_reply(code, headers=h) for code, h in statuses_and_headers] + [ok])
        gen = _http(transport, max_retries=len(statuses_and_headers), backoff=backoff)
        assert gen.generate([GeneratorRequest(messages=(Message("user", "hi"),), n=1)])[0].texts == ["a"]
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


def _request_of(payload):
    """The `GeneratorRequest` an `HttpGenerator` payload was built from."""
    return GeneratorRequest(
        messages=tuple(Message(m["role"], m["content"]) for m in payload["messages"]),
        temperature=payload["temperature"],
        top_p=payload["top_p"],
        max_tokens=payload["max_tokens"],
        n=payload["n"],
    )


class _KeyedTransport:
    """Fake transport answering each post from its payload alone.

    `respond(request)` gives the texts, or an int HTTP status.
    """

    def __init__(self, respond):
        self.respond = respond
        self.posts = []

    def __call__(self, body, headers):
        request = _request_of(json.loads(body))
        self.posts.append(request)
        out = self.respond(request)
        if isinstance(out, int):
            return _reply(out, {"error": request.messages[0].text})
        return _reply(200, {"choices": [{"text": t} for t in out]})


def _wave(k):
    return [GeneratorRequest(messages=(Message("user", f"request {i}"),), n=1) for i in range(k)]


def _index(text):
    """The i of a `_wave` request's "request i"."""
    return int(text.split()[1])


class TestConcurrentWaves:
    def test_wave_is_written_before_any_response_is_read(self):
        k, log = 8, []
        gen = _http(_KeyedTransport(lambda r: [r.messages[0].text]), log=log, max_retries=0, backoff=0.0)
        responses = gen.generate(_wave(k))
        assert [r.texts for r in responses] == [[f"request {i}"] for i in range(k)]
        expected = [("send", f"request {i}") for i in range(k)] + [("receive", f"request {i}") for i in range(k)]
        assert [(step, text) for step, text, _ in log] == expected

    def test_responses_come_back_by_index(self):
        k = 12
        late = set(random.Random(5).sample(range(k), 4))  # a 503 first, so answered in the second pass
        finished = []

        def respond(request):
            text = request.messages[0].text
            if _index(text) in late:
                late.discard(_index(text))
                return 503
            finished.append(text)
            return [text.upper()]

        gen = _http(_KeyedTransport(respond), max_retries=1, backoff=0.0)
        responses = gen.generate(_wave(k))
        assert [r.texts for r in responses] == [[f"REQUEST {i}"] for i in range(k)]
        assert finished != [f"request {i}" for i in range(k)]  # completion order differed

    def test_lowest_index_failure_is_raised_after_the_whole_wave(self):
        k = 6
        resent = set()

        def respond(request):
            index = _index(request.messages[0].text)
            if index == 2 and index not in resent:
                resent.add(index)
                return 503
            return 404 if index in (2, 4) else [request.messages[0].text]

        # Request 2 fails last in time, on its resend, yet its error is the one raised.
        transport = _KeyedTransport(respond)
        gen = _http(transport, max_retries=1, backoff=0.0)
        with pytest.raises(GeneratorError, match="request 2"):
            gen.generate(_wave(k))
        assert [_index(r.messages[0].text) for r in transport.posts] == [*range(k), 2]

    def test_transient_failures_are_resent_together_after_one_wait(self, monkeypatch):
        slept = []
        monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
        first = {1: _reply(503, {"error": "busy"}, {"Retry-After": "2"}), 3: ConnectionResetError("reset")}
        posts = Counter()

        def transport(body, headers):
            text = json.loads(body)["messages"][0]["content"]
            posts[_index(text)] += 1
            reply = first.pop(_index(text), None)
            if isinstance(reply, Exception):
                raise reply
            return reply or _reply(200, {"choices": [{"text": text.upper()}]})

        gen = _http(transport, max_retries=2, backoff=1.0)
        responses = gen.generate(_wave(4))
        assert slept == [2.0]
        assert [posts[i] for i in range(4)] == [1, 2, 1, 2]
        assert [r.texts for r in responses] == [[f"REQUEST {i}"] for i in range(4)]

    def test_empty_and_single_waves(self):
        gen = _http(_KeyedTransport(lambda r: ["x"]), max_retries=0, backoff=0.0)
        assert gen.generate([]) == []
        assert [r.texts for r in gen.generate(_wave(1))] == [["x"]]

    @pytest.mark.parametrize("selection", ["entropy", "reward"])
    def test_concurrent_run_equals_sequential_run(self, selection):
        entropy_map = {0: 2, 1: 3, 2: 1, 3: 2, 4: 1}
        cfg = MeIcpoConfig(rounds=3, k=5, m=4, mode="numeric", selection=selection)
        sequential = run_me_icpo("Q?", cfg, FunctionGenerator(_loop_responder(entropy_map)))
        transport = _KeyedTransport(_loop_responder(entropy_map), )
        concurrent = run_me_icpo("Q?", cfg, _http(transport, max_retries=0, backoff=0.0))
        assert concurrent.trace_records() == sequential.trace_records()
        assert concurrent.accounting.to_dict() == sequential.accounting.to_dict()
        assert concurrent.history == sequential.history
        assert concurrent.final_text == sequential.final_text

    def test_wide_wave_is_capped_and_answered_by_index(self):
        k, log = 64, []
        gen = _http(_KeyedTransport(lambda r: [r.messages[0].text]), log=log, max_retries=0, backoff=0.0)
        responses = gen.generate(_wave(k))
        assert [r.texts for r in responses] == [[f"request {i}"] for i in range(k)]
        unread, most_unread = 0, 0
        for step, _, _ in log:
            unread += 1 if step == "send" else -1
            most_unread = max(most_unread, unread)
        assert most_unread == MAX_IN_FLIGHT < k
        assert [text for step, text, _ in log if step == "receive"] == [f"request {i}" for i in range(k)]

    def test_wave_starts_no_thread(self):
        log = []
        before = threading.enumerate()
        gen = _http(_KeyedTransport(lambda r: [r.messages[0].text]), log=log, max_retries=0, backoff=0.0)
        gen.generate(_wave(16))
        assert set(threading.enumerate()) <= set(before)  # none started, whatever else ended
        assert {thread for _, _, thread in log} == {threading.current_thread()}

    def test_scripted_waves_keep_fifo_order(self):
        gen = ScriptedGenerator([["a"], ["b"], ["c"]])
        responses = gen.generate(_wave(3))
        assert [r.texts for r in responses] == [["a"], ["b"], ["c"]]
        assert gen.requests == _wave(3)


def _follow(i, response):
    """Follow-up i of a `_wave`, built from response i."""
    return GeneratorRequest(messages=(Message("user", f"follow {i} {response.texts[0]}"),), n=1)


def _upper(request):
    return [request.messages[0].text.upper()]


class TestChain:
    def test_follow_up_is_written_as_soon_as_its_response_is_read(self):
        k, log = 4, []
        gen = _http(_KeyedTransport(_upper), log=log, max_retries=0, backoff=0.0)
        responses = gen.generate(_wave(k), _follow)
        first, follow = responses[:k], responses[k:]
        assert [r.texts for r in first] == [[f"REQUEST {i}"] for i in range(k)]
        assert [r.texts for r in follow] == [[f"FOLLOW {i} REQUEST {i}"] for i in range(k)]
        expected = [("send", f"request {i}") for i in range(k)]
        for i in range(k):
            expected += [("receive", f"request {i}"), ("send", f"follow {i} REQUEST {i}")]
        expected += [("receive", f"follow {i} REQUEST {i}") for i in range(k)]
        assert [(step, text) for step, text, _ in log] == expected

    def test_follow_up_goes_ahead_of_unwritten_first_stage_requests(self, monkeypatch):
        monkeypatch.setattr("icpo_lab.meicpo.generator.MAX_IN_FLIGHT", 2)
        log = []
        gen = _http(_KeyedTransport(_upper), log=log, max_retries=0, backoff=0.0)
        gen.generate(_wave(4), _follow)
        r, f = "request {}".format, "follow {0} REQUEST {0}".format
        expected = [("send", r(0)), ("send", r(1))]
        expected += [("receive", r(0)), ("send", f(0)), ("receive", r(1)), ("send", f(1))]
        expected += [("receive", f(0)), ("send", r(2)), ("receive", f(1)), ("send", r(3))]
        expected += [("receive", r(2)), ("send", f(2)), ("receive", r(3)), ("send", f(3))]
        expected += [("receive", f(2)), ("receive", f(3))]
        assert [(step, text) for step, text, _ in log] == expected

    def test_lookahead_zero_is_written_before_the_last_summary_is_read(self):
        k, log = 5, []
        cfg = MeIcpoConfig(rounds=1, k=k, m=4, mode="numeric")
        entropy_map = {0: 2, 1: 3, 2: 1, 3: 2, 4: 1}
        transport = _KeyedTransport(_loop_responder(entropy_map))
        run_me_icpo("Q?", cfg, _http(transport, log=log, max_retries=0, backoff=0.0))
        steps = [(step, text.startswith("Provide a concise summary")) for step, text, _ in log]
        summary, lookahead = True, False
        expected = [("send", summary)] * k + [("receive", summary), ("send", lookahead)] * k
        assert steps[2 : 2 + 4 * k] == expected + [("receive", lookahead)] * k
        # Each look-ahead carries its own candidate's summary.
        lookaheads = [r for r in transport.posts if r.n == cfg.m]
        assert [[j for j in range(k) if f"summary-{j}" in r.messages[1].text] for r in lookaheads] == [[j] for j in range(k)]

    def test_retried_request_calls_then_once_and_its_follow_up_is_sent(self, monkeypatch):
        slept, calls = [], []
        monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
        first_reply = {"request 1": 503, "follow 0 REQUEST 0": 503}

        def respond(request):
            return first_reply.pop(request.messages[0].text, None) or _upper(request)

        def then(i, response):
            calls.append(i)
            return _follow(i, response)

        transport = _KeyedTransport(respond)
        gen = _http(transport, max_retries=1, backoff=1.0)
        follow = gen.generate(_wave(3), then)[3:]
        assert calls == [0, 2, 1]
        assert [r.texts for r in follow] == [[f"FOLLOW {i} REQUEST {i}"] for i in range(3)]
        posts = [r.messages[0].text for r in transport.posts]
        first_pass = ["request 0", "request 1", "request 2", "follow 0 REQUEST 0", "follow 2 REQUEST 2"]
        assert posts == first_pass + ["request 1", "follow 0 REQUEST 0", "follow 1 REQUEST 1"]
        assert slept == [1.0]  # both stages' transient failures resent together after one wait

    def test_first_stage_error_is_raised_before_a_follow_up_error(self):
        transport = _KeyedTransport(lambda r: 404 if r.messages[0].text in ("request 2", "follow 0 REQUEST 0") else _upper(r))
        gen = _http(transport, max_retries=2, backoff=0.0)
        with pytest.raises(GeneratorError, match="request 2"):
            gen.generate(_wave(4), _follow)
        # Request 2's 404 is final, so the call will raise: no look-ahead is built or sent after it.
        posts = [r.messages[0].text for r in transport.posts]
        assert posts == [f"request {i}" for i in range(4)] + ["follow 0 REQUEST 0", "follow 1 REQUEST 1"]

    def test_follow_up_awaiting_a_resend_is_dropped_once_a_first_stage_request_fails_for_good(self, monkeypatch):
        """Pass 2 resends request 0 (503, then 404) ahead of follow-up 1 (503); with one request
        in flight, the 404 is read before follow-up 1 is written, so it is not written again."""
        monkeypatch.setattr("icpo_lab.meicpo.generator.MAX_IN_FLIGHT", 1)
        seen = []

        def respond(request):
            text = request.messages[0].text
            seen.append(text)
            if text == "request 0":
                return 503 if seen.count(text) == 1 else 404
            return 503 if text.startswith("follow") else _upper(request)

        transport = _KeyedTransport(respond)
        with pytest.raises(GeneratorError, match="HTTP 404"):
            _http(transport, max_retries=2, backoff=0.0).generate(_wave(2), _follow)
        assert seen == ["request 0", "request 1", "follow 1 REQUEST 1", "request 0"]

    def test_no_wait_to_resend_a_follow_up_once_a_first_stage_request_failed_for_good(self, monkeypatch):
        slept = []
        monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
        replies = {"request 1": 404, "follow 0 REQUEST 0": 503}
        transport = _KeyedTransport(lambda r: replies.get(r.messages[0].text) or _upper(r))
        with pytest.raises(GeneratorError, match="HTTP 404"):
            _http(transport, max_retries=2, backoff=1.0).generate(_wave(2), _follow)
        assert [r.messages[0].text for r in transport.posts] == ["request 0", "request 1", "follow 0 REQUEST 0"]
        assert slept == []

    def test_scripted_chain_is_two_fifo_waves(self):
        gen = ScriptedGenerator([["a"], ["b"], ["c"], ["d"]])
        responses = gen.generate(_wave(2), _follow)
        assert [r.texts for r in responses] == [["a"], ["b"], ["c"], ["d"]]
        assert [r.messages[0].text for r in gen.requests] == ["request 0", "request 1", "follow 0 a", "follow 1 b"]


class _WideServer(ThreadingHTTPServer):
    # A wave connects all at once; the default backlog of 5 drops SYNs, and each dropped one is resent after 1 s.
    request_queue_size = 64


@contextlib.contextmanager
def _loopback(handler, server_class=_WideServer, **attrs):
    """A threaded HTTP server on 127.0.0.1 with `attrs` set on it, shut down on exit."""
    server = server_class(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    for name, value in attrs.items():
        setattr(server, name, value)
    # A short poll interval lets `shutdown` return promptly.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _endpoint(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat"


class _EchoHandler(BaseHTTPRequestHandler):
    """Keep-alive HTTP/1.1 server answering each post with its first message.

    A first message listed in the server's `missing` attribute gets a 404.
    """

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.peers.append(self.client_address)
        self.on_post()
        text = body["messages"][0]["content"]
        data = json.dumps({"choices": [{"text": text}]}).encode()
        self.send_response(404 if text in getattr(self.server, "missing", ()) else 200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def on_post(self):
        pass

    def log_message(self, *args):
        pass


class _WaveHandler(_EchoHandler):
    def on_post(self):
        self.server.barrier.wait()


class _ClosingHandler(_EchoHandler):
    def on_post(self):
        self.close_connection = True  # closed after the reply, with no `Connection: close` header


class _ClosingServer(_WideServer):
    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


class _QuietServer(_WideServer):
    def handle_error(self, request, client_address):
        pass  # a reply to a connection the client closed unread


class _RedirectHandler(_EchoHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.peers.append(self.client_address)
        self.send_response(302)
        self.send_header("Location", "/v2/chat")
        self.send_header("Content-Length", "0")
        self.end_headers()


def test_own_session_keeps_a_connection_per_wave_slot():
    """Two 16-wide waves over loopback open 16 connections, not more.

    The idle queue keeps every connection of the widest wave for the next one.
    """
    k = 16
    with _loopback(_WaveHandler, peers=[], barrier=threading.Barrier(k, timeout=5)) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=0, backoff=0.0)
        try:
            for _ in range(2):
                assert [r.texts for r in gen.generate(_wave(k))] == [[f"request {i}"] for i in range(k)]
        finally:
            gen.close()
    assert len(server.peers) == 2 * k and len(set(server.peers)) == k


def test_connection_closed_by_the_server_is_replaced_without_a_retry(monkeypatch):
    """An idle connection the server closed is found before it is used."""
    slept = []
    monkeypatch.setattr("icpo_lab.meicpo.generator.time.sleep", slept.append)
    with _loopback(_ClosingHandler, _ClosingServer, peers=[], closed=threading.Semaphore(0)) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=2, backoff=1.0)
        try:
            for i in range(3):
                assert gen.generate([_wave(3)[i]])[0].texts == [f"request {i}"]
                assert server.closed.acquire(timeout=5)  # the server has closed this connection
        finally:
            gen.close()
    assert len(server.peers) == 3 and len(set(server.peers)) == 3
    assert slept == []


def test_redirect_is_surfaced_not_followed():
    with _loopback(_RedirectHandler, peers=[]) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=2, backoff=0.0)
        try:
            with pytest.raises(GeneratorError, match="HTTP 302 redirect to '/v2/chat'"):
                gen.generate(_wave(1))
        finally:
            gen.close()
    assert len(server.peers) == 1


def test_client_error_mid_wave_leaves_every_connection_reusable():
    """A 404 for one request of a wave is read in full, so the next wave opens no connection."""
    k = 5
    with _loopback(_EchoHandler, peers=[], missing={"request 2"}) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=2, backoff=0.0)
        try:
            with pytest.raises(GeneratorError, match="HTTP 404"):
                gen.generate(_wave(k))
            server.missing = set()
            assert [r.texts for r in gen.generate(_wave(k))] == [[f"request {i}"] for i in range(k)]
        finally:
            gen.close()
    assert len(server.peers) == 2 * k and len(set(server.peers)) == k


def test_interrupt_mid_wave_puts_no_unread_connection_back():
    """A `KeyboardInterrupt` while reading closes every connection written and not yet read."""
    k = 6
    with _loopback(_EchoHandler, _QuietServer, peers=[]) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=0, backoff=0.0)
        send, receive, written, read = gen._send, gen._receive, [], []

        def recorded_send(body, headers):
            written.append(send(body, headers))
            return written[-1]

        def interrupted_receive(conn):
            if len(read) == 2:
                raise KeyboardInterrupt
            read.append(conn)
            return receive(conn)

        gen._send, gen._receive = recorded_send, interrupted_receive
        try:
            with pytest.raises(KeyboardInterrupt):
                gen.generate(_wave(k))
            assert gen._idle == read
            assert len(written) == k and all(conn.sock is None for conn in written[2:])
        finally:
            gen.close()


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "where, stop_at, unread_left, idle_left",
    [
        # `then(2)` raises after reads 0-2: requests 3-5 and follow-ups 0-1 are unread.
        ("then", None, 5, 1),
        # Reads 0..5 are the first stage's, 6..11 the follow-ups'.
        ("first-stage read", 2, 6, 0),
        ("follow-up read", 8, 4, 2),
    ],
)
def test_interrupt_mid_chain_puts_no_unread_connection_back(where, stop_at, unread_left, idle_left):
    """A raising `then`, or a `KeyboardInterrupt` while reading either stage, closes every unread connection."""
    k = 6
    with _loopback(_EchoHandler, _QuietServer, peers=[]) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=0, backoff=0.0)
        send, receive, unread, reads = gen._send, gen._receive, {}, []

        def recorded_send(body, headers):
            conn = send(body, headers)
            unread[id(conn)] = conn
            return conn

        def interrupted_receive(conn):
            if len(reads) == stop_at:
                raise KeyboardInterrupt
            reads.append(conn)
            reply = receive(conn)
            del unread[id(conn)]
            return reply

        def then(i, response):
            if where == "then" and i == 2:
                raise _Stop
            return _follow(i, response)

        gen._send, gen._receive = recorded_send, interrupted_receive
        try:
            with pytest.raises(_Stop if where == "then" else KeyboardInterrupt):
                gen.generate(_wave(k), then)
            assert len(unread) == unread_left and all(conn.sock is None for conn in unread.values())
            assert len(gen._idle) == idle_left and all(conn.sock is not None for conn in gen._idle)
            assert not {id(conn) for conn in gen._idle} & set(unread)
        finally:
            gen.close()


class _DemoHandler(_EchoHandler):
    """Answers each post with the texts `demo_generator` gives its request."""

    disable_nagle_algorithm = True  # the body, written after the headers, is not held for an ACK

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        [response] = demo_generator().generate([_request_of(payload)])
        texts = response.texts
        data = json.dumps({"choices": [{"message": {"content": t}} for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.mark.parametrize("cap", [None, 8], ids=["default-cap", "cap-8"])
@pytest.mark.parametrize("selection", ["entropy", "reward"])
def test_loopback_run_equals_demo_run(monkeypatch, selection, cap):
    """`run_me_icpo` over loopback HTTP matches `demo_generator()` called directly, 20 candidates wide."""
    if cap is not None:
        monkeypatch.setattr("icpo_lab.meicpo.generator.MAX_IN_FLIGHT", cap)
    cfg = MeIcpoConfig(rounds=2, k=20, m=4, selection=selection)
    direct = run_me_icpo("What is 6 * 7?", cfg, demo_generator())
    with _loopback(_DemoHandler) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=0, backoff=0.0)
        send, receive, unread, most_unread = gen._send, gen._receive, [0], [0]

        def counted_send(body, headers):
            unread[0] += 1
            most_unread[0] = max(most_unread[0], unread[0])
            return send(body, headers)

        def counted_receive(conn):
            unread[0] -= 1
            return receive(conn)

        gen._send, gen._receive = counted_send, counted_receive
        try:
            remote = run_me_icpo("What is 6 * 7?", cfg, gen)
        finally:
            gen.close()
    assert remote.trace_records() == direct.trace_records()
    assert remote.accounting.to_dict() == direct.accounting.to_dict()
    assert (remote.final_answer, remote.final_text) == (direct.final_answer, direct.final_text)
    assert remote.accounting.by_purpose["entropy" if selection == "entropy" else "summarize"]["calls"] == 40
    assert most_unread[0] == min(20, cap or MAX_IN_FLIGHT) <= MAX_IN_FLIGHT


def test_close_closes_the_idle_connections():
    k = 4
    with _loopback(_EchoHandler, peers=[]) as server:
        gen = HttpGenerator(_endpoint(server), "m", max_retries=0, backoff=0.0)
        try:
            gen.generate(_wave(k))
            idle = list(gen._idle)
            gen.close()
            assert len(idle) == k and gen._idle == [] and all(conn.sock is None for conn in idle)
            assert [r.texts for r in gen.generate(_wave(2))] == [["request 0"], ["request 1"]]
        finally:
            gen.close()
    assert len(set(server.peers)) == k + 2


class TestScriptedGenerator:
    def test_exhaustion_raises(self):
        gen = ScriptedGenerator([["a"]])
        gen.generate([GeneratorRequest(messages=(Message("user", "x"),), n=1)])
        with pytest.raises(GeneratorError):
            gen.generate([GeneratorRequest(messages=(Message("user", "x"),), n=1)])

    def test_batch_size_must_match(self):
        gen = ScriptedGenerator([["a", "b"]])
        with pytest.raises(GeneratorError):
            gen.generate([GeneratorRequest(messages=(Message("user", "x"),), n=3)])

    @pytest.mark.parametrize(
        "script, message",
        [
            (["boxed{1}x", "ab"], "a script is a list of lists of strings; entry 0 is 'boxed{1}x'"),
            ([["a"], ["b", 2]], "a script is a list of lists of strings; entry 1 is ['b', 2]"),
            ("ab", "a script is a list of lists of strings, got a str"),
            ({"a": ["b"]}, "a script is a list of lists of strings, got a dict"),
        ],
    )
    def test_script_must_be_a_list_of_lists_of_strings(self, script, message):
        with pytest.raises(InvalidConfigError) as info:
            ScriptedGenerator(script)
        assert str(info.value) == message


class TestPromptTemplates:
    def test_template_is_read_from_the_package_once(self, monkeypatch):
        from icpo_lab.meicpo import prompts

        prompts._load.cache_clear()
        reads, files = [], prompts.resources.files
        monkeypatch.setattr(prompts.resources, "files", lambda package: reads.append(package) or files(package))
        first = prompts.summarization_prompt("numeric", "ANSWER-ONE")
        second = prompts.summarization_prompt("numeric", "ANSWER-TWO")
        assert len(reads) == 1 and prompts._load.cache_info().hits == 1
        assert "ANSWER-ONE" in first and second == first.replace("ANSWER-ONE", "ANSWER-TWO")

"""Attention-student tests: the three logit forms must agree, and the
teacher-realizing construction must reproduce the expert's projected logits
exactly for every SPD H; without its query reward slot q_r = lambda K it
misses them by a closed-form defect."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpo_lab.errors import InvalidConfigError
from icpo_lab.lsa import TwoChannelParams, expert_two_channel, project, teacher_two_channel
from icpo_lab.reference import (
    CrnStream,
    History,
    InvalidParamsError,
    LsaParams,
    build_embedding,
    closed_form_logits,
    extract_two_channel,
    lsa_forward,
    realize_teacher_params,
    rollout,
    sample_task,
    teacher_logits,
    two_channel_logits,
)
from icpo_lab.teacher import TeacherConfig, mix_policy


def _random_history(rng, k, t):
    h = History(k)
    for _ in range(t):
        h.append(int(rng.integers(k)), float(rng.normal()))
    return h


def _random_params(rng, k, scale=0.5, normal_form=False):
    """Random weights; with normal_form=True the two-channel identity is exact.

    The normal form includes the query's attention to itself, which vanishes
    when either the transformed query's action block is centered or the value
    block maps the all-ones direction onto a constant; each arises here.
    """
    w_pv = scale * rng.normal(size=(k + 1, k + 1))
    w_kq = scale * rng.normal(size=(k + 1, k + 1))
    if normal_form:
        w_pv[:k, k] = scale * rng.normal()  # query column parallel to ones
        if rng.random() < 0.5:
            block = w_kq[:k, :k]
            w_kq[:k, :k] = block - block.sum() / k**2  # 1^T phi_1 = 0
        else:
            v = w_pv[:k, :k] @ np.ones(k)
            w_pv[:k, :k] -= np.outer(v - v.mean(), np.ones(k)) / k  # W11 @ 1 parallel to 1
    return LsaParams(w_pv=w_pv, w_kq=w_kq)


class TestProject:
    def test_kills_constants(self):
        assert np.allclose(project(3.7 * np.ones(5)), 0.0, atol=1e-15)

    def test_centering_pair(self):
        assert np.allclose(project(np.array([2.0, 0.0])), [1.0, -1.0], atol=1e-15)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=10))
    @settings(deadline=None, max_examples=100)
    def test_idempotent(self, values):
        v = np.asarray(values)
        assert np.abs(project(project(v)) - project(v)).max() <= 1e-14

    def test_matrix_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        m = project(rng.normal(size=(6, 4)), axis=0)
        assert np.abs(m.sum(axis=0)).max() < 1e-12


class TestBuildEmbedding:
    def test_empty_history_is_single_query_column(self):
        e = build_embedding(History(3))
        assert e.shape == (4, 1)
        assert e[:, 0].tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_single_step_columns(self):
        h = History(2)
        h.append(0, 0.5)
        e = build_embedding(h)
        assert e[:, 0].tolist() == [1.0, 0.0, 0.5]
        assert e[:, 1].tolist() == [1.0, 1.0, 0.0]

    def test_shape_and_column_structure(self):
        rng = np.random.default_rng(3)
        h = _random_history(rng, 4, 7)
        e = build_embedding(h)
        assert e.shape == (5, 8)
        # Every history column has a one-hot top block; the query does not.
        assert np.allclose(e[:4, :7].sum(axis=0), 1.0)
        assert e[:4, 7].sum() == 4.0


class TestForwardAgreement:
    def test_zero_value_matrix_is_residual_only(self):
        rng = np.random.default_rng(1)
        h = _random_history(rng, 3, 4)
        e = build_embedding(h)
        params = LsaParams(w_pv=np.zeros((4, 4)), w_kq=rng.normal(size=(4, 4)))
        assert np.array_equal(lsa_forward(e, params, rho=4.0), e)

    def test_rho_must_be_positive(self):
        e = build_embedding(History(2))
        params = LsaParams(w_pv=np.zeros((3, 3)), w_kq=np.zeros((3, 3)))
        with pytest.raises(InvalidConfigError):
            lsa_forward(e, params, rho=0.0)

    def test_attention_term_linear_in_inverse_rho(self):
        rng = np.random.default_rng(2)
        h = _random_history(rng, 3, 5)
        e = build_embedding(h)
        params = _random_params(rng, 3)
        half = lsa_forward(e, params, rho=10.0) - e
        full = lsa_forward(e, params, rho=5.0) - e
        assert np.allclose(half, 0.5 * full, atol=1e-12)

    def test_closed_form_matches_forward_pass(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            k = int(rng.choice([2, 5, 10]))
            t = int(rng.integers(1, 51))
            h = _random_history(rng, k, t)
            params = _random_params(rng, k)
            via_forward = lsa_forward(build_embedding(h), params, rho=t)[:k, t]
            via_closed = closed_form_logits(h, params)
            worst = max(worst, np.abs(via_forward - via_closed).max())
        assert worst <= 1e-10

    def test_zero_params_return_query(self):
        h = History(3)
        h.append(1, 1.0)
        params = LsaParams(w_pv=np.zeros((4, 4)), w_kq=np.zeros((4, 4)))
        assert np.array_equal(closed_form_logits(h, params), np.ones(3))

    def test_empty_history_convention(self):
        params = LsaParams(w_pv=np.ones((4, 4)), w_kq=np.ones((4, 4)))
        assert np.array_equal(closed_form_logits(History(3), params), np.ones(3))


class TestTwoChannel:
    def test_zero_operators(self):
        h = History(2)
        h.append(0, 2.0)
        assert np.array_equal(two_channel_logits(h, TwoChannelParams.zeros(2)), np.zeros(2))

    def test_reward_channel_only(self):
        h = History(2)
        h.append(0, 2.0)
        tc = TwoChannelParams(w_n=np.zeros((2, 2)), w_g=project(np.eye(2), axis=0))
        assert np.allclose(two_channel_logits(h, tc), [1.0, -1.0], atol=1e-15)

    def test_empty_history_convention(self):
        assert np.array_equal(two_channel_logits(History(2), TwoChannelParams.zeros(2)), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidConfigError):
            two_channel_logits(History(3), TwoChannelParams.zeros(2))

    def test_output_in_zero_sum_subspace(self):
        rng = np.random.default_rng(11)
        tc = TwoChannelParams(
            w_n=project(rng.normal(size=(5, 5)), axis=0),
            w_g=project(rng.normal(size=(5, 5)), axis=0),
        )
        for t in (1, 3, 9):
            out = two_channel_logits(_random_history(rng, 5, t), tc)
            assert abs(out.sum()) < 1e-10

    def test_matches_projected_closed_form_under_normal_form(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(200):
            k = int(rng.choice([2, 5, 10]))
            t = int(rng.integers(1, 51))
            h = _random_history(rng, k, t)
            params = _random_params(rng, k, normal_form=True)
            tc = extract_two_channel(params)
            got = two_channel_logits(h, tc)
            want = project(closed_form_logits(h, params))
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-10


class TestExtraction:
    def test_identity_key_query_kills_reward_channel(self):
        k = 3
        params = LsaParams(w_pv=np.random.default_rng(0).normal(size=(k + 1, k + 1)), w_kq=np.eye(k + 1))
        params.w_pv[:k, k] = 2.0  # keep normal form: the query column parallel to ones,
        params.w_pv[:k, :k] -= project(params.w_pv[:k, :k].sum(axis=1))[:, np.newaxis] / k  # and W11 1 too
        tc = extract_two_channel(params)
        # b = q, so phi_1 = ones and phi_2 = q_r = 0.
        assert np.allclose(tc.w_g, 0.0, atol=1e-15)
        assert np.allclose(tc.w_n, project(params.w_pv[:k, :k], axis=0), atol=1e-15)

    def test_zero_params(self):
        params = LsaParams(w_pv=np.zeros((4, 4)), w_kq=np.zeros((4, 4)))
        tc = extract_two_channel(params)
        assert np.array_equal(tc.w_n, np.zeros((3, 3)))
        assert np.array_equal(tc.w_g, np.zeros((3, 3)))

    def test_normal_form_violation_raises(self):
        rng = np.random.default_rng(5)
        params = _random_params(rng, 3, normal_form=True)
        params.w_pv[0, 3] += 1.0  # break the query-column alignment
        with pytest.raises(InvalidParamsError):
            extract_two_channel(params)

    def test_query_self_attention_must_vanish(self):
        """The teacher's weights without the reward slot (q_r = 0) attend from the query to
        itself with coefficient -lambda K; for a dense H that term survives projection."""
        a = np.random.default_rng(6).normal(size=(4, 4))
        cfg = TeacherConfig(k=4, lam=0.5, h=a @ a.T + 0.5 * np.eye(4))
        params = realize_teacher_params(cfg)
        assert params.q_r == 2.0 and params.normal_form_defect() <= 1e-15
        with pytest.raises(InvalidParamsError):
            extract_two_channel(LsaParams(params.w_pv, params.w_kq))
        identity = realize_teacher_params(TeacherConfig(k=4, lam=0.5))
        assert LsaParams(identity.w_pv, identity.w_kq).normal_form_defect() <= 1e-15  # H^-1 1 is constant

    def test_teacher_round_trip(self):
        for lam in (0.0, 0.5):
            cfg = TeacherConfig(k=4, c=1.3, lam=lam)
            tc = extract_two_channel(realize_teacher_params(cfg))
            want = teacher_two_channel(cfg)
            assert np.allclose(tc.w_n, want.w_n, atol=1e-12)
            assert np.allclose(tc.w_g, want.w_g, atol=1e-12)


class TestTeacherRealization:
    def test_channel_values_identity_regularizer(self):
        cfg = TeacherConfig(k=3, c=1.0, lam=0.5)
        tc = extract_two_channel(realize_teacher_params(cfg))
        pi = np.eye(3) - np.ones((3, 3)) / 3
        assert np.allclose(tc.w_n, -0.5 * pi, atol=1e-12)
        assert np.allclose(tc.w_g, pi, atol=1e-12)

    def test_zero_penalty_kills_count_channel(self):
        cfg = TeacherConfig(k=3, c=0.7, lam=0.0)
        tc = extract_two_channel(realize_teacher_params(cfg))
        assert np.allclose(tc.w_n, 0.0, atol=1e-15)

    def test_policy_match_on_random_histories(self):
        """Student and expert mixed policies coincide on arbitrary histories."""
        rng = np.random.default_rng(21)
        for trial in range(30):
            k = int(rng.choice([2, 5, 10]))
            if trial % 3 == 0:
                a = rng.normal(size=(k, k))
                h_mat = a @ a.T + 0.5 * np.eye(k)
            else:
                h_mat = None
            cfg = TeacherConfig(
                k=k,
                c=float(rng.uniform(0.2, 2.0)),
                gamma=float(rng.uniform(0.05, 0.9)),
                lam=float(rng.uniform(0.0, 1.0)),
                h=h_mat,
            )
            tc = extract_two_channel(realize_teacher_params(cfg))
            for t in (1, 4, 12):
                hist = _random_history(rng, k, t)
                p_student = mix_policy(two_channel_logits(hist, tc), cfg.gamma)
                p_expert = mix_policy(teacher_logits(hist, cfg), cfg.gamma)
                assert np.abs(p_student - p_expert).max() <= 1e-10

    def test_gauge_invariance_at_policy_level(self):
        rng = np.random.default_rng(31)
        s = rng.normal(size=6)
        p1 = mix_policy(s, 0.3)
        p2 = mix_policy(s + 11.5, 0.3)
        assert np.abs(p1 - p2).max() <= 1e-12

    def test_closed_form_route_realizes_expert(self):
        """The attention network itself (not just the extracted operators) reproduces
        the expert's projected logits for every H.  Without the reward slot (q_r = 0)
        it misses them by exactly -(lambda K c / t) Proj(H^-1 1), zero only for the
        identity regularizer or lambda = 0."""
        rng = np.random.default_rng(41)
        cases = [(2, 0.1, None), (5, 0.7, None)]
        for k in (3, 6, 10):
            a = rng.normal(size=(k, k))
            dense = a @ a.T + 0.5 * np.eye(k)
            cases += [(k, 0.0, dense), (k, float(rng.uniform(0.2, 1.0)), dense)]
        for k, lam, h_mat in cases:
            cfg = TeacherConfig(k=k, c=1.2, lam=lam, h=h_mat)
            params = realize_teacher_params(cfg)
            without_slot = LsaParams(params.w_pv, params.w_kq)
            h = History(k)
            h.append(0, 1.0)
            histories = [h, _random_history(rng, k, 3), _random_history(rng, k, 10)]
            for hist in histories:
                want = project(teacher_logits(hist, cfg))
                assert np.abs(project(closed_form_logits(hist, params)) - want).max() <= 1e-10
                got = project(closed_form_logits(hist, without_slot))
                defect = -(lam * k * cfg.c / hist.t) * project(cfg.u @ np.ones(k))
                assert np.abs(got - want - defect).max() <= 1e-12
                if h_mat is None or lam == 0.0:
                    assert np.abs(got - want).max() <= 1e-10

    def test_network_realizes_the_expert_on_its_rollouts(self):
        """Identity, diagonal and dense H, K = 2..12, lambda across [0, 1]: at every step of
        an expert rollout, the full forward pass (rho = t) and its closed form give the
        teacher's projected logits on the history the rollout realized."""
        rng = np.random.default_rng(2027)
        worst = 0.0
        for k in range(2, 13):
            a = rng.normal(size=(k, k))
            regularizers = (None, np.diag(rng.uniform(0.3, 3.0, size=k)), a @ a.T + 0.5 * np.eye(k))
            for i, (h_mat, lam) in enumerate(zip(regularizers, (0.0, 1.0, float(rng.uniform())))):
                cfg = TeacherConfig(k=k, c=float(rng.uniform(0.2, 2.0)), lam=lam, h=h_mat)
                params = realize_teacher_params(cfg)
                stream = CrnStream(seed=2027, stream_id=3 * k + i)
                run = rollout(expert_two_channel(cfg), sample_task(stream, k, cfg.tau_w), cfg, 12, stream)
                hist = History(k)
                for action, reward in zip(run.actions.tolist(), run.rewards.tolist()):
                    hist.append(action, reward)
                    want = project(teacher_logits(hist, cfg))
                    forward = lsa_forward(build_embedding(hist, params.q_x, params.q_r), params, rho=hist.t)
                    worst = max(
                        worst,
                        np.abs(project(forward[:k, hist.t]) - want).max(),
                        np.abs(project(closed_form_logits(hist, params)) - want).max(),
                    )
        assert worst <= 1e-10

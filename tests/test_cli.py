"""CLI tests: config validation, parameter file format, end-to-end commands."""

import importlib
import inspect
import json
from hashlib import sha256
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icpo_lab
from icpo_lab import atomic, cli
from icpo_lab.analysis import run_lemma_suite
from icpo_lab.cli import load_config, main, teacher_from_config
from icpo_lab.errors import IcpoError, InvalidConfigError
from icpo_lab.loop import shock_experiment
from icpo_lab.lsa import TwoChannelParams
from icpo_lab.meicpo.generator import HttpGenerator
from icpo_lab.meicpo.loop import MeIcpoConfig
from icpo_lab.pretrain import (
    DATASET_FILE,
    generate_dataset,
    load_dataset,
    load_params,
    save_dataset,
    save_params,
    train_gd,
)
from icpo_lab.teacher import TeacherConfig
from test_pretrain import _header, _rewrite

SMALL_CONFIG = """\
[teacher]
k = 3
c = 1.0
gamma = 0.3
lambda = 0.2
tau_w = 1.0
sigma_xi = 0.4
h = identity

[dataset]
b = 8
n = 6
seed = 11

[training]
solver = {solver}

[experiment]
kind = matching
b_test = 4
n = 6
seed = 21

[output]
dir = {out}
"""


def _write_config(tmp_path, name="cfg.ini", solver="ls", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(SMALL_CONFIG.format(solver=solver, out=out))
    return path


def _params_file(path, tc=None, cfg=None):
    """Save `tc` (zero K=3 operators by default) as fitted on a small dataset of teacher `cfg`
    (`TeacherConfig(k=3)` by default, what a config with only `k = 3` in [teacher] builds)."""
    cfg = cfg or TeacherConfig(k=3)
    tc = tc or TwoChannelParams.zeros(cfg.k)
    save_params(tc, path, generate_dataset(cfg, b=2, n=2, seed=0), {"solver": "ls"})
    return path


def _format_1(tc):
    """Parameter format 1, as the previous codec wrote it: uint32 K and version 1, then W_n and W_g."""
    body = np.concatenate([tc.w_n.ravel(), tc.w_g.ravel()]).astype("<f8").tobytes()
    return struct.pack("<II", tc.k, 1) + body


class TestConfigParsing:
    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[teacher]\nk = 3\nbogus = 1\n")
        with pytest.raises(InvalidConfigError) as info:
            load_config(path)
        assert "bogus" in str(info.value)
        assert ":3:" in str(info.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(InvalidConfigError) as info:
            load_config(path)
        assert "[nonsense]" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            load_config(tmp_path / "absent.ini")

    def test_teacher_block_round_trip(self, tmp_path):
        cfg = teacher_from_config(load_config(_write_config(tmp_path)))
        assert cfg.k == 3 and cfg.lam == 0.2 and cfg.gamma == 0.3

    def test_diagonal_regularizer(self, tmp_path):
        path = tmp_path / "diag.ini"
        path.write_text("[teacher]\nk = 2\nh = 2.0, 4.0\n")
        cfg = teacher_from_config(load_config(path))
        assert np.allclose(cfg.h, np.diag([2.0, 4.0]))
        assert np.allclose(cfg.u, np.diag([0.5, 0.25]))

    @pytest.mark.parametrize(
        "h", ["1.0, abc, 2.0", "1.0, 2.0", "1.0, 2.0, 3.0, 4.0", "1.0,,2.0", "1.0, nan, 2.0", "inf, 1, 2"]
    )
    def test_bad_diagonal_names_file_and_line(self, tmp_path, capsys, h):
        path = _write_config(tmp_path)
        path.write_text(path.read_text().replace("h = identity", f"h = {h}"))
        assert main(["generate", "--config", str(path)]) == 2
        message = f"[teacher] h = {h!r} is not 'identity' or 3 comma-separated finite floats"
        assert capsys.readouterr().err == f"error: {path}:8: {message}\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("c = 1.0", "c = -1", "step-size constant must be > 0, got -1.0"),
            ("k = 3", "k = 1", "need at least 2 arms, got K=1"),
            ("gamma = 0.3", "gamma = 1.5", "exploration mix must be in [0, 1], got 1.5"),
        ],
    )
    def test_out_of_range_teacher_value_names_file_and_section(self, tmp_path, capsys, old, new, message):
        path = _write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        assert main(["generate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: [teacher] {message}\n"

    def test_mistyped_value_fails_a_command_that_does_not_read_it(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        path.write_text(path.read_text() + "\n[me-icpo]\nfinal_vote = maybe\n")
        line = path.read_text().splitlines().index("final_vote = maybe") + 1
        assert main(["generate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: [me-icpo] final_vote = 'maybe' is not a boolean\n"
        assert not (tmp_path / "out").exists()


class TestParamsFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tc = TwoChannelParams(w_n=rng.normal(size=(5, 5)), w_g=rng.normal(size=(5, 5)))
        cfg = TeacherConfig(k=5, c=0.7)
        path = _params_file(tmp_path / "p.bin", tc, cfg)
        for back in (load_params(path), load_params(path, cfg)):
            assert np.array_equal(back.w_n, tc.w_n)
            assert np.array_equal(back.w_g, tc.w_g)
            assert not back.w_n.flags.writeable
        # The digest, the length-prefixed header, then 2 K^2 doubles: W_n, then W_g.
        blob = path.read_bytes()
        size, header = _header(blob)
        assert len(blob) == 40 + size + 2 * 25 * 8 and (40 + size) % 8 == 0
        assert blob[40 + size :] == np.concatenate([tc.w_n.ravel(), tc.w_g.ravel()]).astype("<f8").tobytes()
        assert header == {
            "version": 2,
            "teacher": cfg.to_dict(),
            "dataset": {"b": 2, "n": 2, "seed": 0},
            "dataset_sha256": None,
            "training": {"solver": "ls"},
            "arrays": [["w_n", "<f8", [5, 5]], ["w_g", "<f8", [5, 5]]],
        }

    def test_truncated_file_rejected(self, tmp_path):
        path = _params_file(tmp_path / "p.bin")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidConfigError, match=f"{path}: SHA-256 does not match"):
            load_params(path)

    def test_bad_version_rejected(self, tmp_path):
        path = _params_file(tmp_path / "p.bin")
        _, header = _header(path.read_bytes())
        _rewrite(path, header={**header, "version": 9})
        with pytest.raises(InvalidConfigError, match="unsupported parameter version 9"):
            load_params(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda body: body + b"\x00" * 3, "{got} bytes, expected {want}"),
            (lambda body: body[:-8], "{got} bytes, expected {want}"),
            (lambda body: np.full(2 * 9, np.nan).tobytes(), "parameter values must be finite"),
            (lambda body: np.r_[np.zeros(17), np.inf].tobytes(), "parameter values must be finite"),
        ],
        ids=["3-byte tail", "short body", "nan", "inf"],
    )
    def test_malformed_body_names_the_file(self, tmp_path, capsys, edit, message):
        """Behind a valid digest, the operators must fill the file exactly and be finite."""
        cfg = _write_config(tmp_path)
        path = _params_file(tmp_path / "p.bin", cfg=teacher_from_config(load_config(cfg)))
        blob = path.read_bytes()
        size, _ = _header(blob)
        _rewrite(path, body=edit(blob[40 + size :]))
        with pytest.raises(InvalidConfigError, match="must be finite|expected"):
            load_params(path)
        message = message.format(got=path.stat().st_size, want=len(blob))
        assert main(["experiment", "--config", str(cfg), "--params", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_out_of_range_teacher_behind_a_valid_digest_names_the_file(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        path = _params_file(tmp_path / "p.bin", cfg=teacher_from_config(load_config(cfg)))
        _, header = _header(path.read_bytes())
        _rewrite(path, header={**header, "teacher": {**header["teacher"], "c": -1}})
        assert main(["experiment", "--config", str(cfg), "--params", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: malformed header: step-size constant must be > 0, got -1.0\n"

    def test_header_must_list_the_operators_of_its_teacher(self, tmp_path):
        path = _params_file(tmp_path / "p.bin")
        _, header = _header(path.read_bytes())
        _rewrite(path, header={**header, "arrays": header["arrays"][:1]})
        with pytest.raises(InvalidConfigError, match="header lists arrays"):
            load_params(path)
        _rewrite(path, header={key: value for key, value in header.items() if key != "teacher"})
        with pytest.raises(InvalidConfigError, match="malformed header"):
            load_params(path)

    def test_operators_must_fit_the_dataset_teacher(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="operators are 4x4 but the dataset's teacher has k = 3"):
            _params_file(tmp_path / "p.bin", TwoChannelParams.zeros(4))
        assert not (tmp_path / "p.bin").exists()

    def test_format_1_file_is_rejected_with_a_message_to_retrain(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "p.bin"
        path.write_bytes(_format_1(TwoChannelParams(w_n=rng.normal(size=(3, 3)), w_g=rng.normal(size=(3, 3)))))
        message = f"{path} is a format 1 parameter file, with no digest or teacher; retrain it"
        with pytest.raises(InvalidConfigError, match="format 1 parameter file"):
            load_params(path)
        cfg = _write_config(tmp_path)
        assert main(["experiment", "--config", str(cfg), "--params", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        path.write_bytes(_format_1(TwoChannelParams.zeros(3))[:-1])  # not format 1 either: only damaged
        with pytest.raises(InvalidConfigError, match="SHA-256 does not match"):
            load_params(path)


class TestPipeline:
    def test_generate_train_experiment(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg)]) == 0
        assert [p.name for p in (out / "dataset").iterdir()] == [DATASET_FILE]
        assert main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")]) == 0
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "iteration,loss,grad_norm"
        grad_norm = float(log[1].split(",")[2])
        assert grad_norm <= 1e-8
        assert main(["experiment", "--config", str(cfg), "--params", str(out / "params.bin")]) == 0
        rows = (out / "matching.csv").read_text().splitlines()
        assert rows[0] == "round,mean,std"
        assert len(rows) == 7  # header + 6 rounds
        sidecar = json.loads((out / "matching.json").read_text())
        assert sidecar["seed"] == 21
        assert sidecar["teacher"]["k"] == 3
        _, header = _header((out / "params.bin").read_bytes())
        assert header["teacher"] == sidecar["teacher"]
        assert header["dataset"] == {"b": 8, "n": 6, "seed": 11}
        assert header["training"] == {"solver": "ls"}
        artifacts = ["dataset", "matching.csv", "matching.json", "params.bin", "train_log.csv"]
        assert sorted(p.name for p in out.iterdir()) == artifacts  # no params.json beside params.bin

    def test_train_removes_a_params_json_left_by_an_earlier_version(self, tmp_path):
        """That sidecar's `params_sha256` named the old `params.bin`, not the one written now."""
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg)]) == 0
        (out / "params.json").write_text(json.dumps({"params_sha256": "a6b78f1b"}) + "\n")
        assert main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["dataset", "params.bin", "train_log.csv"]

    def test_gd_solver_logs_monotone_loss(self, tmp_path):
        cfg = _write_config(tmp_path, solver="gd")
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg)])
        main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")])
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert all(a >= b - 1e-14 for a, b in zip(losses, losses[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = _write_config(tmp_path, name="a.ini", out=str(tmp_path / "a"))
        cfg_b = _write_config(tmp_path, name="b.ini", out=str(tmp_path / "b"))
        for cfg, out in ((cfg_a, tmp_path / "a"), (cfg_b, tmp_path / "b")):
            main(["generate", "--config", str(cfg)])
            main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")])
            main(["experiment", "--config", str(cfg), "--params", str(out / "params.bin")])
        assert (tmp_path / "a/matching.csv").read_bytes() == (tmp_path / "b/matching.csv").read_bytes()
        assert (tmp_path / "a/params.bin").read_bytes() == (tmp_path / "b/params.bin").read_bytes()

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg)])
        first = (out / "dataset" / DATASET_FILE).read_bytes()
        main(["generate", "--config", str(cfg), "--seed-override", "99"])
        second = (out / "dataset" / DATASET_FILE).read_bytes()
        assert first != second
        assert load_dataset(out / "dataset").seed == 99

    def test_missing_dataset_is_clear_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--dataset", str(tmp_path / "nope")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_dataset_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[teacher]\nk = 3\n\n[dataset]\nb = 0\nn = 5\nseed = 1\n")
        assert main(["generate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:4: [dataset] need at least one trajectory, got B=0\n"

    def test_lemma_suite_without_dataset_section_is_clear_error(self, tmp_path, capsys):
        path = tmp_path / "lemma.ini"
        path.write_text(
            f"[teacher]\nk = 3\n\n[experiment]\nkind = lemma-suite\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: config is missing the [dataset] section\n"

    def test_lemma_suite_at_gamma_zero_is_clear_error(self, tmp_path, capsys):
        """The KL sandwich's upper constant is K/(4 gamma): gamma = 0 is refused before any check runs."""
        path = tmp_path / "lemma.ini"
        path.write_text(
            "[teacher]\nk = 3\ngamma = 0.0\n\n[dataset]\nb = 8\nn = 4\nseed = 7\n\n"
            "[experiment]\nkind = lemma-suite\nspectrum_samples = 10\nlipschitz_samples = 30\nsandwich_draws = 2\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(path)]) == 2
        problem = "the lemma suite needs gamma > 0 (the KL sandwich divides by it), got 0.0"
        assert capsys.readouterr().err == f"error: {path}:10: [experiment] {problem}\n"
        assert not (tmp_path / "out" / "lemma_suite.json").exists()

    def test_train_on_a_dataset_with_a_nan_reward_names_the_file(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        ds = generate_dataset(teacher_from_config(load_config(cfg)), b=8, n=6, seed=11)
        ds.rewards[5, 2] = np.nan
        save_dataset(ds, tmp_path / "damaged")
        assert main(["train", "--config", str(cfg), "--dataset", str(tmp_path / "damaged")]) == 2
        path = tmp_path / "damaged" / DATASET_FILE
        assert capsys.readouterr().err == f"error: {path}: rewards of trajectory 5 is not finite\n"
        assert not (tmp_path / "out" / "params.bin").exists()

    def test_params_header_records_dataset_digest(self, tmp_path):
        """The parameter file's header names the dataset file's stored digest:
        the same for a regenerated dataset, different for another seed."""
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        params, stored = [], []
        for extra in ([], [], ["--seed-override", "99"]):
            main(["generate", "--config", str(cfg), *extra])
            main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")])
            params.append((out / "params.bin").read_bytes())
            stored.append((out / "dataset" / DATASET_FILE).read_bytes()[:32].hex())
        digests = [_header(blob)[1]["dataset_sha256"] for blob in params]
        assert digests == stored
        assert params[0] == params[1]
        assert digests[0] == digests[1] != digests[2]

    def test_params_of_another_teacher_are_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg)])
        main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")])
        other = tmp_path / "other.ini"
        other.write_text(cfg.read_text().replace("c = 1.0", "c = 0.3").replace("gamma = 0.3", "gamma = 0.6"))
        capsys.readouterr()
        assert main(["experiment", "--config", str(other), "--params", str(out / "params.bin")]) == 2
        message = f"{out / 'params.bin'} was trained for a different [teacher]: c, gamma differ"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "matching.csv").exists()
        with pytest.raises(InvalidConfigError, match="c, gamma differ"):
            load_params(out / "params.bin", teacher_from_config(load_config(other)))

    def test_flipped_byte_in_trained_params_is_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg)])
        main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")])
        path = out / "params.bin"
        original = path.read_bytes()
        for position in (0, 40, len(original) - 1):
            blob = bytearray(original)
            blob[position] ^= 0x01
            path.write_bytes(bytes(blob))
            capsys.readouterr()
            assert main(["experiment", "--config", str(cfg), "--params", str(path)]) == 2
            message = f"{path}: SHA-256 does not match the stored digest (file damaged or edited)"
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_params_k_must_match_teacher_k(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg)])
        main(["train", "--config", str(cfg), "--dataset", str(out / "dataset")])
        other = tmp_path / "k4.ini"
        other.write_text(cfg.read_text().replace("k = 3", "k = 4"))
        capsys.readouterr()
        assert main(["experiment", "--config", str(other), "--params", str(out / "params.bin")]) == 2
        message = f"{out / 'params.bin'} was trained for a different [teacher]: k differ"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "kind, drop",
        [
            ("matching", "b_test"),
            ("matching", "n"),
            ("shock", "b_test"),
            ("shock", "n"),
            ("shock", "s"),
            ("shock", "delta_r"),
        ],
    )
    def test_missing_experiment_key_is_clear_error(self, tmp_path, capsys, kind, drop):
        keys = {"kind": kind, "b_test": "4", "n": "6", "seed": "21", "s": "2", "delta_r": "0.5"}
        if kind == "matching":
            del keys["s"], keys["delta_r"]
        del keys[drop]
        experiment = "".join(f"{key} = {value}\n" for key, value in keys.items())
        path = tmp_path / "exp.ini"
        out = tmp_path / "out"
        path.write_text(f"[teacher]\nk = 3\n\n[experiment]\n{experiment}\n[output]\ndir = {out}\n")
        params = _params_file(tmp_path / "params.bin")
        assert main(["experiment", "--config", str(path), "--params", str(params)]) == 2
        assert capsys.readouterr().err == f"error: {path}:4: [experiment] is missing required key(s): {drop}\n"

    @pytest.mark.parametrize(
        "kind, key", [("matching", "b_test"), ("matching", "n"), ("shock", "b_test"), ("shock", "n")]
    )
    def test_empty_experiment_is_clear_error(self, tmp_path, capsys, kind, key):
        keys = {"kind": kind, "b_test": "4", "n": "6", "seed": "21", "s": "1", "delta_r": "0.5", key: "0"}
        if kind == "matching":
            del keys["s"], keys["delta_r"]
        experiment = "".join(f"{name} = {value}\n" for name, value in keys.items())
        path = tmp_path / "exp.ini"
        path.write_text(f"[teacher]\nk = 3\n\n[experiment]\n{experiment}\n[output]\ndir = {tmp_path / 'out'}\n")
        params = _params_file(tmp_path / "params.bin")
        assert main(["experiment", "--config", str(path), "--params", str(params)]) == 2
        got = f"got b_test={0 if key == 'b_test' else 4}, n={0 if key == 'n' else 6}"
        message = f"[experiment] need b_test >= 1 test tasks and n >= 1 rounds, {got}"
        assert capsys.readouterr().err == f"error: {path}:4: {message}\n"

    @pytest.mark.parametrize(
        "command, drop", [("experiment", "n"), ("experiment", "seed"), ("generate", "b")]
    )
    def test_missing_dataset_key_is_clear_error(self, tmp_path, capsys, command, drop):
        keys = {"b": 20, "n": 5, "seed": 7}
        dataset = "".join(f"{key} = {value}\n" for key, value in keys.items() if key != drop)
        path = tmp_path / "lemma.ini"
        path.write_text(
            f"[teacher]\nk = 3\n\n[dataset]\n{dataset}\n[experiment]\nkind = lemma-suite\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:4: [dataset] is missing required key(s): {drop}\n"

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("generate", "k = 3", "k = abc", "[teacher] k = 'abc' is not an int"),
            ("generate", "gamma = 0.3", "gamma = high", "[teacher] gamma = 'high' is not a float"),
            ("experiment", "b_test = 4", "b_test = 4.5", "[experiment] b_test = '4.5' is not an int"),
            ("train", "solver = gd", "solver = gd\nmax_iters = many", "[training] max_iters = 'many' is not an int"),
            ("train", "solver = gd", "solver = gd\nstep = big", "[training] step = 'big' is not a float"),
        ],
    )
    def test_mistyped_value_names_file_line_section_and_key(self, tmp_path, capsys, command, old, new, message):
        path = _write_config(tmp_path, solver="gd")
        text = path.read_text().replace(old, new)
        path.write_text(text)
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        params = _params_file(tmp_path / "params.bin")
        dataset = tmp_path / "dataset"
        save_dataset(generate_dataset(TeacherConfig(k=3), b=4, n=3, seed=0), dataset)
        extra = {"generate": [], "train": ["--dataset", str(dataset)], "experiment": ["--params", str(params)]}
        assert main([command, "--config", str(path), *extra[command]]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize(
        "command, old, new, where, message",
        [
            (
                "train", "solver = ls", "solver = newton", "solver = newton",
                "[training] solver = 'newton' is not 'ls' or 'gd'",
            ),
            (
                "experiment", "kind = matching", "kind = bandit", "kind = bandit",
                "[experiment] kind = 'bandit' is not 'lemma-suite', 'matching' or 'shock'",
            ),
            ("experiment", "kind = matching\n", "", "[experiment]", "[experiment] is missing required key(s): kind"),
        ],
        ids=["solver", "kind", "no-kind"],
    )
    def test_unknown_solver_or_kind_names_file_line_and_section(
        self, tmp_path, capsys, command, old, new, where, message
    ):
        path = _write_config(tmp_path)
        text = path.read_text().replace(old, new)
        path.write_text(text)
        line = text.splitlines().index(where) + 1
        dataset = tmp_path / "dataset"
        save_dataset(generate_dataset(TeacherConfig(k=3), b=4, n=3, seed=0), dataset)
        extra = {"train": ["--dataset", str(dataset)], "experiment": []}
        assert main([command, "--config", str(path), *extra[command]]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("step = nan", "step size must be finite and > 0, got nan"),
            ("step = inf", "step size must be finite and > 0, got inf"),
            ("tol = nan", "tol must be finite and >= 0, got nan"),
            ("tol = -1e-9", "tol must be finite and >= 0, got -1e-09"),
        ],
    )
    def test_unusable_gd_setting_names_file_line_and_section(self, tmp_path, capsys, setting, message):
        """A NaN or infinite step used to train 2000 steps of NaN and exit 0."""
        path = _write_config(tmp_path, solver="gd")
        text = path.read_text().replace("solver = gd", f"solver = gd\nmax_iters = 2000\n{setting}")
        path.write_text(text)
        dataset = tmp_path / "dataset"
        save_dataset(generate_dataset(TeacherConfig(k=3), b=4, n=3, seed=0), dataset)
        assert main(["train", "--config", str(path), "--dataset", str(dataset)]) == 2
        line = text.splitlines().index("[training]") + 1
        assert capsys.readouterr().err == f"error: {path}:{line}: [training] {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("c_b", "nan", "c_b must be finite and >= 0, got nan"),
            ("c_b", "-3", "c_b must be finite and >= 0, got -3.0"),
            ("delta_r", "nan", "delta_r must be finite, got nan"),
            ("delta_r", "inf", "delta_r must be finite, got inf"),
        ],
    )
    def test_unusable_shock_setting_names_file_line_and_section(self, tmp_path, capsys, key, value, message):
        """A NaN or negative c_b used to write a NaN or negative envelope; a non-finite
        delta_r ended in an error that named no file."""
        keys = {"kind": "shock", "b_test": "4", "n": "6", "seed": "21", "s": "2", "delta_r": "0.5", key: value}
        experiment = "".join(f"{name} = {text}\n" for name, text in keys.items())
        path = tmp_path / "exp.ini"
        out = tmp_path / "out"
        path.write_text(f"[teacher]\nk = 3\n\n[experiment]\n{experiment}\n[output]\ndir = {out}\n")
        params = _params_file(tmp_path / "params.bin")
        assert main(["experiment", "--config", str(path), "--params", str(params)]) == 2
        assert capsys.readouterr().err == f"error: {path}:4: [experiment] {message}\n"
        assert list(out.iterdir()) == []

    def test_generate_seed_comes_from_the_override_when_unset(self, tmp_path):
        path = tmp_path / "gen.ini"
        out = tmp_path / "out"
        path.write_text(f"[teacher]\nk = 3\n\n[dataset]\nb = 4\nn = 3\n\n[output]\ndir = {out}\n")
        assert main(["generate", "--config", str(path), "--seed-override", "5"]) == 0
        assert load_dataset(out / "dataset").seed == 5


class TestEveryKeyReachesItsCallee:
    """Commands pick keyword arguments out of the key table by name, so a key
    spelt unlike its parameter would be dropped without a word.  Each test
    sets every key of a section to a value other than the callee's default."""

    @staticmethod
    def _ini(section, values):
        return f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())

    @staticmethod
    def _capture(monkeypatch, name):
        """Replace `cli.<name>` by a stub that records its arguments, then stops the command."""
        seen = {}

        def stub(*args, **kwargs):
            seen.update(args=args, kwargs=kwargs)
            raise IcpoError("stopped")

        monkeypatch.setattr(cli, name, stub)
        return seen

    def test_teacher(self, tmp_path):
        values = {"k": 3, "c": 0.7, "gamma": 0.35, "lambda": 0.25, "tau_w": 1.5, "sigma_xi": 0.45}
        assert set(values) | {"h"} == set(cli._KEYS["teacher"])
        path = tmp_path / "t.ini"
        path.write_text(self._ini("teacher", {**values, "h": "2, 3, 4"}))
        cfg = teacher_from_config(load_config(path))
        default = TeacherConfig(k=2)
        for key, value in values.items():
            field = "lam" if key == "lambda" else key
            assert getattr(cfg, field) == value != getattr(default, field)
        assert np.array_equal(cfg.h, np.diag([2.0, 3.0, 4.0]))

    def test_me_icpo_loop_and_http_generator(self, tmp_path, monkeypatch):
        loop = {
            "rounds": 2, "k": 3, "m": 4, "temperature": 0.3, "top_p": 0.5, "entropy_temperature": 0.9,
            "max_tokens": 77, "lookahead_max_tokens": 55, "summary_cap_tokens": 33, "mode": "letter",
            "include_reward_tags": False, "selection": "reward", "final_vote": True,
        }
        http = {
            "endpoint": "http://127.0.0.1:9/v1", "model": "m7", "api_key_env": "OTHER_KEY",
            "timeout": 7.5, "max_retries": 5,
        }
        rest = {"generator": "http", "question": "Which?", "gold": "B", "script": "unused.json"}
        assert set(loop) | set(http) | set(rest) == set(cli._KEYS["me-icpo"])
        path = tmp_path / "m.ini"
        path.write_text(self._ini("me-icpo", {**loop, **http, **rest}) + f"\n[output]\ndir = {tmp_path}\n")
        seen = self._capture(monkeypatch, "run_me_icpo")
        assert main(["me-icpo", "--config", str(path)]) == 2
        question, cfg, generator = seen["args"]
        assert question == "Which?"
        for key, value in loop.items():
            assert getattr(cfg, key) == value != getattr(MeIcpoConfig(), key)
        for key, value in http.items():
            assert getattr(generator, key) == value
        self._assert_not_defaults(HttpGenerator, http)

    def test_training(self, tmp_path, monkeypatch):
        values = {"step": 0.01, "max_iters": 9, "tol": 1e-3}
        assert set(values) | {"solver"} == set(cli._KEYS["training"])
        path = tmp_path / "t.ini"
        path.write_text(self._ini("training", {"solver": "gd", **values}))
        seen = self._capture(monkeypatch, "train_gd")
        ds = generate_dataset(TeacherConfig(k=3), b=4, n=3, seed=0)
        with pytest.raises(IcpoError, match="stopped"):
            cli._train(load_config(path), ds, tmp_path)
        assert seen["kwargs"] == values
        self._assert_not_defaults(train_gd, values)

    def test_experiment(self, tmp_path, monkeypatch):
        lemma = {"spectrum_samples": 11, "lipschitz_samples": 12, "sandwich_draws": 13, "sandwich_scale": 0.5}
        shock = {"b_test": 2, "n": 4, "s": 1, "delta_r": 0.25, "c_b": 3.5}
        assert set(lemma) | set(shock) | {"kind", "seed"} == set(cli._KEYS["experiment"])
        params = _params_file(tmp_path / "params.bin")
        for kind, callee, values in (("lemma-suite", run_lemma_suite, lemma), ("shock", shock_experiment, shock)):
            path = tmp_path / f"{kind}.ini"
            path.write_text(
                "[teacher]\nk = 3\n\n[dataset]\nb = 4\nn = 3\nseed = 0\n\n"
                + self._ini("experiment", {"kind": kind, "seed": 8, **values})
                + f"\n[output]\ndir = {tmp_path}\n"
            )
            seen = self._capture(monkeypatch, callee.__name__)
            assert main(["experiment", "--config", str(path), "--params", str(params)]) == 2
            expected = {("c_b_override" if key == "c_b" else key): value for key, value in values.items()}
            assert seen["kwargs"] == {**expected, "seed": 8}
            self._assert_not_defaults(callee, expected)

    @staticmethod
    def _assert_not_defaults(callee, kwargs):
        parameters = inspect.signature(callee).parameters
        assert all(value != parameters[key].default for key, value in kwargs.items())


class _HalfWriter:
    """Stands in for the temp file: writes half of the bytes, then fails."""

    def __init__(self, path, mode):
        self._f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, blob):
        self._f.write(blob[: len(blob) // 2])
        raise OSError(28, "No space left on device")


class TestAtomicWrites:
    def _fail_writes(self, monkeypatch):
        monkeypatch.setattr(atomic, "open", _HalfWriter, raising=False)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = _params_file(tmp_path / "params.bin", TwoChannelParams(np.eye(3), np.zeros((3, 3))))
        before = path.read_bytes()
        self._fail_writes(monkeypatch)
        with pytest.raises(OSError):
            _params_file(path, TwoChannelParams(np.ones((3, 3)), np.ones((3, 3))))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["params.bin"]

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(atomic.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic.write_atomic(tmp_path / "a.json", "{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_cli_write_leaves_no_partial_artifact(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"question = What is 6 times 7?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        self._fail_writes(monkeypatch)
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        assert "No space left" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_same_bytes_as_a_plain_write(self, tmp_path):
        text = "round,mean\n1,0.5\n"
        atomic.write_atomic(tmp_path / "a.csv", text)
        (tmp_path / "b.csv").write_text(text)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestMeIcpoCommand:
    def test_scripted_run_writes_result_and_trace(self, tmp_path):
        script = [
            ["candidate boxed{5}"],
            ["summary one"],
            ["boxed{5}", "boxed{5}"],
            ["final boxed{5}"],
        ]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script))
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\n"
            "generator = mock\n"
            f"script = {script_path}\n"
            "rounds = 1\nk = 1\nm = 2\nmode = numeric\n"
            "question = What is 2+3?\n"
            "gold = 5\n"
            f"\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 0
        result = json.loads((tmp_path / "out/result.json").read_text())
        assert result["final_answer"] == "5"
        assert result["correct"] is True
        trace = (tmp_path / "out/trace.jsonl").read_text().splitlines()
        assert len(trace) == 1

    def test_builtin_demo_mock_is_deterministic(self, tmp_path):
        for name in ("x", "y"):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(
                "[me-icpo]\ngenerator = mock\nrounds = 2\nk = 3\nm = 4\nmode = numeric\n"
                f"question = What is 6 times 7?\n\n[output]\ndir = {tmp_path / name}\n"
            )
            assert main(["me-icpo", "--config", str(cfg)]) == 0
        a = (tmp_path / "x/trace.jsonl").read_bytes()
        b = (tmp_path / "y/trace.jsonl").read_bytes()
        assert a == b

    def test_percent_in_question_survives_parsing(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"question = What is 50% of 10?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 0
        result = json.loads((tmp_path / "out/result.json").read_text())
        assert result["question"] == "What is 50% of 10?"

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(line, message, id=line)
            for line, message in [
                ("temperature = nan", "temperature must be finite and >= 0, got nan"),
                ("top_p = 7", "top_p must be in (0, 1], got 7.0"),
                ("entropy_temperature = -1", "entropy_temperature must be finite and >= 0, got -1.0"),
            ]
        ],
    )
    def test_out_of_range_sampling_value_is_clear_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"{line}\nquestion = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: [me-icpo] {message}\n"
        assert not (tmp_path / "out/result.json").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_retries = -1", "max_retries must be >= 0, got -1"),
            ("timeout = 0", "timeout must be a finite number of seconds > 0, got 0.0"),
            ("timeout = -1", "timeout must be a finite number of seconds > 0, got -1.0"),
        ],
    )
    def test_bad_http_setting_is_rejected_before_any_request(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\ngenerator = http\nendpoint = http://127.0.0.1:9/v1\nmodel = m\n"
            f"{line}\nquestion = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: [me-icpo] {message}\n"
        assert not (tmp_path / "out/result.json").exists()

    @pytest.mark.parametrize("key", ["max_tokens", "lookahead_max_tokens", "summary_cap_tokens"])
    def test_token_cap_below_one_is_rejected_before_any_request(self, tmp_path, capsys, monkeypatch, key):
        demo, built = cli.demo_generator, []

        def spy():
            built.append(demo())
            return built[-1]

        monkeypatch.setattr(cli, "demo_generator", spy)
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"{key} = 0\nquestion = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: [me-icpo] {key} must be >= 1, got 0\n"
        assert all(gen.requests == [] for gen in built)
        assert not (tmp_path / "out/result.json").exists()

    def test_malformed_script_names_the_script(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["boxed{1}x", "ab"]))
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            f"[me-icpo]\ngenerator = mock\nscript = {script}\nrounds = 1\nk = 2\nm = 2\n"
            f"question = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        message = "a script is a list of lists of strings; entry 0 is 'boxed{1}x'"
        assert capsys.readouterr().err == f"error: {script}: {message}\n"
        script.write_text("[[")
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {script}: Expecting value")

    def test_mistyped_boolean_names_file_line_section_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"final_vote = maybe\nquestion = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:7: [me-icpo] final_vote = 'maybe' is not a boolean\n"
        assert not (tmp_path / "out/result.json").exists()

    @pytest.mark.parametrize(
        "lines, where, message",
        [
            ("generator = grpc\nquestion = Q?", "generator = grpc", "generator = 'grpc' is not 'mock' or 'http'"),
            ("generator = mock", "[me-icpo]", "is missing required key(s): question"),
            ("generator = mock\nquestion =", "[me-icpo]", "is missing required key(s): question"),
            ("generator = http\nquestion = Q?", "[me-icpo]", "is missing required key(s): endpoint, model"),
            ("generator = http\nendpoint = http://127.0.0.1:9/v1\nmodel =\nquestion = Q?", "[me-icpo]",
             "is missing required key(s): model"),
        ],
        ids=["unknown-generator", "no-question", "empty-question", "http-without-endpoint", "http-empty-model"],
    )
    def test_unusable_generator_or_question_names_file_line_and_section(self, tmp_path, capsys, lines, where, message):
        cfg = tmp_path / "m.ini"
        text = f"[me-icpo]\n{lines}\n\n[output]\ndir = {tmp_path / 'out'}\n"
        cfg.write_text(text)
        assert main(["me-icpo", "--config", str(cfg)]) == 2
        line = text.splitlines().index(where) + 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [me-icpo] {message}\n"
        assert not (tmp_path / "out/result.json").exists()

    # (result.json, trace.jsonl) sha256 of each run below.  Both are pure Python and sha256 of
    # the generator's texts, so the bytes are the same on every platform.
    GOLDEN = {
        "mock": (
            "6465f5f94ab81277946a06e745858d5cf4e6865fa9c223f1ab656b01821e913f",
            "c7ed1220e06f7cdac12d6815fb7c42f9bdb26b7725431a0da65bd76d08d60d9d",
        ),
        "scripted": (
            "f0c66e1ffae0a10e3b12d109b63149d1d824fc9ff1b9e6af7de27ed555aa00df",
            "79e773abc44e8ce0e8d2f67eb6454533d648d69934f49aedc61d18e2efd3a9e9",
        ),
    }
    REWARD_VOTE_SCRIPT = [
        ["a boxed{4}", "b boxed{4.0}", "c boxed{5}"],  # round 1 candidates
        ["idea a"], ["idea b"], ["idea c"],  # summaries; `reward` sends no look-aheads
        ["d boxed{5}", "e no answer", "f boxed{6}"],  # round 2 candidates: a tie, broken low
        ["idea d"], ["idea e " * 3], ["idea f"],
        ["g boxed{6}", "h boxed{5}", "i boxed{6}"],  # the final vote over k samples
    ]

    def test_artifacts_match_their_golden_digests(self, tmp_path, monkeypatch):
        """The demo preset, and a scripted `selection = reward, final_vote = true` run, write
        exactly these bytes: a change to the loop or the generators must not move them."""
        monkeypatch.chdir(tmp_path)  # the script path is relative, so result.json does not name tmp_path
        Path("script.json").write_text(json.dumps(self.REWARD_VOTE_SCRIPT))
        Path("scripted.ini").write_text(
            "[me-icpo]\ngenerator = mock\nscript = script.json\nrounds = 2\nk = 3\nm = 2\nmode = numeric\n"
            "summary_cap_tokens = 4\nselection = reward\nfinal_vote = true\nquestion = What is 2+4?\ngold = 6\n"
        )
        preset = Path(__file__).resolve().parents[1] / "presets" / "meicpo_mock.ini"
        digests = {}
        for name, cfg in (("mock", preset), ("scripted", Path("scripted.ini"))):
            assert main(["me-icpo", "--config", str(cfg), "--out", name]) == 0
            written = [(tmp_path / name / f).read_bytes() for f in ("result.json", "trace.jsonl")]
            digests[name] = tuple(sha256(blob).hexdigest() for blob in written)
        assert digests == self.GOLDEN

    def test_experiment_kind_me_icpo_rejected(self, tmp_path, capsys):
        """The refinement loop runs through the `me-icpo` command only."""
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[experiment]\nkind = me-icpo\n\n"
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"question = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 2
        message = "[experiment] kind = 'me-icpo' is not 'lemma-suite', 'matching' or 'shock'"
        assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"
        assert not (tmp_path / "out/result.json").exists()


def _probe(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports this checkout's package."""
    src = str(Path(icpo_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_loads_no_http_stack():
    """Only `me-icpo` with `generator = http` needs HTTP; no command pays for it at startup."""
    probe = "import sys, icpo_lab.cli; print(sorted({'requests', 'urllib3', 'http.client', 'ssl'} & set(sys.modules)))"
    assert _probe(probe) == "[]"


class TestImportGraph:
    """Names live in their modules: a package facade that grows back fails here."""

    def test_package_root_loads_no_submodule(self):
        probe = "import sys, icpo_lab; print(sorted(m for m in sys.modules if m.startswith('icpo_lab.')))"
        assert _probe(probe) == "[]"

    def test_text_side_loads_no_numpy(self):
        probe = "import sys, icpo_lab.meicpo.loop, icpo_lab.meicpo.generator; print('numpy' in sys.modules)"
        assert _probe(probe) == "False"

    def test_every_module_in_the_readme_table_imports(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        modules = re.findall(r"^\| `(icpo_lab(?:\.\w+)*)` \|", readme, re.MULTILINE)
        assert "icpo_lab.cli" in modules and "icpo_lab.meicpo" in modules
        for name in modules:
            importlib.import_module(name)

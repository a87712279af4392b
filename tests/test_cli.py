"""CLI tests: config validation, parameter file format, end-to-end commands."""

import json

import numpy as np
import pytest

from icpo_lab.cli import load_config, load_params, main, save_params, teacher_from_config
from icpo_lab.errors import InvalidConfigError
from icpo_lab.lsa import TwoChannelParams

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


class TestParamsFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tc = TwoChannelParams(w_n=rng.normal(size=(5, 5)), w_g=rng.normal(size=(5, 5)))
        path = tmp_path / "p.bin"
        save_params(tc, path)
        back = load_params(path)
        assert np.array_equal(back.w_n, tc.w_n)
        assert np.array_equal(back.w_g, tc.w_g)
        # 8-byte header, then 2 K^2 doubles.
        assert path.stat().st_size == 8 + 2 * 25 * 8

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"\x03\x00\x00\x00\x01\x00\x00\x00" + b"\x00" * 16)
        with pytest.raises(InvalidConfigError):
            load_params(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"\x02\x00\x00\x00\x09\x00\x00\x00" + b"\x00" * (2 * 4 * 8))
        with pytest.raises(InvalidConfigError):
            load_params(path)


class TestPipeline:
    def test_generate_train_experiment(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (out / "dataset/manifest.json").exists()
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
        train_sidecar = json.loads((out / "params.json").read_text())
        assert train_sidecar["dataset"]["seed"] == 11
        assert train_sidecar["training"]["solver"] == "ls"

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
        first = (out / "dataset/manifest.json").read_text()
        main(["generate", "--config", str(cfg), "--seed-override", "99"])
        second = (out / "dataset/manifest.json").read_text()
        assert first != second
        assert json.loads(second)["seed"] == 99

    def test_missing_dataset_is_clear_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--dataset", str(tmp_path / "nope")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_dataset_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[teacher]\nk = 3\n\n[dataset]\nb = 0\nn = 5\nseed = 1\n")
        assert main(["generate", "--config", str(path)]) == 2


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

    def test_experiment_kind_me_icpo_rejected(self, tmp_path, capsys):
        """The refinement loop runs through the `me-icpo` command only."""
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[experiment]\nkind = me-icpo\n\n"
            "[me-icpo]\ngenerator = mock\nrounds = 1\nk = 2\nm = 2\nmode = numeric\n"
            f"question = Anything?\n\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "unknown experiment kind 'me-icpo'" in capsys.readouterr().err
        assert not (tmp_path / "out/result.json").exists()

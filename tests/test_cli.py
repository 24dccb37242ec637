import json
import os
import subprocess
import sys

import numpy as np
import pytest

from smrabooth import cli
from smrabooth.errors import BadConfig
import smrabooth
from smrabooth.numerics import read_stns, write_stns

# micro config: every CLI path must run in seconds, not minutes
FAST = {
    "model": {"d_model": 16, "n_blocks": 1, "n_heads": 2, "d_ffn": 32},
    "sampler": {"steps": 3, "cfg_scale": 1.5},
    "data": {"height": 16, "width": 16, "frames": 5,
             "n_subjects": 2, "n_motions": 1},
    "custom": {"subject": {"size": 0.4}},
    "pretrain": {"steps": 20},
    "subject": {"steps": 6, "rank": 2},
    "motion": {"steps": 4, "rank": 2, "mora_every": 2},
    "sweep": {"train_steps": 4, "sampler_steps": 2},
    "probe": {"sampler_steps": 4},
    "ablate": {"subject_steps": 3, "motion_steps": 3, "sampler_steps": 2},
}


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FAST))
    return str(path)


def test_config_roundtrip_identity(fast_config):
    cfg = cli.load_config(fast_config)
    again = json.loads(cli.serialize_config(cfg))
    assert again == cfg


def test_config_defaults_from_preset():
    cfg = cli.load_config(None)
    assert cfg["preset"] == "desk"
    assert cfg["sampler"]["steps"] == 50
    assert cfg["subject"]["lam"] == 0.05
    assert cfg["motion"]["alpha_w"] == 1.0
    assert cfg["pretrain"]["steps"] == 2000


def test_paper_scale_preset_ranks():
    cfg = cli._merge(cli.PRESETS["paper-scale"], {})
    assert cfg["subject"]["rank"] == 32
    assert cfg["motion"]["rank"] == 64
    assert cfg["subject"]["lr"] == 1e-4
    assert cfg["sampler"]["cfg_scale"] == 5.0


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modell": {}}))
    with pytest.raises(BadConfig):
        cli.load_config(str(path))
    path.write_text(json.dumps({"model": {"d_modl": 3}}))
    with pytest.raises(BadConfig):
        cli.load_config(str(path))


def test_unknown_preset_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"preset": "galactic"}))
    with pytest.raises(BadConfig):
        cli.load_config(str(path))


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SMRA_SEED", "1234")
    cfg = cli.load_config(None)
    assert cfg["seed"] == 1234


def test_cli_gen_data(fast_config, tmp_path):
    out = str(tmp_path / "corpus")
    assert cli.run(["gen-data", "--config", fast_config, "--out", out]) == 0
    manifest = json.loads(open(os.path.join(out, "corpus.json")).read())
    assert manifest["n_samples"] == 2
    assert os.path.exists(os.path.join(out, "sample000.stns"))
    assert os.path.exists(os.path.join(out, "custom_subject.json"))


def test_cli_full_workflow(fast_config, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    assert cli.run(["pretrain", "--config", fast_config, "--out", ckpt]) == 0
    assert os.path.exists(os.path.join(ckpt, "checkpoint.json"))
    assert os.path.exists(os.path.join(ckpt, "manifest.json"))

    subj = str(tmp_path / "subj")
    assert cli.run(["train-subject", "--config", fast_config,
                    "--checkpoint", ckpt, "--out", subj]) == 0
    assert os.path.exists(os.path.join(subj, "lora.json"))
    assert os.path.exists(os.path.join(subj, "vstar.stns"))

    mot = str(tmp_path / "mot")
    assert cli.run(["train-motion", "--config", fast_config,
                    "--checkpoint", ckpt, "--out", mot]) == 0
    assert os.path.exists(os.path.join(mot, "sstar.stns"))

    gen = str(tmp_path / "gen")
    assert cli.run(["infer", "--config", fast_config, "--checkpoint", ckpt,
                    "--subject", subj, "--motion", mot, "--out", gen]) == 0
    assert os.path.exists(os.path.join(gen, "video.stns"))
    assert os.path.exists(os.path.join(gen, "report.json"))
    assert os.path.exists(os.path.join(gen, "frames", "frame000.ppm"))
    report = json.loads(open(os.path.join(gen, "report.json")).read())
    assert report["subject_similarity"] is not None
    assert report["motion_fidelity"] is not None

    # eval an emitted video
    ev_out = str(tmp_path / "ev")
    assert cli.run(["eval", "--config", fast_config,
                    "--video", os.path.join(gen, "video.stns"),
                    "--out", ev_out]) == 0
    rep = json.loads(open(os.path.join(ev_out, "report.json")).read())
    assert np.isfinite(rep["subject_similarity"])

    # probe timing on the artifacts
    probe = str(tmp_path / "probe")
    assert cli.run(["probe-timing", "--config", fast_config,
                    "--checkpoint", ckpt, "--subject", subj,
                    "--motion", mot, "--out", probe]) == 0
    lines = open(os.path.join(probe, "probe.jsonl")).read().splitlines()
    assert len(lines) == 4
    stat = json.loads(open(os.path.join(probe, "probe.json")).read())
    assert "spearman_last25" in stat


def test_cli_infer_reproducible_from_manifest_config(fast_config, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    cli.run(["pretrain", "--config", fast_config, "--out", ckpt])
    g1, g2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    assert cli.run(["infer", "--config", fast_config, "--checkpoint", ckpt,
                    "--out", g1]) == 0
    # rerun from the manifest's embedded resolved config alone
    man = json.loads(open(os.path.join(g1, "manifest.json")).read())
    rewritten = tmp_path / "from_manifest.json"
    embedded = man["extra"]["cli_config"]
    embedded.pop("preset")
    rewritten.write_text(json.dumps(embedded))
    assert cli.run(["infer", "--config", str(rewritten), "--checkpoint", ckpt,
                    "--out", g2]) == 0
    v1 = read_stns(os.path.join(g1, "video.stns"))
    v2 = read_stns(os.path.join(g2, "video.stns"))
    assert np.array_equal(v1, v2)
    r1 = json.loads(open(os.path.join(g1, "report.json")).read())
    r2 = json.loads(open(os.path.join(g2, "report.json")).read())
    assert r1 == r2


def test_cli_sweep_layers(fast_config, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    cli.run(["pretrain", "--config", fast_config, "--out", ckpt])
    out = str(tmp_path / "sweep")
    assert cli.run(["sweep-layers", "--config", fast_config,
                    "--checkpoint", ckpt, "--metric", "subject",
                    "--out", out]) == 0
    table = json.loads(open(os.path.join(out, "sweep.json")).read())
    assert table["normalized"]["full"] == 100.0
    assert len(table["normalized"]) == 7
    assert os.path.exists(os.path.join(out, "sweep.csv"))


def test_cli_ablate_combos(fast_config, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    cli.run(["pretrain", "--config", fast_config, "--out", ckpt])
    out = str(tmp_path / "combos")
    assert cli.run(["ablate-combos", "--config", fast_config,
                    "--checkpoint", ckpt, "--out", out]) == 0
    combos = json.loads(open(os.path.join(out, "combos.json")).read())
    assert set(combos) == {"combo1_full_full", "combo2_qk_voff0f2",
                           "combo3_qkf0_vof2", "ours_qkf0_voff0f2"}
    for rep in combos.values():
        assert np.isfinite(rep["subject_similarity"])
        assert np.isfinite(rep["motion_fidelity"])
        assert np.isfinite(rep["temporal_consistency"])


def test_cli_validation_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert cli.run(["pretrain", "--config", str(bad),
                    "--out", str(tmp_path / "x")]) == 1
    assert cli.run(["infer", "--config", None or str(bad),
                    "--checkpoint", "/nonexistent", "--out",
                    str(tmp_path / "y")]) == 1


def test_eval_truncated_video_exits_1_without_traceback(tmp_path, fast_config):
    video = tmp_path / "video.stns"
    write_stns(video, np.zeros((5, 16, 16, 3), np.float32))
    video.write_bytes(video.read_bytes()[:-7])
    src = os.path.dirname(os.path.dirname(smrabooth.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "smrabooth.cli", "eval", "--config", fast_config,
         "--video", str(video), "--out", str(tmp_path / "ev")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "truncated payload" in proc.stderr
    assert "Traceback" not in proc.stderr

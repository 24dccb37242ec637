"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. End-to-end criteria share a session-scoped pretrained base built on a
reduced desk configuration (16x16, 9-frame videos) that fits the stated
per-stage time budgets with margin; no criterion depends on the data scale.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from smrabooth import data, dit, evaluation as ev, flowmatch as fm
from smrabooth import lora, mora, pipeline, sura
from smrabooth import numerics as nm
from smrabooth import toyvae as tv
from smrabooth.numerics import ParamStore, Tensor
from smrabooth.toyvae import VideoTensor

pytestmark = pytest.mark.acceptance

# reduced desk scale for the end-to-end criteria
H = W = 16
FRAMES = 9
MODEL = dit.ModelConfig()          # spec defaults: d=64, 4 blocks
ENC = sura.PatchEncoder(seed=0)
FLOW = mora.FlowConfig()

PRETRAIN = dict(steps=5000, lr=1e-2, optimizer="adam", seed=0)
SUBJECT = dict(steps=800, lr=3e-3, rank_subject=8, optimizer="adam")
MOTION = dict(steps=600, lr=3e-3, rank_motion=16, mora_every=2,
              optimizer="adam")
EVAL_CFG_SCALE = 1.5
EVAL_SAMPLER_SEEDS = (41, 42, 43)
TRAIN_SEEDS = (1, 2, 3)


def _report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -- shared end-to-end artifacts --------------------------------------------------

@pytest.fixture(scope="session")
def corpus():
    return data.build_pretrain_corpus(H=H, W=W, frames=FRAMES,
                                      n_subjects=2, n_motions=2, seed=0)


@pytest.fixture(scope="session")
def base(corpus):
    cfg = pipeline.TrainConfig(stage="pretrain", **PRETRAIN)
    start = time.time()
    params, manifest = pipeline.pretrain(cfg, corpus, MODEL)
    elapsed = time.time() - start
    assert elapsed < 300, f"pretrain took {elapsed:.0f}s, budget is 5 min"
    return params, manifest, elapsed


@pytest.fixture(scope="session")
def subject_sample():
    # a subject the pretraining corpus has never seen
    spec = data.SubjectSpec(shape="circle", fill_color=(0.1, 0.75, 0.8),
                            texture_seed=77, size=0.5)
    return data.gen_subject(spec, H, W, seed=10)


@pytest.fixture(scope="session")
def motion_sample():
    # a corpus subject moving along a direction the corpus never shows
    sub = data.default_subjects(2, 0)[0]
    mot = data.fit_motion(data.MotionSpec(kind="linear", frames=FRAMES,
                                          velocity=(-1.0, 0.0)), sub, H, W)
    return data.gen_motion(mot, sub, H, W, seed=11)


def _sampler(seed, steps=50, g=EVAL_CFG_SCALE):
    return fm.SamplerConfig(steps=steps, cfg_scale=g, seed=seed)


def _subject_score(params, artifact, sample, sampler_seeds):
    ref = VideoTensor(Tensor(sample.video.frames.data[:1]))
    vals = []
    for ss in sampler_seeds:
        _, rep, _ = pipeline.infer(MODEL, params, artifact, None,
                                   sample.caption, _sampler(ss), n_frames=1,
                                   resolution=(H, W), ref_image=ref, enc=ENC)
        vals.append(rep.subject_similarity)
    return float(np.mean(vals))


def _motion_score(params, artifact, sample, sampler_seeds):
    vals = []
    for ss in sampler_seeds:
        _, rep, _ = pipeline.infer(MODEL, params, None, artifact,
                                   sample.caption, _sampler(ss),
                                   n_frames=FRAMES, resolution=(H, W),
                                   ref_video=sample.video, flow_cfg=FLOW)
        vals.append(rep.motion_fidelity)
    return float(np.mean(vals))


# -- criterion 1: codec exactness --------------------------------------------------

def test_criterion_1_codec_exactness():
    start = time.time()
    rng = np.random.default_rng(0)
    for trial in range(50):
        t = int(rng.choice([1, 5, 9, 13, 17]))
        x = rng.random((t, 16, 16, 3)).astype(np.float32)
        v = VideoTensor(Tensor(x))
        back = tv.decode(tv.encode(v))
        assert np.array_equal(back.frames.data, x)
    x = rng.random((49, 16, 16, 3)).astype(np.float32)
    z = tv.encode(VideoTensor(Tensor(x)))
    full = tv.decode(z).frames.data
    for b in tv.decode_windowed(z, 6, 2):
        n = b.frames.shape[0]
        assert np.array_equal(b.frames.data,
                              full[b.pixel_frame_offset:b.pixel_frame_offset + n])
    elapsed = time.time() - start
    assert _report(1, elapsed < 5.0,
                   f"(50 roundtrips bit-exact, windows bit-exact, {elapsed:.1f}s)")


# -- criterion 2: flow-matching algebra --------------------------------------------

def test_criterion_2_flow_matching_algebra():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        z0 = Tensor(rng.normal(size=(2, 3, 3, 8)))
        z1 = Tensor(rng.normal(size=(2, 3, 3, 8)))
        t = float(rng.random())
        rec = fm.recover_z0(fm.interpolate(z0, z1, t),
                            fm.velocity_target(z0, z1), t)
        worst = max(worst, float(np.abs(rec.data - z0.data).max()))
    assert worst <= 1e-6
    z0 = rng.normal(size=(1, 2, 2, 8))
    z1 = rng.normal(size=(1, 2, 2, 8))
    vel = Tensor(z1 - z0)
    model = lambda z, t, c, ctx: vel
    worst_s = 0.0
    for steps in (1, 5, 50):
        cfg = fm.SamplerConfig(steps=steps, cfg_scale=1.0, seed=0)
        out = fm.sample(model, None, None, cfg, init=Tensor(z1),
                        dtype=np.float64)
        worst_s = max(worst_s, float(np.abs(out.data - z0).max()))
    assert worst_s <= 1e-6
    elapsed = time.time() - start
    assert _report(2, elapsed < 5.0,
                   f"(recover err {worst:.1e}, sampler err {worst_s:.1e}, {elapsed:.1f}s)")


# -- criterion 3: gradient checks ---------------------------------------------------

def _merged(base_params, probe):
    merged = ParamStore(base_params.rng_seed)
    for name, p in base_params.items():
        if name in probe:
            merged.add(name, probe[name], trainable=True)
        else:
            merged.add(name, Tensor(p.data), trainable=False)
    return merged


def test_criterion_3_gradient_checks():
    start = time.time()
    cfg = dit.ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ffn=16)
    params = dit.init_params(cfg, 1)
    params["head.weight"].data[:] = np.random.default_rng(8).normal(
        0, 0.05, params["head.weight"].shape)
    rng = np.random.default_rng(9)
    cond = dit.embed_text("A picture of V* circle", 1, cfg)
    z = nm.constant(rng.normal(size=(1, 2, 2, tv.D_LAT)), dtype=np.float64)
    target = nm.constant(rng.normal(size=(1, 2, 2, tv.D_LAT)), dtype=np.float64)
    results = {}

    # velocity prediction loss, all parameters of the one-block model
    probe = ParamStore()
    for name, p in params.trainable_items():
        probe.add(name, p.data.copy())

    def eq1(ps):
        out = dit.forward(cfg, _merged(params, ps), z, 0.37, cond)
        return fm.velocity_loss(out.velocity, target)

    results["velocity"] = nm.grad_check(eq1, probe)

    # masked velocity loss, same probe set
    mask = np.zeros((1, 2, 2), dtype=np.float64)
    mask[0, 0, 0] = mask[0, 1, 1] = 1.0

    def eq6(ps):
        out = dit.forward(cfg, _merged(params, ps), z, 0.37, cond)
        return fm.masked_velocity_loss(out.velocity, target, mask)

    results["masked"] = nm.grad_check(eq6, probe)

    # subject alignment through the tap and projector (+ the V* row)
    enc = sura.PatchEncoder(seed=0, d_enc=6)
    image = rng.random((1, 8, 8, 3)).astype(np.float32)
    y_star = sura.encode_patches(enc, image)
    proj = sura.init_projector(cfg.d_model, 6, seed=2)
    probe_s = ParamStore()
    for name, p in proj.params.items():
        probe_s.add(name, p.data.copy())
    probe_s.add("text.vstar", params["text.vstar"].data.copy())
    for name in ("block1.self_attn.q.weight", "patch_embed.bias"):
        probe_s.add(name, params[name].data.copy())

    def eq5(ps):
        merged = _merged(params, ps)
        out = dit.forward(cfg, merged, z, 0.37, cond,
                          token_overrides={"text.vstar": ps["text.vstar"]})
        local = sura.Projector(cfg.d_model, 6, ps)
        return sura.sura_loss(y_star, out.tap, local)

    results["alignment"] = nm.grad_check(eq5, probe_s)

    # flow alignment through recovery, decode, and Horn-Schunck
    video = rng.random((5, 8, 8, 3)).astype(np.float32)
    z0 = tv.encode(VideoTensor(Tensor(video))).latents
    z1 = Tensor(rng.standard_normal(z0.shape).astype(np.float32))
    t_m = 0.55
    z_t = fm.interpolate(z0, z1, t_m)
    ref = mora.flow_stack(video, FLOW)
    mset = lora.attach("motion", cfg, rank=2, seed=6)
    for name, ad in mset.adapters.items():
        ad.b.data[:] = np.random.default_rng(abs(hash(name)) % 2**32).normal(
            0, 0.05, ad.b.shape).astype(np.float32)
    probe_m = mset.trainable_params()

    def eq11(ps):
        ctx = lora.LoraContext()
        for name, ad in mset.adapters.items():
            ctx.add(name, lora.LoraAdapter(
                name, ad.layer_type, ps[f"lora.motion.{name}.A"],
                ps[f"lora.motion.{name}.B"]), 1.0)
        out = dit.forward(cfg, params, Tensor(z_t.data.astype(np.float64)),
                          t_m, cond, ctx)
        den = mora.denoised_flow_stack(Tensor(z_t.data.astype(np.float64)),
                                       out.velocity, t_m, FLOW)
        return mora.mora_loss(ref, den)

    results["flow-alignment"] = nm.grad_check(eq11, probe_m)

    # fused-feature alignment through the relation map
    probe_r = ParamStore()
    for name, p in proj.params.items():
        probe_r.add(name, p.data.copy())
    probe_r.add("tap", rng.normal(size=(4, cfg.d_model)))

    def eq16(ps):
        local = sura.Projector(cfg.d_model, 6, ps)
        projected = local.apply(ps["tap"])
        _, fused = sura.raa_fuse(projected, y_star)
        return sura.raa_loss(y_star, fused)

    results["fused-alignment"] = nm.grad_check(eq16, probe_r)

    elapsed = time.time() - start
    detail = " ".join(f"{k}={v.max_rel_err:.1e}" for k, v in results.items())
    ok = all(v.max_rel_err < 1e-3 for v in results.values()) and elapsed < 180
    assert _report(3, ok, f"({detail}, {elapsed:.0f}s)")


# -- criterion 4: adapter neutrality and composition -------------------------------

def test_criterion_4_lora_neutrality_and_composition():
    start = time.time()
    cfg = dit.ModelConfig(d_model=16, n_blocks=2, n_heads=2, d_ffn=32)
    params = dit.init_params(cfg, 3)
    cond = dit.embed_text("x y", 3, cfg)
    z = Tensor(np.random.default_rng(2).normal(
        size=(1, 2, 2, tv.D_LAT)).astype(np.float32))
    plain = dit.forward(cfg, params, z, 0.5, cond).velocity.data
    subject = lora.attach("subject", cfg, 2, seed=4)
    motion = lora.attach("motion", cfg, 2, seed=5)
    ctx = lora.merge(subject, motion, 1)
    assert np.array_equal(
        plain, dit.forward(cfg, params, z, 0.5, cond, ctx).velocity.data)
    rng = np.random.default_rng(6)
    for s in (subject, motion):
        for ad in s.adapters.values():
            ad.b.data[:] = rng.normal(0, 0.1, ad.b.shape).astype(np.float32)
    ctx = lora.merge(subject, motion, 20)
    merged = dit.forward(cfg, params, z, 0.5, cond, ctx).velocity.data
    direct_params = params.copy()
    for name in set(subject.adapters) | set(motion.adapters):
        direct_params[name + ".weight"].data += ctx.total_delta(name)
    direct = dit.forward(cfg, direct_params, z, 0.5, cond).velocity.data
    delta_err = float(np.abs(merged - direct).max())
    assert delta_err <= 1e-6
    sched = lora.ScaleSchedule(t_point=15, s_low=0.5, s_high=1.0)
    assert [lora.schedule_scale(sched, s) for s in (1, 14, 15, 16, 50)] == \
        [0.5, 0.5, 1.0, 1.0, 1.0]
    elapsed = time.time() - start
    assert _report(4, elapsed < 10.0,
                   f"(neutral bit-exact, merge err {delta_err:.1e}, "
                   f"schedule 0.5/1.0 at t_point=15, {elapsed:.1f}s)")


# -- criterion 5: flow estimator sanity ---------------------------------------------

def test_criterion_5_flow_estimator_sanity():
    start = time.time()

    def texture(seed):
        r = np.random.default_rng(seed)
        yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
        img = np.zeros((32, 32))
        for _ in range(6):
            fx, fy = r.uniform(-0.15, 0.15, 2)
            img += r.uniform(0.5, 1.0) * np.sin(
                2 * np.pi * (fx * xx + fy * yy) + r.uniform(0, 2 * np.pi))
        img = (img - img.min()) / (img.max() - img.min())
        return np.repeat(img[:, :, None], 3, 2).astype(np.float32)

    f = texture(0)
    assert np.abs(mora.flow(f, f, FLOW).data).max() == 0.0
    errs = []
    for seed in range(5):
        img = texture(seed)
        fl = mora.flow(img, np.roll(img, 1, axis=1), FLOW).data
        errs.append(abs(fl[..., 0].mean() - 1.0))
        assert errs[-1] < 0.3, f"seed {seed}: mean u off by {errs[-1]:.2f}"
    elapsed = time.time() - start
    assert _report(5, elapsed < 30.0,
                   f"(zero-flow exact, shift errs {max(errs):.2f} max, {elapsed:.1f}s)")


# -- criterion 6: end-to-end subject stage ------------------------------------------

def test_criterion_6_subject_stage(base, subject_sample):
    params, _, pre_elapsed = base
    deltas, with_align, without_align = [], [], []
    budget_ok = True
    for seed in TRAIN_SEEDS:
        cfg = pipeline.TrainConfig(stage="subject", seed=seed, **SUBJECT)
        start = time.time()
        art, _ = pipeline.train_subject(cfg, MODEL, params, [subject_sample],
                                        enc=ENC)
        budget_ok &= (time.time() - start) < 120
        cfg0 = pipeline.TrainConfig(stage="subject", seed=seed, lam=0.0,
                                    **SUBJECT)
        art0, _ = pipeline.train_subject(cfg0, MODEL, params, [subject_sample],
                                         enc=ENC)
        untrained = pipeline.SubjectArtifact(
            lora=lora.attach("subject", MODEL, SUBJECT["rank_subject"],
                             seed=100 + seed),
            projector=art.projector,
            vstar=Tensor(params["text.vstar"].data.copy()))
        s_tr = _subject_score(params, art, subject_sample, EVAL_SAMPLER_SEEDS)
        s_un = _subject_score(params, untrained, subject_sample,
                              EVAL_SAMPLER_SEEDS)
        s_wo = _subject_score(params, art0, subject_sample, EVAL_SAMPLER_SEEDS)
        deltas.append(s_tr - s_un)
        with_align.append(s_tr)
        without_align.append(s_wo)
    improvement = float(np.mean(deltas))
    direction = float(np.mean(with_align) - np.mean(without_align))
    ok = improvement > 0.0 and budget_ok
    assert _report(
        6, ok,
        f"(pretrain {pre_elapsed:.0f}s; trained-vs-untrained mean delta "
        f"{improvement:+.4f}; with-alignment {np.mean(with_align):.4f} vs "
        f"lambda=0 {np.mean(without_align):.4f}, direction "
        f"{direction:+.4f} reported)")


# -- criterion 7: end-to-end motion stage -------------------------------------------

def test_criterion_7_motion_stage(base, motion_sample):
    params, _, _ = base
    baseline = _motion_score(params, None, motion_sample, EVAL_SAMPLER_SEEDS)
    trained_scores, without_mora = [], []
    for seed in TRAIN_SEEDS:
        cfg = pipeline.TrainConfig(stage="motion", seed=seed, **MOTION)
        art, _ = pipeline.train_motion(cfg, MODEL, params, [motion_sample],
                                       flow_cfg=FLOW)
        trained_scores.append(
            _motion_score(params, art, motion_sample, EVAL_SAMPLER_SEEDS))
        cfg0 = pipeline.TrainConfig(stage="motion", seed=seed,
                                    **{**MOTION, "alpha_w": 0.0})
        art0, _ = pipeline.train_motion(cfg0, MODEL, params, [motion_sample],
                                        flow_cfg=FLOW)
        without_mora.append(
            _motion_score(params, art0, motion_sample, EVAL_SAMPLER_SEEDS))
    trained = float(np.mean(trained_scores))
    ok = trained > baseline
    assert _report(
        7, ok,
        f"(trained mean {trained:+.4f} vs no-adapter baseline "
        f"{baseline:+.4f}; without flow-alignment {np.mean(without_mora):+.4f} "
        f"reported)")


# -- criterion 8: attribution harness -----------------------------------------------

def test_criterion_8a_layer_sweep(base, subject_sample):
    params, _, _ = base
    cfg = pipeline.TrainConfig(stage="subject", seed=1, **SUBJECT)
    art, _ = pipeline.train_subject(cfg, MODEL, params, [subject_sample],
                                    enc=ENC, layer_types=ev.SWEEP_TYPES)
    table = ev.layer_sweep(MODEL, params, art.lora, [subject_sample],
                           "subject", _sampler(9, steps=12), enc=ENC,
                           flow_cfg=FLOW, token_overrides=art.token_overrides())
    rows = set(table.normalized)
    ok = (rows == set(ev.SWEEP_TYPES) | {"full"}
          and table.normalized["full"] == 100.0
          and min(table.normalized.values()) == 0.0)
    assert _report("8a", ok,
                   f"(7 rows, full=100, min=0; raw full {table.reference:.4f})")


def test_criterion_8b_combination_ablation(base, subject_sample, motion_sample):
    params, _, _ = base
    tcfg = pipeline.TrainConfig(stage="subject", seed=1,
                                **{**SUBJECT, "steps": 150})
    reports = ev.combination_ablation(
        MODEL, params, subject_sample, motion_sample, tcfg,
        _sampler(5, steps=12), enc=ENC, flow_cfg=FLOW)
    ok = set(reports) == set(ev.DEFAULT_COMBOS)
    for rep in reports.values():
        ok &= all(np.isfinite(v) for v in (rep.subject_similarity,
                                           rep.motion_fidelity,
                                           rep.temporal_consistency))
    lines = "; ".join(f"{k}: subj {r.subject_similarity:+.3f} "
                      f"mot {r.motion_fidelity:+.3f}"
                      for k, r in reports.items())
    assert _report("8b", ok, f"({lines})")


def test_criterion_8c_timing_probe():
    # probe on a toy trained into the regime where late refinement exists:
    # a base memorizing a small scene family
    s1 = data.gen_subject(data.SubjectSpec(shape="circle",
                                           fill_color=(0.1, 0.75, 0.8),
                                           texture_seed=77, size=0.5),
                          H, W, seed=10)
    s1.caption = "A cyan circle"
    s2 = data.gen_subject(data.SubjectSpec(shape="square",
                                           fill_color=(0.85, 0.2, 0.15),
                                           texture_seed=3, size=0.4),
                          H, W, seed=12)
    s2.caption = "A red square"
    cfg = pipeline.TrainConfig(stage="pretrain", steps=4000, seed=0, lr=3e-3,
                               optimizer="adam")
    params, _ = pipeline.pretrain(cfg, [s1, s2], MODEL)
    ref = VideoTensor(Tensor(s1.video.frames.data[:1]))
    cond = dit.embed_text(s1.caption, params.rng_seed, MODEL)
    uncond = dit.embed_text("", params.rng_seed, MODEL)
    rhos = []
    for seed in (21, 22, 23):
        curve = ev.timing_probe(MODEL, params, None, None, cond, uncond,
                                _sampler(seed, steps=50, g=2.0), ref, enc=ENC)
        assert len(curve) == 50
        rhos.append(ev.spearman_trend(curve, last_n=25))
    positives = sum(r > 0 for r in rhos)
    ok = positives >= 2
    assert _report("8c", ok,
                   f"(Spearman last-25: {', '.join(f'{r:+.2f}' for r in rhos)}; "
                   f"positive in {positives}/3 seeds)")


# -- criterion 9: manifest determinism ----------------------------------------------

def test_criterion_9_manifest_determinism(corpus, subject_sample):
    small = pipeline.TrainConfig(stage="pretrain", steps=30, seed=5, lr=1e-2,
                                 optimizer="adam")
    p1, m1 = pipeline.pretrain(small, corpus, MODEL)
    p2, m2 = pipeline.pretrain(small, corpus, MODEL)
    ok = (p1.checksum() == p2.checksum()
          and m1.outputs == m2.outputs and m1.extra == m2.extra)
    scfg = pipeline.TrainConfig(stage="subject", steps=10, seed=5, lr=3e-3,
                                rank_subject=2, optimizer="adam")
    a1, am1 = pipeline.train_subject(scfg, MODEL, p1, [subject_sample], enc=ENC)
    a2, am2 = pipeline.train_subject(scfg, MODEL, p1, [subject_sample], enc=ENC)
    ok &= am1.outputs["artifact_checksum"] == am2.outputs["artifact_checksum"]
    ref = VideoTensor(Tensor(subject_sample.video.frames.data[:1]))
    v1, r1, im1 = pipeline.infer(MODEL, p1, a1, None, subject_sample.caption,
                                 _sampler(8, steps=6), n_frames=FRAMES,
                                 resolution=(H, W), ref_image=ref, enc=ENC)
    v2, r2, im2 = pipeline.infer(MODEL, p1, a2, None, subject_sample.caption,
                                 _sampler(8, steps=6), n_frames=FRAMES,
                                 resolution=(H, W), ref_image=ref, enc=ENC)
    ok &= im1.outputs["video_checksum"] == im2.outputs["video_checksum"]
    ok &= r1.as_dict() == r2.as_dict()
    assert _report(9, ok, "(checkpoints, artifacts, videos, reports bit-identical)")

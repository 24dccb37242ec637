"""The benchmark's three workloads: seeded inputs, set-up, the op loop, and
the output checks that turn a wrong result into a failed op.

Each workload is a closed loop with one caller: the next op starts only when
the previous one has finished. ``subject_stage`` and ``motion_mora`` time one
training step each, between ``on_step`` callbacks; the first step of every
``train_*`` call also carries the stage's preparation and is run but not
timed. ``generate`` times one CLI-shaped ``infer`` request, artifact loads
included.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

from smrabooth import data, dit, flowmatch, lora, mora, pipeline, sura
from smrabooth.numerics import Tensor
from smrabooth.toyvae import VideoTensor

WORKLOADS = ("subject_stage", "motion_mora", "generate")

# desk-preset hyperparameters (cli.DESK_PRESET) used by every workload
FLOW = mora.FlowConfig(alpha=10.0, iters=20)
SUBJECT_TYPES = ("q", "k", "ffn.0")
MOTION_TYPES = ("v", "o", "ffn.0", "ffn.2")
ENCODER_SEED = 0
# the desk preset's customization subject. Triangles are left out: the
# triangle footprint in data._inside is empty, so a triangle subject has an
# all-zero mask and the subject stage's velocity gradient is exactly zero.
SUBJECT_SHAPE = "circle"


@dataclass(frozen=True)
class Size:
    height: int
    width: int
    frames: int
    corpus: tuple            # (n_subjects, n_motions) of the pretrain corpus
    pretrain_steps: int
    subject_episode: int     # steps per train_subject call
    motion_episode: int      # steps per train_motion call
    artifact_steps: tuple    # (subject, motion) steps of generate's artifacts
    sampler_steps: int


SIZES = {
    "desk": Size(32, 32, 17, (2, 2), 24, 100, 8, (20, 4), 50),
    "tiny": Size(16, 16, 9, (1, 1), 2, 3, 3, (2, 2), 3),
}
# requests every generate run completes, so its digest and scores cover a
# fixed set of ops
GENERATE_FIRST_OPS = 2


# -- output checks (module functions so a test can force one to fail) ------------

def check_loss(val):
    return math.isfinite(val)


def check_video(video, n_frames):
    f = video.frames.data
    return (video.n_frames == n_frames and bool(np.isfinite(f).all())
            and float(f.min()) >= 0.0 and float(f.max()) <= 1.0)


def check_adapters(art):
    """Every B factor moved off its zero init: a degenerate (untrained) base
    would leave them exactly zero."""
    return all(bool(np.any(ad.b.data != 0)) for ad in art.lora.adapters.values())


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def tree_digest(root):
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# -- inputs and set-up ------------------------------------------------------------

def make_inputs(seed, size: Size):
    """The customization pair and the pretrain corpus, all from ``seed``."""
    rng = np.random.default_rng(seed)
    h, w = size.height, size.width
    subject = data.SubjectSpec(
        shape=SUBJECT_SHAPE,
        fill_color=tuple(float(c) for c in np.round(rng.uniform(0.1, 0.9, 3), 3)),
        texture_seed=int(rng.integers(1 << 31)),
        size=float(np.round(rng.uniform(0.35, 0.5), 3)))
    kind = ("linear", "circular", "rotation")[int(rng.integers(3))]
    motion = data.fit_motion(data.MotionSpec(
        kind=kind, frames=size.frames,
        velocity=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))[int(rng.integers(4))],
        radius=float(np.round(rng.uniform(3.0, 5.0), 2)),
        angular_rate=float(np.round(rng.uniform(0.25, 0.45), 3))), subject, h, w)
    image = data.gen_subject(subject, h, w, int(rng.integers(1 << 31)))
    video = data.gen_motion(motion, subject, h, w, int(rng.integers(1 << 31)))
    corpus = data.build_pretrain_corpus(h, w, size.frames, *size.corpus, seed=seed)
    prompt = f"A picture of V* {subject.shape} S* {data.MOTION_NAMES[kind]}"
    return {"image": image, "video": video, "corpus": corpus, "prompt": prompt}


def _train_cfg(stage, seed, steps, mora_every=1):
    if stage == "subject":
        return pipeline.TrainConfig(
            stage="subject", seed=seed, steps=steps, lr=0.003, lam=0.05,
            rank_subject=8, optimizer="adam", train_special_tokens=True)
    return pipeline.TrainConfig(
        stage="motion", seed=seed, steps=steps, lr=0.003, alpha_w=1.0,
        rank_motion=16, mora_every=mora_every, optimizer="adam",
        train_special_tokens=True)


def _train(stage, cfg, model_cfg, base, inputs, on_step=None):
    if stage == "subject":
        return pipeline.train_subject(
            cfg, model_cfg, base, [inputs["image"]], layer_types=SUBJECT_TYPES,
            enc=sura.PatchEncoder(seed=ENCODER_SEED), on_step=on_step)
    return pipeline.train_motion(
        cfg, model_cfg, base, [inputs["video"]], layer_types=MOTION_TYPES,
        flow_cfg=FLOW, on_step=on_step)


def setup(workload, seed, size: Size, workdir):
    """Inputs, a short desk-shape base (an untrained one has a zero head, so
    adapter gradients would be exactly zero), and for ``generate`` the saved
    base plus short subject and motion artifacts. Returns (state, digest)."""
    inputs = make_inputs(seed, size)
    model_cfg = dit.ModelConfig()
    base, _ = pipeline.pretrain(
        pipeline.TrainConfig(stage="pretrain", seed=seed, lr=0.01,
                             steps=size.pretrain_steps, batch=1,
                             cond_dropout=0.1, optimizer="adam"),
        inputs["corpus"], model_cfg)
    state = {"seed": seed, "size": size, "inputs": inputs,
             "model_cfg": model_cfg, "base": base,
             "base_checksum": base.checksum()}
    parts = [data.corpus_digest([inputs["image"], inputs["video"]]),
             data.corpus_digest(inputs["corpus"]), state["base_checksum"]]
    if workload == "generate":
        dirs = {k: os.path.join(workdir, k) for k in ("base", "subject", "motion")}
        pipeline.save_checkpoint(dirs["base"], model_cfg, base)
        n_subject, n_motion = size.artifact_steps
        subj, man_s = _train("subject", _train_cfg("subject", seed, n_subject),
                             model_cfg, base, inputs)
        # desk preset: MoRA on every second step
        mot, man_m = _train("motion", _train_cfg("motion", seed, n_motion, 2),
                            model_cfg, base, inputs)
        pipeline.save_subject_artifact(dirs["subject"], subj)
        pipeline.save_motion_artifact(dirs["motion"], mot)
        state["dirs"] = dirs
        parts += [man_s.outputs["artifact_checksum"],
                  man_m.outputs["artifact_checksum"], tree_digest(workdir)]
    return state, _sha(*parts)


# -- the op loop ------------------------------------------------------------------

class Record:
    """What one timed phase produced."""

    def __init__(self):
        self.latencies = []      # seconds, timed ops only
        self.timed_ops = set()   # tracer op ids of the timed ops
        self.attempted = 0
        self.failed = 0
        self.completed = 0       # ops finished, timed or not
        self.digests = []        # per-op and per-artifact output digests
        self.errors = []
        self.scores = []         # generate: per-op proxy scores
        # the outputs of the fixed first ops, which every run of a seed has
        self.first_losses = []
        self.first_scores = []
        self.first_digests = []
        self.wall = 0.0
        self.cpu = 0.0
        self.gc_collections = []  # per generation, over the phase

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def run_phase(workload, state, seconds, workdir, tracer=None):
    """Ops until ``seconds`` have passed and the fixed first ops (one
    ``train_*`` call, or ``GENERATE_FIRST_OPS`` requests) are done."""
    rec = Record()
    loop = _generate_op if workload == "generate" else _episode
    gc0 = [g["collections"] for g in gc.get_stats()]
    t0, c0 = time.perf_counter(), time.process_time()
    deadline = t0 + seconds
    k = 0
    n_first = GENERATE_FIRST_OPS if workload == "generate" else 1
    while k < n_first or time.perf_counter() < deadline:
        loop(workload, state, k, rec, workdir, tracer)
        k += 1
        if k == n_first:
            rec.first_digests = list(rec.digests)
            rec.first_scores = list(rec.scores)
    rec.wall = time.perf_counter() - t0
    rec.cpu = time.process_time() - c0
    rec.gc_collections = [g["collections"] - c for g, c in zip(gc.get_stats(), gc0)]
    return rec


class _OpClock:
    """Times training steps between ``on_step`` callbacks and, when tracing,
    keeps one root ``op`` span open per step."""

    def __init__(self, rec, tracer, episode):
        self.rec, self.tracer, self.episode = rec, tracer, episode
        self.span = None
        self.op_id = None
        self.ok = 0
        self.losses = []
        self._open()

    def _open(self):
        self.op_id = (self.episode, len(self.losses))
        if self.tracer is not None:
            self.span = self.tracer.begin_op(self.op_id)
        self.t = time.perf_counter()

    def close(self):
        if self.tracer is not None and self.span is not None:
            self.tracer.end_op(self.span)
            self.span = None

    def __call__(self, step, val):
        now = time.perf_counter()
        self.close()
        rec = self.rec
        if step > 0:
            rec.latencies.append(now - self.t)
            rec.timed_ops.add(self.op_id)
        rec.attempted += 1
        rec.completed += 1
        rec.digests.append(f"{self.episode}.{step}:{float(val).hex()}")
        self.losses.append(float(val))
        if check_loss(val):
            self.ok += 1
        else:
            rec.fail(f"episode {self.episode} step {step}: loss {val}")
        self._open()


def _episode(workload, state, k, rec, workdir, tracer):
    """One ``train_*`` call of ``size.*_episode`` steps, seeded by (seed, k)."""
    stage = "subject" if workload == "subject_stage" else "motion"
    size = state["size"]
    steps = size.subject_episode if stage == "subject" else size.motion_episode
    clock = _OpClock(rec, tracer, k)
    try:
        art, man = _train(stage, _train_cfg(stage, state["seed"] * 1000 + k, steps),
                          state["model_cfg"], state["base"], state["inputs"],
                          on_step=clock)
    except Exception:
        rec.attempted += 1
        rec.fail(f"episode {k}: {traceback.format_exc(limit=3)}")
        return
    finally:
        clock.close()
    if k == 0:
        rec.first_losses = clock.losses
    base_ok = (state["base"].checksum() == state["base_checksum"]
               == man.outputs["base_checksum"])
    if not (base_ok and check_adapters(art)):
        rec.failed += clock.ok
        rec.errors.append(f"episode {k}: base moved or adapter B factors zero")
    rec.digests.append(f"{k}:artifact:{man.outputs['artifact_checksum']}")


def _generate_op(workload, state, k, rec, workdir, tracer):
    """One CLI-shaped ``infer`` request: load base and both artifacts from
    disk, sample, decode, score, write outputs to a fresh directory."""
    inputs, size, dirs = state["inputs"], state["size"], state["dirs"]
    out_dir = os.path.join(workdir, f"op{k:05d}")
    span = tracer.begin_op(k) if tracer is not None else None
    rec.attempted += 1
    t = time.perf_counter()
    try:
        model_cfg, params = pipeline.load_checkpoint(dirs["base"])
        subject = pipeline.load_subject_artifact(dirs["subject"])
        motion = pipeline.load_motion_artifact(dirs["motion"])
        sampler = flowmatch.SamplerConfig(
            steps=size.sampler_steps, cfg_scale=2.0, seed=state["seed"] * 1000 + k,
            subject_schedule=lora.ScaleSchedule(t_point=15, s_low=0.5, s_high=1.0))
        video, report, _ = pipeline.infer(
            model_cfg, params, subject, motion, inputs["prompt"], sampler,
            n_frames=size.frames, resolution=(size.height, size.width),
            ref_image=VideoTensor(Tensor(inputs["image"].video.frames.data[:1])),
            ref_video=inputs["video"].video,
            enc=sura.PatchEncoder(seed=ENCODER_SEED), flow_cfg=FLOW,
            out_dir=out_dir)
    except Exception:
        rec.fail(f"op {k}: {traceback.format_exc(limit=3)}")
        return
    finally:
        elapsed = time.perf_counter() - t
        if span is not None:
            tracer.end_op(span)
        shutil.rmtree(out_dir, ignore_errors=True)
    rec.latencies.append(elapsed)
    rec.timed_ops.add(k)
    rec.completed += 1
    rec.digests.append(f"{k}:{report.provenance}")
    rec.scores.append((report.subject_similarity, report.motion_fidelity,
                       report.temporal_consistency))
    if not check_video(video, size.frames):
        rec.fail(f"op {k}: video has wrong frame count or values outside [0,1]")

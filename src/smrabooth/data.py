"""Procedural dataset generator: textured shapes on seeded backgrounds with
exact masks, analytically known trajectories, and templated captions using
the V* / S* placeholder tokens.

Everything is a pure function of its spec and seed, so subject identity and
motion ground truth are analytic and downstream metrics have oracles. Object
texture lives in object coordinates (it translates and rotates with the
shape), which is what makes optical flow see the object's true motion.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec
from .numerics import Tensor, make_rng, sha256_file, write_stns
from .toyvae import VideoTensor

SHAPES = ("circle", "square", "triangle")
MOTION_NAMES = {"linear": "slides", "circular": "circles", "rotation": "spins"}

_PALETTE = {
    "red": (0.85, 0.15, 0.15), "green": (0.15, 0.75, 0.2),
    "blue": (0.2, 0.3, 0.85), "yellow": (0.85, 0.8, 0.15),
    "magenta": (0.8, 0.2, 0.75), "cyan": (0.15, 0.75, 0.8),
    "orange": (0.9, 0.55, 0.1), "white": (0.9, 0.9, 0.9),
}


def color_name(rgb):
    best, dist = None, np.inf
    for name, ref in _PALETTE.items():
        d = float(np.sum((np.asarray(rgb) - np.asarray(ref)) ** 2))
        if d < dist:
            best, dist = name, d
    return best


@dataclass
class SubjectSpec:
    shape: str = "circle"
    fill_color: tuple = (0.85, 0.15, 0.15)
    texture_seed: int = 0
    size: float = 0.4            # fraction of image width

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise BadSpec(f"unknown shape {self.shape!r}")
        if not 0.1 < self.size < 0.6:
            raise BadSpec(f"size must be in (0.1, 0.6), got {self.size}")


@dataclass
class MotionSpec:
    kind: str = "linear"         # linear | circular | rotation
    frames: int = 17
    velocity: tuple = (1.0, 0.0)     # linear: (vx, vy) px/frame
    radius: float = 5.0              # circular orbit radius, px
    angular_rate: float = 0.35       # rad/frame (circular, rotation)

    def __post_init__(self):
        if self.kind not in MOTION_NAMES:
            raise BadSpec(f"unknown trajectory {self.kind!r}")
        if self.frames < 1 or self.frames % 4 != 1:
            raise BadSpec(f"frames must be 1 mod 4, got {self.frames}")

    @property
    def name(self):
        """Caption verb; linear motions carry their dominant direction so
        distinct motions never share a caption."""
        if self.kind != "linear":
            return MOTION_NAMES[self.kind]
        vx, vy = self.velocity
        if abs(vx) >= abs(vy):
            return "slides right" if vx >= 0 else "slides left"
        return "slides down" if vy >= 0 else "slides up"


@dataclass
class Sample:
    video: VideoTensor
    mask: np.ndarray             # [H,W] for images, [T,H,W] for videos
    caption: str
    ground_truth: dict


def _texture_waves(seed, n=5):
    rng = make_rng(seed, "texture")
    return [(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
             rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 1.0)) for _ in range(n)]


def _shade(waves, u, v):
    acc = np.zeros_like(u)
    for fx, fy, ph, amp in waves:
        acc += amp * np.sin(2 * np.pi * (fx * u + fy * v) + ph)
    total = sum(w[3] for w in waves)
    return 0.75 + 0.25 * (acc / total)     # [0.5, 1.0]


def _inside(shape, u, v, half):
    if shape == "circle":
        return u * u + v * v <= half * half
    if shape == "square":
        return (np.abs(u) <= half) & (np.abs(v) <= half)
    # upright equilateral triangle inscribed in radius `half`, apex up, via
    # three half-plane tests. In image coordinates (v points down) the
    # vertices apex -> lower left -> lower right wind so that the interior
    # lies on the non-negative side of each edge's cross product.
    ang = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3])
    vx, vy = half * np.cos(ang), -half * np.sin(ang)
    ok = np.ones_like(u, dtype=bool)
    for i in range(3):
        ex, ey = vx[(i + 1) % 3] - vx[i], vy[(i + 1) % 3] - vy[i]
        ok &= (u - vx[i]) * ey - (v - vy[i]) * ex >= 0
    return ok


def _render_frame(subject: SubjectSpec, H, W, center, angle, background):
    """One frame plus its exact mask; mask and fill come from one footprint."""
    yy, xx = np.mgrid[0:H, 0:W].astype(np.float64)
    dx, dy = xx - center[0], yy - center[1]
    ca, sa = np.cos(-angle), np.sin(-angle)
    u = ca * dx - sa * dy            # object-frame coordinates
    v = sa * dx + ca * dy
    half = subject.size * W / 2.0
    mask = _inside(subject.shape, u, v, half)
    shade = _shade(_texture_waves(subject.texture_seed), u, v)
    frame = background.copy()
    color = np.asarray(subject.fill_color, dtype=np.float64)
    frame[mask] = shade[mask, None] * color[None, :]
    return np.clip(frame, 0.0, 1.0).astype(np.float32), mask.astype(np.float32)


def _image_background(H, W, seed):
    """Seeded tint with a faint texture: enough off-subject content for the
    masked loss to ignore, mild enough that frame statistics stay close to
    the video backgrounds the base model was trained on."""
    rng = make_rng(seed, "background")
    base = rng.uniform(0.7, 0.9, 3)
    yy, xx = np.mgrid[0:H, 0:W].astype(np.float64)
    bg = np.empty((H, W, 3))
    for c in range(3):
        fx, fy = rng.uniform(-0.08, 0.08, 2)
        ph = rng.uniform(0, 2 * np.pi)
        bg[:, :, c] = base[c] + 0.05 * np.sin(2 * np.pi * (fx * xx + fy * yy) + ph)
    return np.clip(bg, 0.0, 1.0)


def _video_background(H, W, seed):
    # flat background: motion videos must owe their flow to the object alone
    rng = make_rng(seed, "background")
    tint = rng.uniform(0.75, 0.9, 3)
    return np.broadcast_to(tint, (H, W, 3)).copy()


def _check_inside_frame(center, half, H, W):
    margin = half + 1.0
    if not (margin <= center[0] <= W - 1 - margin
            and margin <= center[1] <= H - 1 - margin):
        raise BadSpec(f"object at {center} (half-size {half:.1f}) leaves the "
                      f"{W}x{H} frame")


def gen_subject(spec: SubjectSpec, H, W, seed) -> Sample:
    """Single reference image: textured shape centered on a seeded textured
    background, exact footprint mask, V*-token caption."""
    center = ((W - 1) / 2.0, (H - 1) / 2.0)
    _check_inside_frame(center, spec.size * W / 2.0, H, W)
    frame, mask = _render_frame(spec, H, W, center, 0.0,
                                _image_background(H, W, seed))
    return Sample(
        video=VideoTensor(Tensor(frame[None])),
        mask=mask,
        caption=f"A picture of V* {spec.shape}",
        ground_truth={"subject": spec, "center": center},
    )


def trajectory_centers(ms: MotionSpec, H, W):
    """Analytic per-frame (cx, cy) object centers."""
    cx, cy = (W - 1) / 2.0, (H - 1) / 2.0
    ks = np.arange(ms.frames, dtype=np.float64)
    if ms.kind == "linear":
        vx, vy = ms.velocity
        span = ms.frames - 1
        return [(cx + vx * (k - span / 2.0), cy + vy * (k - span / 2.0)) for k in ks]
    if ms.kind == "circular":
        th = ms.angular_rate * ks
        return [(cx + ms.radius * np.cos(t), cy + ms.radius * np.sin(t)) for t in th]
    return [(cx, cy) for _ in ks]        # rotation: fixed center


def gen_motion(spec: MotionSpec, subject: SubjectSpec, H, W, seed) -> Sample:
    """Reference motion video: the subject follows the analytic trajectory
    over a flat seeded background, with per-frame exact masks."""
    centers = trajectory_centers(spec, H, W)
    half = subject.size * W / 2.0
    for c in centers:
        _check_inside_frame(c, half, H, W)
    bg = _video_background(H, W, seed)
    frames, masks, angles = [], [], []
    for k, c in enumerate(centers):
        angle = spec.angular_rate * k if spec.kind == "rotation" else 0.0
        f, m = _render_frame(subject, H, W, c, angle, bg)
        frames.append(f)
        masks.append(m)
        angles.append(angle)
    return Sample(
        video=VideoTensor(Tensor(np.stack(frames))),
        mask=np.stack(masks),
        caption=f"A {subject.shape} S* {spec.name}",
        ground_truth={"subject": subject, "motion": spec,
                      "centers": centers, "angles": angles},
    )


def mask_centroid(mask):
    """(cx, cy) of a binary mask; test oracle for trajectories."""
    ys, xs = np.nonzero(mask > 0.5)
    return float(xs.mean()), float(ys.mean())


# -- default corpus -----------------------------------------------------------

def default_subjects(n=8, seed=0):
    names = list(_PALETTE)
    specs = []
    for i in range(n):
        rng = make_rng(seed, "subject", i)
        specs.append(SubjectSpec(
            shape=SHAPES[i % len(SHAPES)],
            fill_color=tuple(np.round(np.asarray(_PALETTE[names[i % len(names)]])
                                      + rng.uniform(-0.05, 0.05, 3), 3)),
            texture_seed=int(rng.integers(1 << 31)),
            size=float(np.round(rng.uniform(0.3, 0.5), 3)),
        ))
    return specs


def default_motions(n=6, frames=17, seed=0):
    kinds = ["linear", "linear", "circular", "circular", "rotation", "linear"]
    vels = [(1.0, 0.0), (0.0, 1.0), None, None, None, (-1.0, 0.0)]
    specs = []
    for i in range(n):
        k = kinds[i % len(kinds)]
        rng = make_rng(seed, "motion", i)
        specs.append(MotionSpec(
            kind=k,
            frames=frames,
            velocity=vels[i % len(vels)] or (1.0, 0.0),
            radius=float(np.round(rng.uniform(3.0, 5.0), 2)),
            angular_rate=float(np.round(rng.uniform(0.25, 0.45), 3)),
        ))
    return specs


def fit_motion(ms: MotionSpec, subject: SubjectSpec, H, W) -> MotionSpec:
    """Shrink trajectory amplitude so the object stays inside the frame."""
    half = subject.size * W / 2.0
    # small slack keeps clamped amplitudes strictly off the bounds check
    margin = min((W - 1) / 2.0, (H - 1) / 2.0) - half - 1.0 - 1e-6
    if margin <= 0:
        raise BadSpec(f"subject size {subject.size} leaves no room at {W}x{H}")
    if ms.kind == "linear":
        span = max(abs(ms.velocity[0]), abs(ms.velocity[1])) * (ms.frames - 1) / 2.0
        if span <= margin:
            return ms
        scale = margin / span
        return MotionSpec(kind=ms.kind, frames=ms.frames,
                          velocity=(ms.velocity[0] * scale, ms.velocity[1] * scale),
                          radius=ms.radius, angular_rate=ms.angular_rate)
    if ms.kind == "circular" and ms.radius > margin:
        return MotionSpec(kind=ms.kind, frames=ms.frames, velocity=ms.velocity,
                          radius=margin, angular_rate=ms.angular_rate)
    return ms


def build_pretrain_corpus(H=32, W=32, frames=17, n_subjects=8, n_motions=6,
                          seed=0):
    """Cross product of subjects and motions with plain descriptive captions
    (no placeholder tokens; those belong to the customization stages)."""
    samples = []
    for si, sub in enumerate(default_subjects(n_subjects, seed)):
        for mi, mot in enumerate(default_motions(n_motions, frames, seed)):
            mot = fit_motion(mot, sub, H, W)
            s = gen_motion(mot, sub, H, W, make_rng(seed, "scene", si, mi).integers(1 << 31))
            s.caption = f"A {color_name(sub.fill_color)} {sub.shape} {mot.name}"
            samples.append(s)
    return samples


def corpus_digest(samples):
    """Content hash over frames and captions, for manifests."""
    import hashlib
    h = hashlib.sha256()
    for s in samples:
        h.update(np.ascontiguousarray(s.video.frames.data).tobytes())
        h.update(s.caption.encode())
    return h.hexdigest()


def save_sample(dirpath, stem, sample: Sample):
    os.makedirs(dirpath, exist_ok=True)
    write_stns(os.path.join(dirpath, f"{stem}.stns"), sample.video.frames.data)
    write_stns(os.path.join(dirpath, f"{stem}.mask.stns"), sample.mask)
    gt = {k: _jsonable(v) for k, v in sample.ground_truth.items()}
    with open(os.path.join(dirpath, f"{stem}.json"), "w") as f:
        json.dump({"caption": sample.caption, "ground_truth": gt},
                  f, indent=2, sort_keys=True)


def _jsonable(v):
    if isinstance(v, (SubjectSpec, MotionSpec)):
        return {k: _jsonable(getattr(v, k)) for k in v.__dataclass_fields__}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_jsonable(x) for x in v]
    return v

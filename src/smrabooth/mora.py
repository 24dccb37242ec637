"""Motion representation alignment built on unrolled Horn-Schunck optical
flow. The flow operator is a fixed differentiable computation graph (exactly
`iters` Jacobi updates from zero flow), so motion losses backpropagate
through the flow estimator, the codec decode, and the one-step latent
recovery into the model parameters.

All frame pairs of a video are solved together as one batch of [n-1, H, W]
tensors. The replicate-padded neighbour average is a single tape node
(numerics.stencil) with a hand-written adjoint, so a Jacobi update adds 11
tape nodes whatever the number of pairs. The windowed path gathers its
pairs from that one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TooFewFrames
from .flowmatch import recover_z0
from .numerics import Tensor, absval, concatenate, stack, stencil, take_rows
from .toyvae import LatentTensor, VideoTensor, decode_frames, window_spans


@dataclass
class FlowConfig:
    """Horn-Schunck settings. Luminance is lifted to 8-bit units (x255)
    because the default smoothness weight is calibrated against classic
    byte-valued intensities; with [0,1] inputs the data term would vanish."""

    alpha: float = 10.0
    iters: int = 20
    grayscale: tuple = (0.299, 0.587, 0.114)
    luma_scale: float = 255.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ShapeError("alpha must be positive")
        if self.iters < 1:
            raise ShapeError("iters must be >= 1")


@dataclass
class FlowField:
    """Per-pixel motion [n_pairs, H, W, 2]; channel 0 horizontal, channel 1
    vertical, in pixels per frame step. pair_index maps each slice to the
    absolute (frame k -> k+1) pair it came from."""

    flows: Tensor
    pair_index: list = None

    def __post_init__(self):
        if not isinstance(self.flows, Tensor):
            self.flows = Tensor(np.asarray(self.flows, dtype=np.float32))
        if self.flows.ndim != 4 or self.flows.shape[3] != 2:
            raise ShapeError(f"flow stack must be [n,H,W,2], got {self.flows.shape}")
        if self.pair_index is None:
            self.pair_index = list(range(self.flows.shape[0]))

    @property
    def n_pairs(self):
        return self.flows.shape[0]


def _luminance(frames, cfg: FlowConfig):
    r, g, b = cfg.grayscale
    return (frames[..., 0] * r + frames[..., 1] * g
            + frames[..., 2] * b) * cfg.luma_scale


# Classic Horn-Schunck weighted 8-neighbourhood (1/12 corners, 1/6 edges) as
# a numerics.stencil tap table: (weight, ((dy, dx), ...)) over the
# replicate-padded image, so (1, 1) is the centre pixel.
AVERAGE_TAPS = (
    (1.0 / 12.0, ((0, 0), (0, 2), (2, 0), (2, 2))),
    (1.0 / 6.0, ((0, 1), (2, 1), (1, 0), (1, 2))),
)


# The central differences run once per solve, outside the Jacobi loop, and
# stay plain tape ops with concatenated replicate pads. Their border gradient
# terms then reach the luminance in the same order as in a one-pair graph, so
# float32 gradients are bit-identical to per-pair solves (training depends on
# it); a fused node would reorder those sums.
def _cdx(img):
    p = concatenate([img[..., 0:1], img, img[..., -1:]], axis=-1)
    return (p[..., 2:] - p[..., :-2]) * 0.5


def _cdy(img):
    p = concatenate([img[..., 0:1, :], img, img[..., -1:, :]], axis=-2)
    return (p[..., 2:, :] - p[..., :-2, :]) * 0.5


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


def flow(a, b, cfg: FlowConfig = None):
    """Horn-Schunck displacement field from frame a to frame b, [H,W,2]:
    the one-pair case of flow_stack."""
    a, b = _as_tensor(a), _as_tensor(b)
    if tuple(a.shape) != tuple(b.shape):
        raise ShapeError(f"frame shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    if a.ndim != 3 or a.shape[2] != 3:
        raise ShapeError(f"frames must be [H,W,3], got {tuple(a.shape)}")
    pair = flow_stack(stack([a, b], axis=0), cfg)
    return pair.flows.reshape(tuple(a.shape[:2]) + (2,))


def _frames_of(x):
    return x.frames if isinstance(x, VideoTensor) else _as_tensor(x)


def flow_stack(x, cfg: FlowConfig = None) -> FlowField:
    """Flows across all adjacent frames of x [n,H,W,3]: slice k is the
    Horn-Schunck displacement field from frame k to frame k+1.

    All n-1 pairs run as one batched solve over [n-1,H,W] tensors. Every
    operation is elementwise across pairs and the per-pair graph keeps its
    shape, so each slice and its float32 gradient are bit-identical to
    solving the pair alone. Spatial derivatives are frame-averaged central
    differences with replicate padding; the temporal derivative is
    x[k+1] - x[k]. Exactly cfg.iters Jacobi updates run from zero flow, so
    identical frames give exactly zero flow and the whole graph is
    differentiable end to end.
    """
    cfg = cfg or FlowConfig()
    frames = _frames_of(x)
    if frames.ndim != 4 or frames.shape[3] != 3:
        raise ShapeError(f"frames must be [n,H,W,3], got {tuple(frames.shape)}")
    n = frames.shape[0]
    if n < 2:
        raise TooFewFrames(f"need at least 2 frames, got {n}")
    # luminance per pair side, not per frame, for the same reason as _cdx
    lum_a, lum_b = _luminance(frames[:-1], cfg), _luminance(frames[1:], cfg)
    ix = (_cdx(lum_a) + _cdx(lum_b)) * 0.5
    iy = (_cdy(lum_a) + _cdy(lum_b)) * 0.5
    it = lum_b - lum_a
    den = ix * ix + iy * iy + cfg.alpha ** 2
    u = Tensor(np.zeros(it.shape, dtype=it.dtype))
    v = Tensor(np.zeros(it.shape, dtype=it.dtype))
    for _ in range(cfg.iters):
        ubar, vbar = stencil(u, AVERAGE_TAPS), stencil(v, AVERAGE_TAPS)
        rate = (ix * ubar + iy * vbar + it) / den
        u = ubar - ix * rate
        v = vbar - iy * rate
    return FlowField(stack([u, v], axis=-1))


def denoised_flow_stack(z_t, u, t, cfg: FlowConfig = None, windowed=False,
                        window=6, stride=2) -> FlowField:
    """Flows of the one-step-denoised video: recover z0 = z_t - t u, decode
    to pixels, and run the flow stack. The decode path stays on the tape, so
    this is trainable.

    In windowed mode the result holds, window by window, the pairs inside
    each window's kept frames (toyvae.window_spans); pairs never cross block
    boundaries and overlapped pairs appear once per window. The codec is
    temporally block-local, so these are gathered from one full decode and
    one batched solve; the gather's adjoint sums the duplicated pairs.
    """
    z_t = z_t.latents if isinstance(z_t, LatentTensor) else z_t
    u = u.latents if isinstance(u, LatentTensor) else u
    z0_hat = recover_z0(z_t, u, t)
    if not windowed:
        return flow_stack(decode_frames(z0_hat), cfg)
    pairs = [k for span in window_spans(z0_hat.shape[0], window, stride)
             for k in span.frames[:-1]]
    flows = flow_stack(decode_frames(z0_hat), cfg).flows
    return FlowField(take_rows(flows, pairs), pair_index=pairs)


def _flows_of(f):
    return f.flows if isinstance(f, FlowField) else \
        (f if isinstance(f, Tensor) else Tensor(np.asarray(f, dtype=np.float32)))


def align_reference(f_ref: FlowField, f_gen: FlowField) -> FlowField:
    """Reference slices reordered to match a (possibly windowed) generated
    stack, duplicating overlapped pairs as needed."""
    idx = list(f_gen.pair_index)
    ref = _flows_of(f_ref)
    return FlowField(Tensor(ref.data[idx]), pair_index=idx)


def mora_loss(f_ref, f_gen):
    """Mean absolute elementwise difference between two flow stacks."""
    a, b = _flows_of(f_ref), _flows_of(f_gen)
    if tuple(a.shape) != tuple(b.shape):
        raise ShapeError(f"flow stacks differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    return absval(a - b).mean()


def total_motion_loss(temporal, mora, alpha_w):
    """Velocity loss plus alpha_w times the flow-alignment term."""
    if alpha_w < 0:
        raise ShapeError("alpha_w must be >= 0")
    return temporal + alpha_w * mora


# -- visualization -----------------------------------------------------------

def write_flow_ppm(path, flow_hw2, max_mag=None):
    """Dump one flow slice as a color-wheel PPM."""
    from .toyvae import write_ppm
    write_ppm(path, flow_to_rgb(flow_hw2, max_mag))


def flow_to_rgb(flow_hw2, max_mag=None):
    """Angle-to-hue color wheel rendering of one flow slice, for PPM dumps."""
    f = np.asarray(flow_hw2.data if isinstance(flow_hw2, Tensor) else flow_hw2)
    u, v = f[..., 0], f[..., 1]
    mag = np.hypot(u, v)
    scale = max_mag if max_mag else max(float(mag.max()), 1e-6)
    hue = (np.arctan2(-v, -u) / np.pi + 1.0) / 2.0   # [0,1)
    sat = np.clip(mag / scale, 0.0, 1.0)
    h6 = hue * 6.0
    i = np.floor(h6).astype(int) % 6
    frac = h6 - np.floor(h6)
    p = 1.0 - sat
    q = 1.0 - sat * frac
    t = 1.0 - sat * (1.0 - frac)
    one = np.ones_like(p)
    lut = np.stack([
        np.stack([one, t, p], -1), np.stack([q, one, p], -1),
        np.stack([p, one, t], -1), np.stack([p, q, one], -1),
        np.stack([t, p, one], -1), np.stack([one, p, q], -1),
    ], 0)
    return lut[i, np.arange(f.shape[0])[:, None], np.arange(f.shape[1])[None, :]]

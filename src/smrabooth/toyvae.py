"""Lossless pixel<->latent codec standing in for a pretrained 3D VAE.

The temporal structure matches the backbone convention: a video of T frames
(T = 1 mod 4) maps to T' = (T-1)/4 + 1 latent frames. The first latent frame
packs frame 0 replicated four times; every later latent frame packs the next
four pixel frames. Within a group, 4x4 spatial blocks are folded into
channels (space-to-depth), so the map is a pure rearrangement: exactly
invertible, linear, and temporally block-local. That last property makes the
sliding-window decode equal to the full decode frame-for-frame, which the
motion-alignment path relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .errors import BadChannelCount, BadFrameCount, BadResolution, WindowTooLarge
from .numerics import Tensor, concatenate

SPATIAL_FACTOR = 4
TEMPORAL_GROUP = 4
CHANNELS = 3
D_LAT = CHANNELS * SPATIAL_FACTOR * SPATIAL_FACTOR * TEMPORAL_GROUP  # 192


def latent_frames(n_frames):
    """Pixel frame count T -> latent frame count T' = (T-1)/4 + 1."""
    return (n_frames - 1) // TEMPORAL_GROUP + 1


def pixel_frames(n_latents):
    return 1 + TEMPORAL_GROUP * (n_latents - 1)


@dataclass
class VideoTensor:
    """Pixel video [T, H, W, C], values in [0, 1], T = 1 mod 4."""

    frames: Tensor

    def __post_init__(self):
        if not isinstance(self.frames, Tensor):
            self.frames = Tensor(np.asarray(self.frames, dtype=np.float32))
        t, h, w, c = self._validated_shape(self.frames.shape)
        self.frames = Tensor(np.clip(self.frames.data, 0.0, 1.0))

    @staticmethod
    def _validated_shape(shape):
        if len(shape) != 4:
            raise BadResolution(f"video must be [T,H,W,C], got {shape}")
        t, h, w, c = shape
        if t < 1 or t % TEMPORAL_GROUP != 1:
            raise BadFrameCount(f"frame count {t} is not 1 mod {TEMPORAL_GROUP}")
        if h % SPATIAL_FACTOR or w % SPATIAL_FACTOR:
            raise BadResolution(f"H, W must be divisible by {SPATIAL_FACTOR}, got {h}x{w}")
        if c != CHANNELS:
            raise BadResolution(f"expected {CHANNELS} channels, got {c}")
        return t, h, w, c

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def resolution(self):
        return self.frames.shape[1], self.frames.shape[2]


@dataclass
class LatentTensor:
    """Latent video [T', h, w, D_lat]."""

    latents: Tensor

    def __post_init__(self):
        if not isinstance(self.latents, Tensor):
            self.latents = Tensor(np.asarray(self.latents, dtype=np.float32))
        if self.latents.ndim != 4:
            raise BadChannelCount(f"latents must be [T',h,w,D], got {self.latents.shape}")
        if self.latents.shape[3] != D_LAT:
            raise BadChannelCount(
                f"latent channels {self.latents.shape[3]} != {D_LAT}")

    @property
    def n_latents(self):
        return self.latents.shape[0]

    @property
    def grid(self):
        return self.latents.shape[1], self.latents.shape[2]


def encode_frames(x):
    """Rearrange pixel frames [T,H,W,C] into latents [T',h,w,D]. Tape-safe."""
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
    t, h_px, w_px, c = VideoTensor._validated_shape(x.shape)
    n_lat = latent_frames(t)
    first = concatenate([x[0:1]] * TEMPORAL_GROUP, axis=0)
    groups = [first]
    for g in range(1, n_lat):
        groups.append(x[1 + TEMPORAL_GROUP * (g - 1): 1 + TEMPORAL_GROUP * g])
    stacked = concatenate([g.reshape((1,) + tuple(g.shape)) for g in groups], axis=0)
    h, w = h_px // SPATIAL_FACTOR, w_px // SPATIAL_FACTOR
    # [T',4,H,W,C] -> [T',4,h,4,w,4,C] -> [T',h,w,4,4,4,C] -> [T',h,w,D]
    z = stacked.reshape((n_lat, TEMPORAL_GROUP, h, SPATIAL_FACTOR, w, SPATIAL_FACTOR, c))
    z = z.transpose((0, 2, 4, 1, 3, 5, 6))
    return z.reshape((n_lat, h, w, D_LAT))


def decode_frames(z):
    """Exact inverse of encode_frames. The first latent frame emits only its
    first replicate slot, so T' latents give 1 + 4(T'-1) pixel frames."""
    z = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype=np.float32))
    if z.ndim != 4:
        raise BadChannelCount(f"latents must be [T',h,w,D], got {z.shape}")
    n_lat, h, w, d = z.shape
    if d % (TEMPORAL_GROUP * SPATIAL_FACTOR * SPATIAL_FACTOR) != 0:
        raise BadChannelCount(f"latent channels {d} not divisible by 64")
    c = d // (TEMPORAL_GROUP * SPATIAL_FACTOR * SPATIAL_FACTOR)
    g = z.reshape((n_lat, h, w, TEMPORAL_GROUP, SPATIAL_FACTOR, SPATIAL_FACTOR, c))
    g = g.transpose((0, 3, 1, 4, 2, 5, 6))
    groups = g.reshape((n_lat, TEMPORAL_GROUP,
                        h * SPATIAL_FACTOR, w * SPATIAL_FACTOR, c))
    head = groups[0, 0:1]
    if n_lat == 1:
        return head
    tail = groups[1:].reshape(((n_lat - 1) * TEMPORAL_GROUP,
                               h * SPATIAL_FACTOR, w * SPATIAL_FACTOR, c))
    return concatenate([head, tail], axis=0)


def encode(video: VideoTensor) -> LatentTensor:
    return LatentTensor(encode_frames(video.frames))


def decode(z: LatentTensor) -> VideoTensor:
    return VideoTensor(decode_frames(z.latents))


def window_offsets(n_latents, window, stride):
    """Latent start offsets 0, stride, 2*stride, ... with the final window
    clamped to end exactly at n_latents."""
    if window < 2:
        raise WindowTooLarge(f"window must be >= 2, got {window}")
    if not 1 <= stride < window:
        raise WindowTooLarge(f"stride must be in [1, window), got {stride}")
    if n_latents < window:
        raise WindowTooLarge(f"{n_latents} latent frames < window {window}")
    last = n_latents - window
    offsets = list(range(0, last + 1, stride))
    if offsets[-1] != last:
        offsets.append(last)
    return offsets


# Frames a non-first window discards: its leading slot plus one full temporal
# group are re-decodes of earlier content in the true frame ordering.
WINDOW_DISCARD = 5


class WindowSpan(NamedTuple):
    """One sliding window: its first latent frame, how many leading decoded
    frames it drops, and the absolute pixel frames it keeps."""

    offset: int
    discard: int
    frames: range


def window_spans(n_latents, window, stride):
    """Kept-frame plan of the sliding-window decode. A window of w latents
    decodes 1 + 4(w-1) pixel frames; the first window keeps all of them,
    every later one drops its first WINDOW_DISCARD. Raises WindowTooLarge
    like window_offsets."""
    n_decoded = pixel_frames(window)
    spans = []
    for off in window_offsets(n_latents, window, stride):
        drop = WINDOW_DISCARD if off else 0
        first = TEMPORAL_GROUP * off + drop
        spans.append(WindowSpan(off, drop, range(first, first + n_decoded - drop)))
    return spans


@dataclass
class WindowBlock:
    """Contiguous run of kept pixel frames [n, H, W, C] from one window.

    Non-first blocks keep 16 frames, which cannot satisfy the full-video
    frame-count invariant, so blocks carry a plain frame tensor with the
    same [0, 1] value range.
    """

    pixel_frame_offset: int
    frames: Tensor


def decode_windowed(z: LatentTensor, window: int = 6, stride: int = 2):
    """Sliding-window decode. A 6-latent window yields 1 + 4*(6-1) = 21 pixel
    frames; the first window keeps all of them, every later window drops its
    first 5 and keeps 16. Kept frames are bit-identical to the full decode at
    the same absolute index (the codec is temporally block-local)."""
    blocks = []
    for span in window_spans(z.n_latents, window, stride):
        frames = decode_frames(z.latents[span.offset:span.offset + window])
        kept = frames.data[span.discard:]
        blocks.append(WindowBlock(span.frames.start,
                                  Tensor(np.clip(kept, 0.0, 1.0))))
    return blocks


def write_ppm(path, frame):
    """Binary PPM (P6, 8-bit) dump of one [H,W,3] frame for inspection."""
    arr = np.asarray(frame.data if isinstance(frame, Tensor) else frame)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise BadResolution(f"PPM frame must be [H,W,3], got {arr.shape}")
    byte = np.clip(np.round(255.0 * arr), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        f.write(byte.tobytes())

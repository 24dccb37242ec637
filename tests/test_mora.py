import numpy as np
import pytest

from smrabooth import dit, flowmatch, lora, mora
from smrabooth import numerics as nm
from smrabooth import toyvae as tv
from smrabooth.errors import ShapeError, TooFewFrames
from smrabooth.numerics import ParamStore, Tensor
from smrabooth.toyvae import VideoTensor


def smooth_texture(h, w, seed, n_waves=6):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.zeros((h, w))
    for _ in range(n_waves):
        fx, fy = rng.uniform(-0.15, 0.15, 2)
        img += rng.uniform(0.5, 1.0) * np.sin(
            2 * np.pi * (fx * xx + fy * yy) + rng.uniform(0, 2 * np.pi))
    img = (img - img.min()) / (img.max() - img.min())
    return np.repeat(img[:, :, None], 3, axis=2).astype(np.float32)


def test_identical_frames_zero_flow_exact():
    f = smooth_texture(24, 24, 0)
    out = mora.flow(f, f, mora.FlowConfig())
    assert np.abs(out.data).max() == 0.0


def test_shift_oracle_five_textures():
    cfg = mora.FlowConfig()
    for seed in range(5):
        img = smooth_texture(32, 32, seed)
        fl = mora.flow(img, np.roll(img, 1, axis=1), cfg).data
        assert abs(fl[..., 0].mean() - 1.0) < 0.3, f"seed {seed}"
        assert abs(fl[..., 1].mean()) < 0.15, f"seed {seed}"


def test_shift_sign_equivariance():
    cfg = mora.FlowConfig()
    img = smooth_texture(32, 32, 3)
    right = mora.flow(img, np.roll(img, 1, axis=1), cfg).data
    left = mora.flow(img, np.roll(img, -1, axis=1), cfg).data
    down = mora.flow(img, np.roll(img, 1, axis=0), cfg).data
    up = mora.flow(img, np.roll(img, -1, axis=0), cfg).data
    assert right[..., 0].mean() > 0.5 and left[..., 0].mean() < -0.5
    assert down[..., 1].mean() > 0.5 and up[..., 1].mean() < -0.5


def test_flow_rejects_mismatched_frames():
    cfg = mora.FlowConfig()
    with pytest.raises(ShapeError):
        mora.flow(np.zeros((8, 8, 3), np.float32), np.zeros((8, 9, 3), np.float32), cfg)


def test_flow_stack_matches_per_pair_calls():
    cfg = mora.FlowConfig()
    video = np.stack([smooth_texture(16, 16, s) for s in range(4)] + [smooth_texture(16, 16, 0)])
    stack = mora.flow_stack(video, cfg)
    assert stack.n_pairs == 4
    for k in range(4):
        single = mora.flow(video[k], video[k + 1], cfg).data
        assert np.array_equal(stack.flows.data[k], single)


def _reference_flow(a, b, cfg):
    """Plain-numpy Horn-Schunck for one pair, no tape, in the solver's
    operation order; constants are cast to the frame dtype as the tape's
    scalar operands are."""
    c = a.dtype.type
    r, g, bl = cfg.grayscale

    def lum(f):
        return (f[:, :, 0] * c(r) + f[:, :, 1] * c(g) + f[:, :, 2] * c(bl)) \
            * c(cfg.luma_scale)

    def cdx(img):
        p = np.concatenate([img[:, :1], img, img[:, -1:]], axis=1)
        return (p[:, 2:] - p[:, :-2]) * c(0.5)

    def cdy(img):
        p = np.concatenate([img[:1], img, img[-1:]], axis=0)
        return (p[2:] - p[:-2]) * c(0.5)

    def avg(img):
        p = np.pad(img, 1, mode="edge")
        corners = (p[:-2, :-2] + p[:-2, 2:] + p[2:, :-2] + p[2:, 2:]) * c(1.0 / 12.0)
        edges = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]) * c(1.0 / 6.0)
        return corners + edges

    la, lb = lum(a), lum(b)
    ix = (cdx(la) + cdx(lb)) * c(0.5)
    iy = (cdy(la) + cdy(lb)) * c(0.5)
    it = lb - la
    den = ix * ix + iy * iy + c(cfg.alpha ** 2)
    u, v = np.zeros_like(la), np.zeros_like(la)
    for _ in range(cfg.iters):
        ubar, vbar = avg(u), avg(v)
        rate = (ix * ubar + iy * vbar + it) / den
        u = ubar - ix * rate
        v = vbar - iy * rate
    return np.stack([u, v], axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flow_stack_matches_numpy_reference_exactly(dtype):
    cfg = mora.FlowConfig(iters=7)
    rng = np.random.default_rng(11)
    video = np.concatenate([
        np.stack([smooth_texture(12, 20, s) for s in range(3)]),
        rng.random((3, 12, 20, 3)),
    ]).astype(dtype)
    got = mora.flow_stack(Tensor(video), cfg).flows.data
    assert got.dtype == dtype
    ref = np.stack([_reference_flow(video[k], video[k + 1], cfg)
                    for k in range(video.shape[0] - 1)])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("op", [
    lambda x: nm.stencil(x, mora.AVERAGE_TAPS), mora._cdx, mora._cdy,
], ids=["neighbor_average", "cdx", "cdy"])
@pytest.mark.parametrize("shape", [(3, 4, 6), (2, 1, 3)])
def test_spatial_operators_grad_check(op, shape):
    rng = np.random.default_rng(12)
    weights = Tensor(rng.normal(size=shape))
    probe = ParamStore()
    probe.add("x", rng.normal(size=shape))
    report = nm.grad_check(lambda ps: (op(ps["x"]) * weights).sum(), probe,
                           eps=1e-5, tol=1e-7)
    assert report.passed, report.max_rel_err


def _reference_flow_tape(a, b, cfg):
    """One pair on the tape as solved before batching: replicate pads are
    concatenated slices and the neighbour average sums 8 window slices. Its
    float32 gradient is the oracle for the batched solver's."""
    r, g, bl = cfg.grayscale

    def lum(f):
        return (f[:, :, 0] * r + f[:, :, 1] * g + f[:, :, 2] * bl) * cfg.luma_scale

    def pad_x(img):
        return nm.concatenate([img[:, 0:1], img, img[:, -1:]], axis=1)

    def pad_y(img):
        return nm.concatenate([img[0:1, :], img, img[-1:, :]], axis=0)

    def avg(img):
        p = pad_y(pad_x(img))
        corners = (p[:-2, :-2] + p[:-2, 2:] + p[2:, :-2] + p[2:, 2:]) * (1.0 / 12.0)
        edges = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]) * (1.0 / 6.0)
        return corners + edges

    la, lb = lum(a), lum(b)
    pxa, pxb, pya, pyb = pad_x(la), pad_x(lb), pad_y(la), pad_y(lb)
    ix = ((pxa[:, 2:] - pxa[:, :-2]) * 0.5 + (pxb[:, 2:] - pxb[:, :-2]) * 0.5) * 0.5
    iy = ((pya[2:] - pya[:-2]) * 0.5 + (pyb[2:] - pyb[:-2]) * 0.5) * 0.5
    it = lb - la
    den = ix * ix + iy * iy + cfg.alpha ** 2
    u = Tensor(np.zeros(la.shape, dtype=la.dtype))
    v = Tensor(np.zeros(la.shape, dtype=la.dtype))
    for _ in range(cfg.iters):
        ubar, vbar = avg(u), avg(v)
        rate = (ix * ubar + iy * vbar + it) / den
        u = ubar - ix * rate
        v = vbar - iy * rate
    return nm.stack([u, v], axis=-1)


def test_flow_stack_gradient_bit_identical_to_per_pair_tape():
    # float32 training sees exactly the gradient of the per-pair solve
    cfg = mora.FlowConfig(iters=5)
    rng = np.random.default_rng(15)
    video = rng.random((5, 8, 12, 3)).astype(np.float32)
    weights = rng.normal(size=(4, 8, 12, 2)).astype(np.float32)
    frames = Tensor(video, requires_grad=True)
    (mora.flow_stack(frames, cfg).flows * Tensor(weights)).sum().backward()
    expected = np.zeros_like(video)
    for k in range(4):
        a = Tensor(video[k], requires_grad=True)
        b = Tensor(video[k + 1], requires_grad=True)
        (_reference_flow_tape(a, b, cfg) * Tensor(weights[k])).sum().backward()
        expected[k] += a.grad
        expected[k + 1] += b.grad
    assert np.array_equal(frames.grad, expected)


def _tape_nodes(root):
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def test_flow_stack_tape_size_independent_of_pair_count():
    rng = np.random.default_rng(13)

    def count(n_frames, iters):
        frames = Tensor(rng.random((n_frames, 8, 8, 3)).astype(np.float32),
                        requires_grad=True)
        return _tape_nodes(
            mora.flow_stack(frames, mora.FlowConfig(iters=iters)).flows.sum())

    assert count(3, 20) == count(17, 20)
    assert count(17, 20) - count(17, 10) == 11 * 10   # 11 nodes per update


def test_flow_stack_static_video_zero():
    f = smooth_texture(16, 16, 1)
    video = np.repeat(f[None], 5, axis=0)
    assert np.abs(mora.flow_stack(video, mora.FlowConfig()).flows.data).max() == 0.0


def test_flow_stack_counts():
    video = np.stack([smooth_texture(16, 16, s % 3) for s in range(13)])
    assert mora.flow_stack(video, mora.FlowConfig()).n_pairs == 12
    with pytest.raises(TooFewFrames):
        mora.flow_stack(video[:1], mora.FlowConfig())


def _shifting_video(t, h=16, w=16, seed=7):
    base = smooth_texture(h, w, seed)
    return np.stack([np.roll(base, k, axis=1) for k in range(t)]).astype(np.float32)


def test_denoised_stack_oracle_velocity_matches_reference():
    cfg = mora.FlowConfig()
    video = _shifting_video(13)
    v = VideoTensor(Tensor(video))
    z0 = tv.encode(v).latents
    z1 = Tensor(np.random.default_rng(1).standard_normal(z0.shape).astype(np.float32))
    t = 0.63
    z_t = flowmatch.interpolate(z0, z1, t)
    u = flowmatch.velocity_target(z0, z1)
    den = mora.denoised_flow_stack(z_t, u, t, cfg)
    ref = mora.flow_stack(v, cfg)
    assert den.pair_index == list(range(12))
    assert np.allclose(den.flows.data, ref.flows.data, atol=2e-4)


def test_denoised_stack_t_zero_flows_of_decode():
    cfg = mora.FlowConfig()
    video = _shifting_video(5)
    z0 = tv.encode(VideoTensor(Tensor(video))).latents
    junk = Tensor(np.random.default_rng(2).standard_normal(z0.shape).astype(np.float32))
    den = mora.denoised_flow_stack(z0, junk, 0.0, cfg)
    direct = mora.flow_stack(tv.decode_frames(z0), cfg)
    assert np.array_equal(den.flows.data, direct.flows.data)


def test_windowed_single_window_equals_full():
    cfg = mora.FlowConfig()
    video = _shifting_video(21)
    z0 = tv.encode(VideoTensor(Tensor(video))).latents
    z1 = Tensor(np.random.default_rng(3).standard_normal(z0.shape).astype(np.float32))
    z_t = flowmatch.interpolate(z0, z1, 0.4)
    u = flowmatch.velocity_target(z0, z1)
    full = mora.denoised_flow_stack(z_t, u, 0.4, cfg, windowed=False)
    win = mora.denoised_flow_stack(z_t, u, 0.4, cfg, windowed=True)
    assert np.array_equal(full.flows.data, win.flows.data)
    assert win.pair_index == list(range(20))


def test_windowed_pairs_never_cross_blocks():
    cfg = mora.FlowConfig(iters=2)
    video = _shifting_video(49)
    z0 = tv.encode(VideoTensor(Tensor(video))).latents
    z1 = Tensor(np.random.default_rng(4).standard_normal(z0.shape).astype(np.float32))
    z_t = flowmatch.interpolate(z0, z1, 0.5)
    u = flowmatch.velocity_target(z0, z1)
    win = mora.denoised_flow_stack(z_t, u, 0.5, cfg, windowed=True)
    # first window contributes pairs 0..19; later 16-frame blocks at offset
    # 4o+5 contribute 15 pairs each
    offsets = tv.window_offsets(13, 6, 2)
    expected = list(range(20))
    for o in offsets[1:]:
        start = 4 * o + 5
        expected += list(range(start, start + 15))
    assert win.pair_index == expected
    # every windowed slice equals the full-stack slice at its pair index
    full = mora.denoised_flow_stack(z_t, u, 0.5, cfg, windowed=False)
    for row, pair in enumerate(win.pair_index):
        assert np.array_equal(win.flows.data[row], full.flows.data[pair])


def test_windowed_mora_loss_grad_check():
    # 17 frames, window 4, stride 1: the two windows overlap, so the gather
    # duplicates pairs 9..11 and its adjoint must sum them
    cfg = mora.FlowConfig(iters=2)
    rng = np.random.default_rng(14)
    z0 = tv.encode_frames(Tensor(rng.random((17, 4, 4, 3)))).data
    z1 = rng.standard_normal(z0.shape)
    t = 0.5
    z_t = Tensor((1.0 - t) * z0 + t * z1)
    ref = mora.flow_stack(Tensor(rng.random((17, 4, 4, 3))), cfg)
    probe = ParamStore()
    probe.add("u", z1 - z0 + rng.normal(0, 0.05, z0.shape))

    def loss_fn(ps):
        gen = mora.denoised_flow_stack(z_t, ps["u"], t, cfg, windowed=True,
                                       window=4, stride=1)
        return mora.mora_loss(mora.align_reference(ref, gen), gen)

    pairs = mora.denoised_flow_stack(z_t, probe["u"], t, cfg, windowed=True,
                                     window=4, stride=1).pair_index
    assert pairs == list(range(12)) + list(range(9, 16))
    report = nm.grad_check(loss_fn, probe, eps=1e-6)
    assert report.passed, report.max_rel_err


def test_align_reference_gathers_pairs():
    flows = Tensor(np.arange(4 * 2 * 2 * 2, dtype=np.float32).reshape(4, 2, 2, 2))
    ref = mora.FlowField(flows)
    gen = mora.FlowField(Tensor(np.zeros((3, 2, 2, 2), np.float32)),
                         pair_index=[1, 1, 3])
    aligned = mora.align_reference(ref, gen)
    assert np.array_equal(aligned.flows.data[0], flows.data[1])
    assert np.array_equal(aligned.flows.data[1], flows.data[1])
    assert np.array_equal(aligned.flows.data[2], flows.data[3])


def test_mora_loss_values():
    rng = np.random.default_rng(5)
    a = mora.FlowField(Tensor(rng.normal(size=(3, 4, 4, 2)).astype(np.float32)))
    assert mora.mora_loss(a, a).item() == 0.0
    b = mora.FlowField(Tensor(a.flows.data + 1.0))
    assert mora.mora_loss(a, b).item() == pytest.approx(1.0, abs=1e-6)
    c = mora.FlowField(Tensor(rng.normal(size=(3, 4, 4, 2)).astype(np.float32)))
    oracle = float(np.mean(np.abs(a.flows.data.astype(np.float64)
                                  - c.flows.data.astype(np.float64))))
    assert mora.mora_loss(a, c).item() == pytest.approx(oracle, abs=1e-7)
    with pytest.raises(ShapeError):
        mora.mora_loss(a, mora.FlowField(Tensor(np.zeros((2, 4, 4, 2), np.float32))))


def test_total_motion_loss():
    assert mora.total_motion_loss(0.2, 0.3, 1.0) == pytest.approx(0.5)
    assert mora.total_motion_loss(0.2, 0.3, 0.0) == pytest.approx(0.2)
    with pytest.raises(ShapeError):
        mora.total_motion_loss(0.2, 0.3, -1.0)


def test_flow_gradient_matches_fd():
    # gradient of mean flow w.r.t. pixel values through the unrolled solver
    cfg = mora.FlowConfig(iters=6)
    rng = np.random.default_rng(6)
    base = smooth_texture(8, 8, 2)
    probe = ParamStore()
    probe.add("frame_b", base + rng.normal(0, 0.02, base.shape))

    def loss_fn(ps):
        fl = mora.flow(Tensor(base.astype(np.float64)), ps["frame_b"], cfg)
        return fl.mean()

    report = nm.grad_check(loss_fn, probe, eps=1e-5)
    assert report.passed, report.max_rel_err


def test_full_chain_grad_check_through_decode_and_flow():
    # the training path: adapter factors -> velocity -> recover -> decode ->
    # Horn-Schunck -> L1, checked against central differences in float64
    tcfg = dit.ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ffn=16)
    base = dit.init_params(tcfg, seed=5)
    base["head.weight"].data[:] = np.random.default_rng(9).normal(
        0, 0.05, base["head.weight"].shape)
    cond = dit.embed_text("A circle S* slides", 5, tcfg)
    rng = np.random.default_rng(4)
    video = rng.random((5, 8, 8, 3)).astype(np.float32)
    z0 = tv.encode(VideoTensor(Tensor(video))).latents
    z1 = Tensor(rng.standard_normal(z0.shape).astype(np.float32))
    t = 0.55
    z_t = flowmatch.interpolate(z0, z1, t)
    ref = mora.flow_stack(video, mora.FlowConfig())
    mset = lora.attach("motion", tcfg, rank=2, seed=6)
    for name, ad in mset.adapters.items():
        ad.b.data[:] = np.random.default_rng(abs(hash(name)) % 2**32).normal(
            0, 0.05, ad.b.shape).astype(np.float32)
    probe = mset.trainable_params()

    def loss_fn(ps):
        ctx = lora.LoraContext()
        for name, ad in mset.adapters.items():
            ctx.add(name, lora.LoraAdapter(
                name, ad.layer_type,
                ps[f"lora.motion.{name}.A"], ps[f"lora.motion.{name}.B"]), 1.0)
        out = dit.forward(tcfg, base, Tensor(z_t.data.astype(np.float64)),
                          t, cond, ctx)
        den = mora.denoised_flow_stack(Tensor(z_t.data.astype(np.float64)),
                                       out.velocity, t, mora.FlowConfig())
        return mora.mora_loss(ref, den)

    # L1 has a kink at zero; this seed keeps every element comfortably away
    with nm.no_grad():
        ref64 = ref.flows.data.astype(np.float64)
    report = nm.grad_check(loss_fn, probe)
    assert report.passed, f"{report.max_rel_err} on {report.worst_param}"


def test_flow_to_rgb_shape():
    rng = np.random.default_rng(7)
    rgb = mora.flow_to_rgb(rng.normal(size=(6, 5, 2)))
    assert rgb.shape == (6, 5, 3)
    assert rgb.min() >= 0.0 and rgb.max() <= 1.0

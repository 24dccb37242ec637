import numpy as np
import pytest

from smrabooth import data, mora
from smrabooth.errors import BadSpec


def test_subject_spec_validation():
    with pytest.raises(BadSpec):
        data.SubjectSpec(shape="hexagon")
    with pytest.raises(BadSpec):
        data.SubjectSpec(size=0.05)
    with pytest.raises(BadSpec):
        data.SubjectSpec(size=0.7)


def test_motion_spec_validation():
    with pytest.raises(BadSpec):
        data.MotionSpec(kind="teleport")
    with pytest.raises(BadSpec):
        data.MotionSpec(frames=8)


def test_gen_subject_deterministic():
    spec = data.SubjectSpec(shape="square", size=0.3, texture_seed=4)
    a = data.gen_subject(spec, 32, 32, seed=1)
    b = data.gen_subject(spec, 32, 32, seed=1)
    assert np.array_equal(a.video.frames.data, b.video.frames.data)
    assert np.array_equal(a.mask, b.mask)
    c = data.gen_subject(spec, 32, 32, seed=2)
    assert not np.array_equal(a.video.frames.data, c.video.frames.data)


def test_gen_subject_caption_template():
    s = data.gen_subject(data.SubjectSpec(shape="triangle"), 32, 32, 0)
    assert s.caption == "A picture of V* triangle"


def test_mask_matches_rendered_footprint():
    spec = data.SubjectSpec(shape="circle", size=0.3, fill_color=(1.0, 0.0, 0.0),
                            texture_seed=9)
    s = data.gen_subject(spec, 32, 32, seed=3)
    frame, mask = s.video.frames.data[0], s.mask
    # the red channel is strong exactly on the object (background is a tint)
    strong_red = (frame[..., 0] > 0.4) & (frame[..., 1] < 0.3)
    assert np.array_equal(strong_red, mask > 0.5)


def test_circle_footprint_area():
    spec = data.SubjectSpec(shape="circle", size=0.25)
    s = data.gen_subject(spec, 32, 32, seed=1)
    r = 0.25 * 32 / 2
    assert abs(s.mask.sum() - np.pi * r * r) < 2.0


def test_triangle_footprint_area_and_orientation():
    half = 8.0
    vv, uu = np.mgrid[-12:13, -12:13].astype(np.float64)
    mask = data._inside("triangle", uu, vv, half)
    area = 3.0 * np.sqrt(3.0) / 4.0 * half * half
    assert abs(mask.sum() - area) < 0.1 * area
    assert mask[12, 12]                       # centroid (u, v) = (0, 0)
    rows = np.nonzero(mask.any(axis=1))[0] - 12
    # apex on top: v points down, the apex sits at v = -half and the base
    # edge at v = +half/2 (pixels exactly on an edge may fall either side)
    assert -half <= rows.min() <= -half + 1
    assert half / 2 - 1 <= rows.max() <= half / 2
    widths = mask.sum(axis=1)[rows + 12]
    assert widths[0] < widths[-1]
    s = data.gen_subject(data.SubjectSpec(shape="triangle", size=0.5), 32, 32, 0)
    assert abs(s.mask.sum() - area) < 0.1 * area


def test_square_footprint_area():
    spec = data.SubjectSpec(shape="square", size=0.25)
    s = data.gen_subject(spec, 32, 32, seed=1)
    side = 0.25 * 32
    assert abs(s.mask.sum() - side * side) <= 2 * side + 2


def test_gen_motion_linear_centroids():
    ms = data.MotionSpec(kind="linear", frames=17, velocity=(1.0, 0.0))
    sub = data.SubjectSpec(shape="circle", size=0.4)
    s = data.gen_motion(ms, sub, 32, 32, seed=2)
    assert s.caption == "A circle S* slides right"
    assert s.video.n_frames == 17
    cents = [data.mask_centroid(s.mask[k]) for k in range(17)]
    dx = np.diff([c[0] for c in cents])
    dy = np.diff([c[1] for c in cents])
    assert np.all(np.abs(dx - 1.0) < 0.2)
    assert np.all(np.abs(dy) < 0.2)
    # analytic trajectory reproduced by mask centroids
    for k, (cx, cy) in enumerate(s.ground_truth["centers"]):
        gx, gy = data.mask_centroid(s.mask[k])
        assert abs(gx - cx) < 0.5 and abs(gy - cy) < 0.5


def test_gen_motion_zero_velocity_static():
    ms = data.MotionSpec(kind="linear", frames=9, velocity=(0.0, 0.0))
    sub = data.SubjectSpec(shape="circle", size=0.4)
    s = data.gen_motion(ms, sub, 32, 32, seed=3)
    for k in range(1, 9):
        assert np.array_equal(s.video.frames.data[k], s.video.frames.data[0])
    flows = mora.flow_stack(s.video, mora.FlowConfig()).flows.data
    assert np.abs(flows).max() < 1e-6


def test_gen_motion_frame_count_latents():
    ms = data.MotionSpec(kind="linear", frames=17, velocity=(0.5, 0.0))
    sub = data.SubjectSpec(size=0.3)
    s = data.gen_motion(ms, sub, 32, 32, seed=1)
    from smrabooth.toyvae import encode
    assert encode(s.video).n_latents == 5


def test_gen_motion_out_of_bounds_rejected():
    ms = data.MotionSpec(kind="linear", frames=33, velocity=(2.0, 0.0))
    sub = data.SubjectSpec(size=0.4)
    with pytest.raises(BadSpec):
        data.gen_motion(ms, sub, 32, 32, seed=1)


def test_object_region_flow_tracks_velocity():
    # links the generator to the flow estimator: inside the moving object,
    # estimated flow matches the analytic velocity
    ms = data.MotionSpec(kind="linear", frames=9, velocity=(1.0, 0.0))
    sub = data.SubjectSpec(shape="circle", size=0.4, fill_color=(0.15, 0.7, 0.2),
                           texture_seed=5)
    s = data.gen_motion(ms, sub, 32, 32, seed=4)
    stack = mora.flow_stack(s.video, mora.FlowConfig()).flows.data
    means = []
    for k in range(stack.shape[0]):
        region = (s.mask[k] + s.mask[k + 1]) > 0.5
        means.append([stack[k][region, 0].mean(), stack[k][region, 1].mean()])
    mu, mv = np.mean(means, axis=0)
    assert abs(mu - 1.0) < 0.3
    assert abs(mv) < 0.3


def test_circular_and_rotation_render():
    sub = data.SubjectSpec(shape="square", size=0.3, texture_seed=2)
    circ = data.gen_motion(data.MotionSpec(kind="circular", frames=9, radius=4.0,
                                           angular_rate=0.5), sub, 32, 32, 1)
    cents = [data.mask_centroid(circ.mask[k]) for k in range(9)]
    radii = [np.hypot(cx - 15.5, cy - 15.5) for cx, cy in cents]
    assert np.all(np.abs(np.array(radii) - 4.0) < 0.8)
    rot = data.gen_motion(data.MotionSpec(kind="rotation", frames=9,
                                          angular_rate=0.4), sub, 32, 32, 1)
    # rotation keeps the centroid fixed but changes pixels frame to frame
    c0 = data.mask_centroid(rot.mask[0])
    for k in range(1, 9):
        ck = data.mask_centroid(rot.mask[k])
        assert abs(ck[0] - c0[0]) < 0.6 and abs(ck[1] - c0[1]) < 0.6
    assert not np.array_equal(rot.video.frames.data[0], rot.video.frames.data[2])


def test_fit_motion_keeps_path_inside():
    sub = data.SubjectSpec(size=0.5)
    ms = data.fit_motion(data.MotionSpec(kind="linear", frames=17,
                                         velocity=(3.0, 0.0)), sub, 16, 16)
    data.gen_motion(ms, sub, 16, 16, seed=0)   # must not raise


def test_corpus_digest_changes_with_content():
    c1 = data.build_pretrain_corpus(H=16, W=16, frames=5, n_subjects=2,
                                    n_motions=1, seed=0)
    c2 = data.build_pretrain_corpus(H=16, W=16, frames=5, n_subjects=2,
                                    n_motions=1, seed=0)
    assert data.corpus_digest(c1) == data.corpus_digest(c2)
    c3 = data.build_pretrain_corpus(H=16, W=16, frames=5, n_subjects=2,
                                    n_motions=1, seed=1)
    assert data.corpus_digest(c1) != data.corpus_digest(c3)


def test_save_sample_sidecar(tmp_path):
    s = data.gen_subject(data.SubjectSpec(), 16, 16, seed=0)
    data.save_sample(tmp_path, "probe", s)
    import json
    from smrabooth.numerics import read_stns
    assert np.array_equal(read_stns(tmp_path / "probe.stns"),
                          s.video.frames.data)
    meta = json.loads((tmp_path / "probe.json").read_text())
    assert meta["caption"] == s.caption
    assert meta["ground_truth"]["subject"]["shape"] == "circle"

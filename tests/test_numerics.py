import numpy as np
import pytest

from smrabooth import numerics as nm
from smrabooth.errors import CorruptArtifact, NonFiniteProbe, ShapeError
from smrabooth.numerics import ParamStore, Tensor


def test_grad_check_quadratic_sum_of_squares():
    # quadratics are differentiated exactly by central differences
    ps = ParamStore()
    ps.add("p", np.array([1.0, 2.0, 3.0]))
    report = nm.grad_check(lambda s: (s["p"] * s["p"]).sum(), ps)
    assert report.max_rel_err < 1e-9
    analytic = None
    work = ps.astype(np.float64)
    loss = (work["p"] * work["p"]).sum()
    loss.backward()
    assert np.allclose(work["p"].grad, [2.0, 4.0, 6.0])


def test_grad_check_constant_loss_is_zero_error():
    ps = ParamStore()
    ps.add("p", np.array([1.0, 2.0]))
    report = nm.grad_check(lambda s: nm.constant(3.0) + 0.0 * s["p"].sum(), ps)
    assert report.max_rel_err == 0.0


def test_grad_check_nonfinite_probe_raises():
    ps = ParamStore()
    ps.add("p", np.array([1e-5]))

    def loss(s):
        with np.errstate(invalid="ignore"):
            return nm.Tensor(np.log(s["p"].data))  # NaN once p probes negative

    with pytest.raises(NonFiniteProbe):
        nm.grad_check(loss, ps, eps=1e-3)


def test_grad_check_reports_worst_param():
    ps = ParamStore()
    ps.add("good", np.array([1.0]))
    ps.add("alsogood", np.array([2.0]))
    rep = nm.grad_check(lambda s: (s["good"] * s["good"]).sum()
                        + nm.absval(s["alsogood"]).sum(), ps)
    assert rep.worst_param in ("good", "alsogood")
    assert rep.n_entries == 2
    assert rep.passed


def test_softmax_rows_symmetric_and_overflow_safe():
    out = nm.softmax_rows(Tensor(np.array([[0.0, 0.0]]))).data
    assert np.allclose(out, [[0.5, 0.5]])
    out = nm.softmax_rows(Tensor(np.array([[1000.0, 0.0]]))).data
    assert np.isfinite(out).all()
    assert abs(out[0, 0] - 1.0) < 1e-6
    assert abs(out[0, 1]) < 1e-6


def test_softmax_rows_against_high_precision_oracle():
    row = np.array([[1.0, 2.0, 3.0]])
    # independent 64-bit recomputation
    shifted = row.astype(np.float64) - 3.0
    expect = np.exp(shifted) / np.exp(shifted).sum()
    got = nm.softmax_rows(Tensor(row)).data
    assert np.allclose(got, expect, atol=1e-7)


def test_softmax_rows_rejects_non_matrix():
    with pytest.raises(ShapeError):
        nm.softmax_rows(Tensor(np.zeros(3)))


def test_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = nm.softmax_rows(Tensor(rng.normal(size=(7, 5)) * 10)).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out >= 0).all()


def test_paramstore_lexicographic_and_unique():
    ps = ParamStore(rng_seed=7)
    ps.add("b.w", np.zeros(2))
    ps.add("a.w", np.zeros(2))
    assert ps.names() == ["a.w", "b.w"]
    with pytest.raises(ValueError):
        ps.add("a.w", np.zeros(2))
    assert ps.rng_seed == 7


def test_tensor_invariants():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.dims == [2, 3]
    assert int(np.prod(t.dims)) == t.data.size
    assert t.is_finite()
    assert not Tensor(np.array([np.nan])).is_finite()


def test_backward_requires_scalar_root():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (t * 2.0).backward()


def test_ops_bit_deterministic():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(16, 16)).astype(np.float32))
    b = Tensor(rng.normal(size=(16, 16)).astype(np.float32))
    r1 = (nm.matmul(a, b) + nm.gelu(a) * nm.tanh(b)).data
    r2 = (nm.matmul(a, b) + nm.gelu(a) * nm.tanh(b)).data
    assert np.array_equal(r1, r2)


def test_composite_op_gradients_match_fd():
    rng = np.random.default_rng(2)
    ps = ParamStore()
    ps.add("w", rng.normal(size=(4, 3)))
    x = nm.constant(rng.normal(size=(5, 3)), dtype=np.float64)

    def loss(s):
        h = nm.matmul(x, s["w"].transpose((1, 0)))
        p = nm.concatenate([h[:, :1], h, h[:, -1:]], axis=1)
        d = (p[:, 2:] - p[:, :-2]) * 0.5
        sm = nm.softmax(h, axis=-1)
        pieces = nm.stack([d, d * 2.0], axis=-1)
        return (nm.gelu(h).mean() + nm.absval(pieces).sum() * 0.1
                + (sm * sm).mean() + nm.sqrt(nm.exp(h)).mean()
                + nm.clamp_min((h * h).sum(), 1e-8) * 1e-3)

    report = nm.grad_check(loss, ps)
    assert report.passed, report


def test_take_rows_scatter_gradient():
    ps = ParamStore()
    ps.add("table", np.arange(12.0).reshape(4, 3))

    def loss(s):
        picked = nm.take_rows(s["table"], [0, 2, 2])
        return (picked * picked).sum()

    report = nm.grad_check(loss, ps)
    assert report.passed


def test_no_grad_blocks_tape():
    t = Tensor(np.ones(3), requires_grad=True)
    with nm.no_grad():
        out = (t * 2.0).sum()
    assert out._parents == ()


def test_stns_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
    path = tmp_path / "t.stns"
    nm.write_stns(path, arr)
    back = nm.read_stns(path)
    assert back.dtype == np.float32
    assert np.array_equal(arr, back)
    raw = path.read_bytes()
    assert raw[:4] == b"STNS"
    assert raw[4] == 1           # version
    assert raw[5] == 3           # ndim
    dims = np.frombuffer(raw[6:18], dtype="<u4")
    assert list(dims) == [3, 4, 5]


def test_stns_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.stns"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(CorruptArtifact):
        nm.read_stns(path)


@pytest.mark.parametrize("mangle, message", [
    (lambda raw: raw[:4] + bytes([2]) + raw[5:], "unsupported STNS version"),
    (lambda raw: raw[:5], "truncated header"),
    (lambda raw: raw[:9], "truncated header"),
    (lambda raw: raw[:-1], "truncated payload"),
    (lambda raw: raw[:18], "truncated payload"),
    (lambda raw: raw + bytes(4), "trailing bytes"),
])
def test_stns_rejects_corrupt_files(tmp_path, mangle, message):
    path = tmp_path / "t.stns"
    nm.write_stns(path, np.ones((3, 4, 5), np.float32))
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(CorruptArtifact, match=message):
        nm.read_stns(path)


def test_make_rng_stable_streams():
    a = nm.make_rng(5, "x").standard_normal(4)
    b = nm.make_rng(5, "x").standard_normal(4)
    c = nm.make_rng(5, "y").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

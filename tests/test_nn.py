import tracemalloc

import numpy as np
import pytest

import oracles
from kpivae import nn


def flat(tensors):
    """The tensors of a dict, raveled into one vector in sorted-name order."""
    return np.concatenate([tensors[k].ravel() for k in sorted(tensors)])


def numgrad(f, x, h=1e-6):
    """Central finite differences, elementwise."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def relerr(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return np.max(np.abs(a - b) / denom)


class TestInit:
    def test_square_orthogonal(self):
        rng = np.random.default_rng(0)
        w = nn.orthogonal((7, 7), rng)
        assert np.max(np.abs(w.T @ w - np.eye(7))) < 1e-12

    def test_tall_has_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        w = nn.orthogonal((9, 4), rng)
        assert np.max(np.abs(w.T @ w - np.eye(4))) < 1e-12

    def test_wide_has_orthonormal_rows(self):
        rng = np.random.default_rng(0)
        w = nn.orthogonal((4, 9), rng)
        assert np.max(np.abs(w @ w.T - np.eye(4))) < 1e-12

    def test_deterministic_given_seed(self):
        a = nn.orthogonal((6, 6), np.random.default_rng(3))
        b = nn.orthogonal((6, 6), np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_lstm_init_shapes_and_zero_bias(self):
        p = nn.lstm_init(5, 8, np.random.default_rng(1))
        assert p["Wx"].shape == (5, 32)
        assert p["Wh"].shape == (8, 32)
        assert (p["b"] == 0).all()
        for g in range(4):
            blk = p["Wh"][:, g * 8 : (g + 1) * 8]
            assert np.max(np.abs(blk.T @ blk - np.eye(8))) < 1e-12


class TestForward:
    def test_zero_input_zero_bias_gives_zero_hidden(self):
        p = nn.lstm_init(3, 6, np.random.default_rng(2))
        h, _ = oracles.nn_lstm_forward(np.zeros((2, 4, 3)), p)
        assert np.allclose(h, 0.0)

    def test_lstm_output_shape(self):
        p = nn.lstm_init(3, 6, np.random.default_rng(2))
        h, _ = oracles.nn_lstm_forward(np.random.default_rng(0).normal(size=(2, 4, 3)), p)
        assert h.shape == (2, 4, 6)

    def test_sigmoid_matches_reference_and_is_stable(self):
        x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
        out = nn.sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[2] == 0.5
        assert np.allclose(out[1:4], 1.0 / (1.0 + np.exp(-x[1:4])))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[4] == pytest.approx(1.0)
        grid = np.linspace(-40.0, 40.0, 8001)
        assert np.max(np.abs(nn.sigmoid(grid) - oracles.sigmoid(grid))) < 1e-15


class TestBackward:
    def test_linear_gradients_match_fd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        p = {"W": rng.normal(size=(4, 6)), "b": rng.normal(size=6)}
        proj = rng.normal(size=(2, 3, 6))

        def loss():
            y, _ = nn.linear_forward(x, p)
            return float((y * proj).sum())

        y, cache = nn.linear_forward(x, p)
        grads = {k: np.empty_like(v) for k, v in p.items()}
        dx = nn.linear_backward(proj, cache, p, grads)
        assert relerr(grads["W"], numgrad(loss, p["W"])) < 1e-7
        assert relerr(grads["b"], numgrad(loss, p["b"])) < 1e-7
        assert relerr(dx, numgrad(loss, x)) < 1e-7

    def test_lstm_gradients_match_fd(self):
        # T = 1 and 2 reach the skipped t = 0 recurrent GEMMs; at T = 1 the
        # dWh sum is empty
        for T in (1, 2, 3):
            rng = np.random.default_rng(5)
            x = rng.normal(size=(2, T, 4))
            p = nn.lstm_init(4, 5, rng)
            proj = rng.normal(size=(2, T, 5))

            def loss():
                h, _ = oracles.nn_lstm_forward(x, p)
                return float((h * proj).sum())

            h, cache = oracles.nn_lstm_forward(x, p)
            dx, grads = oracles.nn_lstm_backward(proj, cache, p)
            for k in ("Wx", "Wh", "b"):
                assert relerr(grads[k], numgrad(loss, p[k])) < 1e-6, (T, k)
            assert relerr(dx, numgrad(loss, x)) < 1e-6, T

    def test_stacked_lstm_input_gradient(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 4, 3))
        p1 = nn.lstm_init(3, 4, rng)
        p2 = nn.lstm_init(4, 4, rng)
        proj = rng.normal(size=(1, 4, 4))

        def loss():
            h1, _ = oracles.nn_lstm_forward(x, p1)
            h2, _ = oracles.nn_lstm_forward(h1, p2)
            return float((h2 * proj).sum())

        h1, c1 = oracles.nn_lstm_forward(x, p1)
        h2, c2 = oracles.nn_lstm_forward(h1, p2)
        dh1, _ = oracles.nn_lstm_backward(proj, c2, p2)
        dx, _ = oracles.nn_lstm_backward(dh1, c1, p1)
        assert relerr(dx, numgrad(loss, x)) < 1e-6


class TestDtype:
    """A float32 pass stays float32: no float64 buffer or constant upcasts it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lstm_gradients_and_adam_moments_follow_the_input(self, dtype):
        rng = np.random.default_rng(8)
        p = {k: v.astype(dtype) for k, v in nn.lstm_init(3, 4, rng).items()}
        h, cache = oracles.nn_lstm_forward(rng.normal(size=(2, 3, 3)).astype(dtype), p)
        dx, grads = oracles.nn_lstm_backward(np.ones_like(h), cache, p)
        assert dx.dtype == dtype
        assert all(g.dtype == dtype for g in grads.values())
        theta = flat(p)
        opt = nn.Adam(theta, lr=0.01)
        opt.step(flat(grads))
        assert all(a.dtype == dtype for a in [opt.m, opt.v, theta])

    def test_float32_pass_meets_no_float64(self):
        rng = np.random.default_rng(9)
        f32 = lambda a: a.astype(np.float32).view(oracles.NoFloat64)  # noqa: E731
        p = {k: f32(v) for k, v in nn.lstm_init(3, 4, rng).items()}
        for T in (1, 3):
            h, cache = oracles.nn_lstm_forward(f32(rng.normal(size=(2, T, 3))), p)
            _, grads = oracles.nn_lstm_backward(f32(rng.normal(size=h.shape)), cache, p)
            nn.Adam(f32(flat(p)), lr=0.01).step(f32(flat(grads)))


def scaled_err(new, ref):
    """Largest deviation relative to the largest reference magnitude; an
    all-zero reference must be matched exactly."""
    top = np.max(np.abs(ref))
    if top == 0.0:
        return 0.0 if np.all(new == 0.0) else np.inf
    return np.max(np.abs(new - ref)) / top


class TestAgainstReference:
    """The time-major kernels against the per-timestep ones in `oracles`."""

    @pytest.mark.parametrize("D", [5, 30, 64])
    @pytest.mark.parametrize("B", [1, 3, 64])
    @pytest.mark.parametrize("T", [1, 2, 25])
    def test_lstm_matches_reference(self, T, B, D):
        rng = np.random.default_rng([T, B, D])
        H = 64
        p = nn.lstm_init(D, H, rng)
        p["b"] = rng.normal(scale=0.5, size=4 * H)
        x = rng.normal(size=(B, T, D))
        dh_out = rng.normal(size=(B, T, H))

        h, cache = oracles.nn_lstm_forward(x, p)
        h_ref, cache_ref = oracles.lstm_forward(x, p)
        assert h.shape == (B, T, H)
        assert scaled_err(h, h_ref) < 1e-12

        dx, grads = oracles.nn_lstm_backward(dh_out, cache, p)
        dx_ref, grads_ref = oracles.lstm_backward(dh_out, cache_ref, p)
        assert dx.shape == (B, T, D)
        assert scaled_err(dx, dx_ref) < 1e-10
        for k in ("Wx", "Wh", "b"):
            assert grads[k].shape == p[k].shape
            assert scaled_err(grads[k], grads_ref[k]) < 1e-10, k


class TestAdam:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(7)
        theta = rng.normal(size=(3, 2))
        ref = theta.copy()
        opt = nn.Adam(theta, lr=0.01)
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 4):
            g = rng.normal(size=(3, 2))
            opt.step(g.copy())
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            ref = ref - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.allclose(theta, ref, atol=1e-14)

    def test_first_step_magnitude_near_lr(self):
        theta = np.zeros(4)
        opt = nn.Adam(theta, lr=0.05)
        opt.step(np.full(4, 123.0))
        # bias-corrected first step is lr * g / (|g| + eps), so about -lr
        assert np.allclose(theta, -0.05, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_matches_per_name_oracle_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        tensors = {
            f"l{i}.{k}": v.astype(dtype)
            for i in range(2)
            for k, v in nn.lstm_init(3 + i, 4, rng).items()
        }
        ref = oracles.Adam(tensors, lr=0.01)
        theta = flat(tensors)
        opt = nn.Adam(theta, lr=0.01)
        for _ in range(5):
            grads = {k: rng.normal(size=v.shape).astype(dtype) for k, v in tensors.items()}
            ref.step(grads)
            opt.step(flat(grads))
            assert theta.tobytes() == flat(tensors).tobytes()
            assert opt.m.tobytes() == flat(ref.m).tobytes()
            assert opt.v.tobytes() == flat(ref.v).tobytes()

    def test_step_allocates_less_than_one_vector(self):
        theta = np.zeros(1_000_000, np.float32)
        grad = np.full_like(theta, 0.5)
        opt = nn.Adam(theta, lr=0.01)
        opt.step(grad)
        tracemalloc.start()
        try:
            opt.step(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes


# (H, T, B) of every LSTM layer a training step hands to a StepHelper, that
# is with T * B * 4H at least nn.HELPER_MIN_WORK: T from windows of 1, 2 and
# 25 steps and halves of 15 + 16 and 16 + 16 steps, B from small to large
# batches. Below the gate a half can differ from the whole GEMM in its last
# bits (a width-30 input gradient did at T = 2, B = 14, hidden 64), so the
# gate keeps the split to sizes pinned here.
SPLIT_SIZES = [
    (H, T, B)
    for H in (16, 64)
    for T in (1, 2, 25, 31, 32)
    for B in (2, 14, 64, 512, 2048)
    if nn.HELPER_MIN_WORK <= T * B * 4 * H and T * B <= 16384
]


class TestTimeHalfSplits:
    """A StepHelper computes each layer's input projection and, above a
    network's first layer, its input gradient in two time halves. In
    float32, the halves' row blocks give the bytes of the whole GEMM, which
    the inline pass runs."""

    @pytest.mark.parametrize("H, T, B", SPLIT_SIZES)
    def test_halves_equal_the_whole_gemm(self, H, T, B):
        rng = np.random.default_rng([H, T, B])

        def f32(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        def whole_and_halves(fn, shape, *args):
            whole, halves = np.empty(shape, np.float32), np.empty(shape, np.float32)
            fn(*args, whole, 0, T)
            for lo, hi in nn._halves(T):
                fn(*args, halves, lo, hi)
            return whole.tobytes(), halves.tobytes()

        # the encoder's input, the decoder's at 2 and 25 free dims, an LSTM layer's
        for D in (5, 7, 30, H):
            whole, halves = whole_and_halves(
                nn._project, (T, B, 4 * H), f32(T, B, D), f32(D, 4 * H), f32(4 * H)
            )
            assert whole == halves, D
        whole, halves = whole_and_halves(
            nn._input_grad, (T, B, H), f32(T, B, 4 * H), f32(H, 4 * H).T
        )
        assert whole == halves

"""Minimal neural-net kernels: LSTM and linear layers with hand-written
backward passes, orthogonal initialization, and Adam.

The kernels compute in the dtype of their input: every buffer and constant
of `lstm_forward`, `lstm_backward` and `Adam` follows it, so float32 inputs
and weights give float32 passes, gradients and moments with no float64
upcast. Training and the no-grad passes of encoding and scoring run in
float32 (see `vae.COMPUTE_DTYPE`), and `vae` sums their losses in float64;
the gradient checks run the same kernels in float64.

Layer inputs and outputs are batch-first (B, T, D). Inside an LSTM layer the
work is time-major, so that each timestep is one contiguous (B, .) block:
the input projections of all T steps are one GEMM into a (T, B, 4H) gate
buffer, and the time loop adds only the recurrent GEMM and the elementwise
cell update. The buffer is activated in place, step by step, and is what the
layer caches as its gates. The cache also holds the time-major input and the
time-major h, c and tanh(c), so backward recomputes none of them; backward
writes each step's gate gradient into one (T, B, 4H) buffer and forms the
weight and input gradients from it after the loop, one GEMM each. The hidden
states a layer returns are a (B, T, H) view of its time-major h, which the
next layer reads without a copy.

A sigmoid is 0.5 + 0.5 * tanh(x / 2), branch-free; the LSTM activates all
four gates with one tanh per step this way.

Everything is deterministic given the RNG, which is what lets the pipeline
reproduce checkpoints byte-for-byte.
"""
from __future__ import annotations

import numpy as np

# Adam's moment decay rates and denominator epsilon (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def orthogonal(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """(Semi-)orthogonal matrix via QR of a Gaussian draw.

    rows >= cols gives orthonormal columns (W^T W = I); otherwise orthonormal
    rows. Square shapes are exactly orthogonal up to floating point.
    """
    rows, cols = shape
    transpose = rows < cols
    a = rng.standard_normal((cols, rows) if transpose else (rows, cols))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d  # sign fix makes the distribution Haar and the result unique
    return q.T.copy() if transpose else q


def lstm_init(input_dim: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One LSTM layer: per-gate orthogonal kernels, zero biases.

    Wx is (input_dim, 4*hidden), Wh (hidden, 4*hidden); gate order i, f, g, o.
    The four (hidden, hidden) blocks of Wh are the recurrent weights.
    """
    Wx = np.concatenate([orthogonal((input_dim, hidden), rng) for _ in range(4)], axis=1)
    Wh = np.concatenate([orthogonal((hidden, hidden), rng) for _ in range(4)], axis=1)
    b = np.zeros(4 * hidden)
    return {"Wx": Wx, "Wh": Wh, "b": b}


def linear_init(input_dim: int, out_dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {"W": orthogonal((input_dim, out_dim), rng), "b": np.zeros(out_dim)}


def lstm_forward(x: np.ndarray, p: dict[str, np.ndarray]):
    """Run one LSTM layer over (B, T, D); returns hidden states (B, T, H) and a cache."""
    B, T, D = x.shape
    H = p["Wh"].shape[0]
    # gate order i, f, g, o: sigmoid(a) = 0.5 + 0.5 * tanh(a / 2) on i, f and
    # o, tanh(a) on g, so every gate column is shift + scale * tanh(scale * a);
    # halving a column is exact, so the scaled weights give scale * a exactly
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H).astype(x.dtype)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], H).astype(x.dtype)
    Wh = p["Wh"] * scale
    xs = np.ascontiguousarray(x.transpose(1, 0, 2))  # no copy for another layer's h
    gates = (xs.reshape(T * B, D) @ (p["Wx"] * scale)).reshape(T, B, 4 * H)
    gates += p["b"] * scale
    h = np.empty((T, B, H), dtype=x.dtype)
    c = np.empty((T, B, H), dtype=x.dtype)
    tanh_c = np.empty((T, B, H), dtype=x.dtype)
    rec = np.empty((B, 4 * H), dtype=x.dtype)
    fc = np.empty((B, H), dtype=x.dtype)
    for t in range(T):
        a = gates[t]
        if t:  # h_{-1} is zero
            np.matmul(h[t - 1], Wh, out=rec)
            a += rec
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(a[:, :H], a[:, 2 * H : 3 * H], out=c[t])
        if t:
            np.multiply(a[:, H : 2 * H], c[t - 1], out=fc)
            c[t] += fc
        np.tanh(c[t], out=tanh_c[t])
        np.multiply(a[:, 3 * H :], tanh_c[t], out=h[t])
    return h.transpose(1, 0, 2), (xs, h, c, tanh_c, gates)


def lstm_backward(dh_out: np.ndarray, cache, p: dict[str, np.ndarray]):
    """Backprop through time for one layer.

    dh_out is the gradient wrt every hidden state (B, T, H). Returns the
    gradient wrt the layer input (B, T, D) plus parameter gradients.
    """
    xs, h, c, tanh_c, gates = cache
    T, B, H = h.shape
    WhT = p["Wh"].T
    # each gate's derivative wrt its pre-activation, multiplied in the loop by
    # the gradient reaching the gate
    da = gates * (1.0 - gates)
    da[:, :, 2 * H : 3 * H] = 1.0 - gates[:, :, 2 * H : 3 * H] ** 2
    dh_next = np.zeros((B, H), dtype=h.dtype)
    dc_next = np.zeros((B, H), dtype=h.dtype)
    for t in range(T - 1, -1, -1):
        a = gates[t]
        d = da[t]
        dh_t = dh_out[:, t] + dh_next
        dc = dh_t * a[:, 3 * H :] * (1.0 - tanh_c[t] ** 2)
        dc += dc_next
        d[:, :H] *= dc * a[:, 2 * H : 3 * H]
        if t:
            d[:, H : 2 * H] *= dc * c[t - 1]
        else:  # c_{-1} is zero
            d[:, H : 2 * H] = 0.0
        d[:, 2 * H : 3 * H] *= dc * a[:, :H]
        d[:, 3 * H :] *= dh_t * tanh_c[t]
        dc_next = dc * a[:, H : 2 * H]
        if t:  # h_{-1} is zero
            dh_next = d @ WhT
    flat = da.reshape(T * B, 4 * H)
    dWx = xs.reshape(T * B, -1).T @ flat
    dWh = h[:-1].reshape((T - 1) * B, H).T @ flat[B:]
    db = flat.sum(axis=0)
    dx = (flat @ p["Wx"].T).reshape(T, B, -1).transpose(1, 0, 2)
    return dx, {"Wx": dWx, "Wh": dWh, "b": db}


def linear_forward(x: np.ndarray, p: dict[str, np.ndarray]):
    return x @ p["W"] + p["b"], x


def linear_backward(dy: np.ndarray, cache, p: dict[str, np.ndarray]):
    x = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    dW = flat_x.T @ flat_dy
    db = flat_dy.sum(axis=0)
    dx = dy @ p["W"].T
    return dx, {"W": dW, "b": db}


class Adam:
    """Adam with the standard first/second moment estimates and bias correction,
    updating one flat parameter vector in place. A step keeps the textbook
    per-element operation order, so it matches a per-tensor update bit for
    bit, and puts its temporaries in two scratch vectors made once."""

    def __init__(self, params: np.ndarray, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        m, v, (a, b) = self.m, self.v, self._scratch
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
        v += np.multiply(a, grad, out=a)
        np.divide(v, b2t, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, b1t, out=b)
        b *= self.lr
        b /= a
        self.params -= b

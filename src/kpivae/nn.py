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
next layer reads without a copy; so does a layer whose input is the
batch-first view of any time-major array.

Per-step views. The time loops read each step's gate blocks, c, tanh(c) and
h through views that an `LstmBuffers` builds once with its arrays
(`gate_views` for a gate-shaped buffer alone), and activate the gates with
a full-shape (B, 4H) scale and shift from its `step_scratch`, so that no
step slices an array or broadcasts an operand. A caller that keeps its
buffers keeps their views too.

Buffer ownership. The caller owns every buffer a kernel writes: the
`LstmBuffers` `out` that `lstm_forward` fills, the gradient arrays `out`
{"Wx", "Wh", "b"}, the gate-gradient buffer `da` and the input-gradient
buffer `dx` that `lstm_backward` fills, and the gradient arrays `out`
{"W", "b"} that `linear_backward` fills. What a call returns are views of
them, valid until the caller hands the same buffers to another call. No
caller reads back a step scratch or a `da`, so one of each serves every
layer in turn. A layer's input gradient is the dh_out of the layer below,
so two `dx` buffers, taken in turn, serve every layer, and no layer writes
the one it reads. A pass whose caches no one reads shares more: `vae`'s
no-grad pass gives every layer of both networks one c, tanh(c), gates and
step scratch, and two h buffers taken in turn.

A sigmoid is 0.5 + 0.5 * tanh(x / 2), branch-free; the LSTM activates all
four gates with one tanh per step this way, from `gate_constants`: the
weights with each gate column scaled. The caller builds them once per set
of weights and passes each layer's in.

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


def _gate_affine(H: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    # gate order i, f, g, o: sigmoid(a) = 0.5 + 0.5 * tanh(a / 2) on i, f and
    # o, tanh(a) on g, so every gate column is shift + scale * tanh(scale * a);
    # halving a column is exact, so the scaled weights give scale * a exactly
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H).astype(dtype)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], H).astype(dtype)
    return scale, shift


def gate_constants(layers: list[dict[str, np.ndarray]], out=None) -> list[tuple]:
    """Per layer (Wx, Wh, b) in the layers' dtype: the layer's weights with
    every gate column scaled, so that one tanh per step activates all four
    gates; written into `out`, one {"Wx", "Wh", "b"} dict of arrays per
    layer, if given."""
    Wh = layers[0]["Wh"]
    scale, _ = _gate_affine(Wh.shape[0], Wh.dtype)
    out = out or [{} for _ in layers]
    return [
        tuple(np.multiply(p[k], scale, out=o.get(k)) for k in ("Wx", "Wh", "b"))
        for p, o in zip(layers, out)
    ]


def gate_views(a: np.ndarray) -> list[tuple]:
    """Per timestep of a time-major (T, B, 4H) gate array, its (B, 4H) step
    and that step's four (B, H) gate blocks i, f, g and o."""
    H = a.shape[-1] // 4
    return [(s, s[:, :H], s[:, H : 2 * H], s[:, 2 * H : 3 * H], s[:, 3 * H :]) for s in a]


def step_scratch(like: np.ndarray, B: int, H: int) -> tuple:
    """One step's scratch, `rec` (B, 4H) and `fc` (B, H), and the full-shape
    (B, 4H) `scale` and `shift` that activate the gates, in the array type
    and dtype of `like`."""
    widths = (4 * H, H, 4 * H, 4 * H)
    rec, fc, scale, shift = (np.empty((B, w), like.dtype).view(type(like)) for w in widths)
    scale[...], shift[...] = _gate_affine(H, like.dtype)
    return rec, fc, scale, shift


class LstmBuffers:
    """The arrays one `lstm_forward` call fills, and the per-step views its
    time loop reads, built once.

    h, c and tanh(c) are C-contiguous time-major (T, B, H) arrays and the
    gates a (T, B, 4H) one; `scratch` is a `step_scratch`. `steps[t]` is the
    gates' `gate_views` entry t, then c[t], tanh(c)[t] and h[t]."""

    def __init__(self, h, c, tanh_c, gates, scratch):
        self.h, self.gates = h, gates
        self.rec, self.fc, self.scale, self.shift = scratch
        self.gate_views = gate_views(gates)
        self.steps = list(zip(self.gate_views, c, tanh_c, h))


def lstm_forward(x: np.ndarray, p: dict[str, np.ndarray], out: LstmBuffers, consts):
    """Run the LSTM layer with weights p over (B, T, D); returns hidden states
    (B, T, H) and a cache, (time-major x, `out`). `out` is the `LstmBuffers`
    to fill, in the dtype of x, and `consts` p's `gate_constants` entry in
    that dtype. The pass reads the weights from `consts` only: `p` is read
    by perfbench's flop counter, which takes H from it."""
    Wx, Wh, b = consts
    xs = np.ascontiguousarray(x.transpose(1, 0, 2))  # no copy for another layer's h
    rec, fc, scale, shift = out.rec, out.fc, out.scale, out.shift
    # the input projections of all T steps plus the bias, one GEMM
    gates = out.gates.reshape(-1, out.gates.shape[-1])
    np.matmul(xs.reshape(-1, xs.shape[-1]), Wx, out=gates)
    gates += b
    h_prev = c_prev = None  # h_{-1} and c_{-1} are zero
    for (a, i, f, g, o), c, tanh_c, h in out.steps:
        if h_prev is not None:
            np.matmul(h_prev, Wh, out=rec)
            a += rec
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(i, g, out=c)
        if c_prev is not None:
            np.multiply(f, c_prev, out=fc)
            c += fc
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
        h_prev, c_prev = h, c
    return out.h.transpose(1, 0, 2), (xs, out)


def lstm_backward(dh_out: np.ndarray, cache, p: dict[str, np.ndarray], out, da, dx):
    """Backprop through time for one layer.

    dh_out is the gradient wrt every hidden state (B, T, H). Writes the
    parameter gradients into `out`, {"Wx", "Wh", "b"} arrays shaped like p,
    and the input gradient into `dx`, a C-contiguous time-major (T, B, D)
    buffer, or skips it if `dx` is False. `da` is a C-contiguous (T, B, 4H)
    buffer for the gate gradients and its `gate_views`. Returns the input
    gradient, a batch-first (B, T, D) view of `dx`, or None.
    """
    xs, buf = cache
    T, B, H = buf.h.shape
    WhT = p["Wh"].T
    da, da_views = da
    # each gate's derivative wrt its pre-activation, multiplied in the loop by
    # the gradient reaching the gate: g(1 - g) for the sigmoid gates i, f and
    # o, 1 - g^2 for the tanh gate g
    np.subtract(1.0, buf.gates, out=da)
    da *= buf.gates
    tanh_gate = da[..., 2 * H : 3 * H]
    np.square(buf.gates[..., 2 * H : 3 * H], out=tanh_gate)
    np.subtract(1.0, tanh_gate, out=tanh_gate)
    steps = buf.steps
    dhs = dh_out.transpose(1, 0, 2)
    dh_next = np.zeros((B, H), dtype=buf.h.dtype)
    dc_next = np.zeros((B, H), dtype=buf.h.dtype)
    for t in range(T - 1, -1, -1):
        (_, i, f, g, o), _, tanh_c, _ = steps[t]
        d, di, df, dg, do = da_views[t]
        dh_t = dhs[t] + dh_next
        dc = dh_t * o * (1.0 - tanh_c**2)
        dc += dc_next
        di *= dc * g
        if t:
            df *= dc * steps[t - 1][1]
        else:  # c_{-1} is zero
            df[...] = 0.0
        dg *= dc * i
        do *= dh_t * tanh_c
        dc_next = dc * f
        if t:  # h_{-1} is zero
            dh_next = d @ WhT
    flat = da.reshape(T * B, 4 * H)
    np.matmul(xs.reshape(T * B, -1).T, flat, out=out["Wx"])
    np.matmul(buf.h[:-1].reshape((T - 1) * B, H).T, flat[B:], out=out["Wh"])
    np.sum(flat, axis=0, out=out["b"])
    if dx is False:
        return None
    np.matmul(flat, p["Wx"].T, out=dx.reshape(T * B, -1))
    return dx.transpose(1, 0, 2)


def linear_forward(x: np.ndarray, p: dict[str, np.ndarray]):
    return x @ p["W"] + p["b"], x


def linear_backward(dy: np.ndarray, cache, p: dict[str, np.ndarray], out):
    """Writes dW and db into `out`, {"W", "b"} arrays shaped like p, and
    returns the input gradient."""
    x = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    np.matmul(flat_x.T, flat_dy, out=out["W"])
    np.sum(flat_dy, axis=0, out=out["b"])
    return dy @ p["W"].T


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

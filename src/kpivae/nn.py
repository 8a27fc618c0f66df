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

Buffer ownership. By default every call allocates its buffers, and what it
returns is its own. A caller that passes buffers owns them instead: the
cache, hidden states and gradients the call returns are views of those
buffers, and stay valid only until the caller hands the same buffers to
another call. `lstm_forward(x, p, out)` fills `out = (h, c, tanh_c, gates,
rec, fc)`, where `rec` and `fc` are one step's scratch, which no caller
reads back; `lstm_backward(dh_out, cache, p, out, da)` fills the gradient
arrays `out` {"Wx", "Wh", "b"} and uses `da` for its gate gradients, which
no caller reads back either. So one `da`, and one scratch pair, can serve
every layer in turn. A `BackwardHelper` owns, for its whole pass, the `da`
it is given and, from the end of its first layer's loop, that layer's
gates: the layers' gate gradients take turns in the two, because its
thread prepares each layer's while the layer before it still uses the
other, so that cache holds gate gradients, not gates, once the pass is
done. A pass that keeps no cache can go further: `vae`'s no-grad pass gives
every layer of both networks one buffer set: two h buffers taken in turn,
so that no layer writes the buffer it reads, and one c, tanh(c), gates and
scratch pair. The GEMMs, sums and ufuncs are the same whoever owns the
buffers, so all give the same bytes.

A sigmoid is 0.5 + 0.5 * tanh(x / 2), branch-free; the LSTM activates all
four gates with one tanh per step this way, from `gate_constants`: the
weights with each gate column scaled, and the scale and shift. A call
builds them from its layer; a caller that runs the same weights many times,
as the no-grad pass does, builds them once and passes each layer's in.

Everything is deterministic given the RNG, which is what lets the pipeline
reproduce checkpoints byte-for-byte.
"""
from __future__ import annotations

import numpy as np

# Adam's moment decay rates and denominator epsilon (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the gate-gradient elements, T * B * 4H, of each LSTM layer from which a
# training step's backward passes take a `BackwardHelper`: near and below it
# the thread hand-offs cost as much as the overlap saves. 2**17 is T * B =
# 512 rows at hidden 64; on a 2-core VM the helper broke even at 320 rows,
# and the margin is for machines where waking a thread costs more
HELPER_MIN_WORK = 2**17


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


def gate_constants(layers: list[dict[str, np.ndarray]], dtype) -> list[tuple]:
    """Per layer (Wx, Wh, b, scale, shift) in `dtype`: the layer's weights with
    every gate column scaled, and the scale and shift that activate its gates.
    The layers share one hidden width, so they share one scale and shift."""
    H = layers[0]["Wh"].shape[0]
    # gate order i, f, g, o: sigmoid(a) = 0.5 + 0.5 * tanh(a / 2) on i, f and
    # o, tanh(a) on g, so every gate column is shift + scale * tanh(scale * a);
    # halving a column is exact, so the scaled weights give scale * a exactly
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H).astype(dtype)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], H).astype(dtype)
    return [(p["Wx"] * scale, p["Wh"] * scale, p["b"] * scale, scale, shift) for p in layers]


def lstm_forward(x: np.ndarray, p: dict[str, np.ndarray], out=None, consts=None):
    """Run one LSTM layer over (B, T, D); returns hidden states (B, T, H) and a
    cache. `out`, if given, is the (h, c, tanh_c, gates, rec, fc) buffers to
    fill, in the dtype of x: C-contiguous, time-major (T, B, H) and (T, B, 4H),
    then one step's (B, 4H) and (B, H) scratch. `consts`, if given, is the
    layer's `gate_constants` in that dtype."""
    B, T, D = x.shape
    H = p["Wh"].shape[0]
    Wx, Wh, b, scale, shift = consts or gate_constants([p], x.dtype)[0]
    xs = np.ascontiguousarray(x.transpose(1, 0, 2))  # no copy for another layer's h
    if out is None:
        widths = (H, H, H, 4 * H)
        out = [np.empty((T, B, w), dtype=x.dtype) for w in widths]
        out += [np.empty((B, w), dtype=x.dtype) for w in (4 * H, H)]
    h, c, tanh_c, gates, rec, fc = out
    np.matmul(xs.reshape(T * B, D), Wx, out=gates.reshape(T * B, 4 * H))
    gates += b
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


def _gate_derivatives(gates: np.ndarray, da: np.ndarray) -> None:
    """Each gate's derivative wrt its pre-activation, into `da`: g(1 - g) for
    the sigmoid gates i, f and o, 1 - g^2 for the tanh gate g."""
    H = gates.shape[-1] // 4
    np.subtract(1.0, gates, out=da)
    da *= gates
    dg = da[..., 2 * H : 3 * H]
    np.square(gates[..., 2 * H : 3 * H], out=dg)
    np.subtract(1.0, dg, out=dg)


def lstm_backward(
    dh_out: np.ndarray, cache, p: dict[str, np.ndarray], out=None, da=None, ready=False, defer=None
):
    """Backprop through time for one layer.

    dh_out is the gradient wrt every hidden state (B, T, H). Returns the
    gradient wrt the layer input (B, T, D) plus parameter gradients, written
    into `out` ({"Wx", "Wh", "b"} arrays shaped like p) if given. `da`, if
    given, is a C-contiguous (T, B, 4H) buffer for the gate gradients; with
    `ready` it already holds the layer's `_gate_derivatives`. `defer`, if
    given, receives the weight-gradient GEMMs as a function of no arguments
    once the time loop is done, and runs them, or has them run, before `out`
    is read; what it returns is returned in place of the gradients.
    """
    xs, h, c, tanh_c, gates = cache
    T, B, H = h.shape
    WhT = p["Wh"].T
    # each gate's derivative wrt its pre-activation, multiplied in the loop by
    # the gradient reaching the gate
    if da is None:
        da = np.empty_like(gates)
    if not ready:
        _gate_derivatives(gates, da)
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
    out = out or {}

    def weights():
        return {
            "Wx": np.matmul(xs.reshape(T * B, -1).T, flat, out=out.get("Wx")),
            "Wh": np.matmul(h[:-1].reshape((T - 1) * B, H).T, flat[B:], out=out.get("Wh")),
            "b": np.sum(flat, axis=0, out=out.get("b")),
        }

    grads = weights() if defer is None else defer(weights)
    dx = (flat @ p["Wx"].T).reshape(T, B, -1).transpose(1, 0, 2)
    return dx, grads


class BackwardHelper:
    """Runs, on `pool`, a one-worker executor, the half of consecutive
    `lstm_backward` passes that the next layer does not wait for.

    A layer's pass is its gate derivatives, its time loop, its weight-gradient
    GEMMs and dx, and only the loop and dx feed the next layer. So the pool
    prepares each layer's derivatives while the layer before it runs its
    loop, and runs each layer's GEMMs while the caller computes dx and goes on
    to the next layer. `caches` are the layer caches in the order of their
    passes, and `backward` runs the next one.

    The layers' gate gradients take turns in two buffers: `da`, and the first
    layer's gates, which no task reads once that layer's loop is done. The
    second layer's derivatives are queued then; every later layer's are
    queued when the layer before it starts, into the buffer that the layer
    before that one is done with. The pool runs its tasks in the order they
    were queued, so no task writes a buffer that an earlier one still reads.
    `join` waits for every task and raises the first failed one's error. The
    GEMMs and ufuncs are the ones `lstm_backward` runs inline, so every byte
    is the same.
    """

    def __init__(self, pool, caches, da):
        self._pool = pool
        self._caches = caches
        self._da = (da, caches[0][4])
        self._ready = []
        self._tasks = []
        self._prepare(0)

    def _prepare(self, k: int) -> None:
        if k < len(self._caches):
            gates = self._caches[k][4]
            self._ready.append(self._pool.submit(_gate_derivatives, gates, self._da[k % 2]))

    def backward(self, dh_out: np.ndarray, p: dict[str, np.ndarray], out) -> np.ndarray:
        """The next layer's `lstm_backward` into `out`; returns its dx."""
        k = len(self._tasks)  # one task per layer run so far
        self._ready[k].result()
        if k:
            self._prepare(k + 1)

        def defer(weights):
            if not k:  # the first layer's gates are free now
                self._prepare(1)
            self._tasks.append(self._pool.submit(weights))

        return lstm_backward(dh_out, self._caches[k], p, out, self._da[k % 2], True, defer)[0]

    def join(self) -> None:
        for task in self._tasks:
            task.result()


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

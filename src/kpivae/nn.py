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
`LstmBuffers` `out` that `lstm_forward` fills, and the gradient arrays `out`
{"Wx", "Wh", "b"}, the gate-gradient buffer `da` and the input-gradient
buffer `dx` that `lstm_backward` fills. What a call returns are views of
them, valid until the caller hands the same buffers to another call. No
caller reads back a step scratch or a `da`, so one of each serves every
layer in turn. A layer's input gradient is the dh_out of the layer below,
so two `dx` buffers, taken in turn, serve every layer, and no layer writes
the one it reads. A `StepHelper` takes the gate gradients in turn in the
`da` it is given and the first layer's gates. A pass that keeps no cache
shares more: `vae`'s no-grad pass gives every layer of both networks one c,
tanh(c), gates and step scratch, and two h buffers taken in turn.

Two threads. A training step with enough work per layer (`HELPER_MIN_WORK`)
gives each layer's call a `share` from a `StepHelper`, which runs the
layer's whole-sequence GEMMs on a second thread while the caller's thread
runs the time loops; `StepHelper` describes the schedule. No byte depends
on the helper.

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

# the gate-gradient elements, T * B * 4H, of each LSTM layer from which a
# training step takes a `StepHelper`: near and below it the thread hand-offs
# cost as much as the overlap saves. 2**17 is T * B = 512 rows at hidden 64;
# on a 2-core VM, B = 64 and one BLAS thread, a step with the helper took
# 1.02x the inline time at 256 rows (T = 4) and 0.97x at 320 (T = 5), and the
# margin is for machines where waking a thread costs more. The gate also
# keeps the time-half splits to sizes where a test pins them: at a few dozen
# rows an input-gradient GEMM's halves can differ from the whole GEMM in
# their last bits (at T * B = 28 and hidden 64, for one)
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


def _gate_affine(H: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    # gate order i, f, g, o: sigmoid(a) = 0.5 + 0.5 * tanh(a / 2) on i, f and
    # o, tanh(a) on g, so every gate column is shift + scale * tanh(scale * a);
    # halving a column is exact, so the scaled weights give scale * a exactly
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H).astype(dtype)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], H).astype(dtype)
    return scale, shift


def gate_constants(layers: list[dict[str, np.ndarray]], dtype, out=None) -> list[tuple]:
    """Per layer (Wx, Wh, b) in `dtype`: the layer's weights with every gate
    column scaled, so that one tanh per step activates all four gates;
    written into `out`, one {"Wx", "Wh", "b"} dict of arrays per layer, if
    given."""
    scale, _ = _gate_affine(layers[0]["Wh"].shape[0], dtype)
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
    gates' `gate_views` entry t, then c[t], tanh(c)[t] and h[t]. `views`, if
    given, is the gates' `gate_views`, for buffer sets that share their
    gates."""

    def __init__(self, h, c, tanh_c, gates, scratch, views=None):
        self.h, self.gates = h, gates
        self.rec, self.fc, self.scale, self.shift = scratch
        self.gate_views = gate_views(gates) if views is None else views
        self.steps = list(zip(self.gate_views, c, tanh_c, h))


def _halves(T: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # the two time halves a `StepHelper` splits a layer's GEMMs into
    return (0, T // 2), (T // 2, T)


def _project(xs, Wx, b, gates, lo: int, hi: int) -> None:
    """Steps [lo, hi) of a layer's input projection plus bias: the time-major
    input xs (T, B, D) times the scaled Wx, into the gates (T, B, 4H)."""
    rows = gates[lo:hi].reshape(-1, gates.shape[-1])
    np.matmul(xs[lo:hi].reshape(-1, xs.shape[-1]), Wx, out=rows)
    rows += b


def lstm_forward(x: np.ndarray, p: dict[str, np.ndarray], out: LstmBuffers, consts, share=None):
    """Run the LSTM layer with weights p over (B, T, D); returns hidden states
    (B, T, H) and a cache, (time-major x, `out`). `out` is the `LstmBuffers`
    to fill, in the dtype of x, and `consts` p's `gate_constants` entry in
    that dtype. `share`, if given, is the layer's `StepHelper.forward`
    hand-off: it computes the input projection, in two time halves, and the
    loop waits for each half before it reads it and tells it when it has
    written each half of h."""
    T = x.shape[1]
    Wx, Wh, b = consts
    xs = np.ascontiguousarray(x.transpose(1, 0, 2))  # no copy for another layer's h
    rec, fc, scale, shift = out.rec, out.fc, out.scale, out.shift
    if share is None:
        _project(xs, Wx, b, out.gates, 0, T)
    h_prev = c_prev = None  # h_{-1} and c_{-1} are zero
    for half, (lo, hi) in enumerate(_halves(T)):
        if share is not None:
            share.wait(half, xs)
        for (a, i, f, g, o), c, tanh_c, h in out.steps[lo:hi]:
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
        if share is not None:
            share.passed(half, out.h)
    return out.h.transpose(1, 0, 2), (xs, out)


def _gate_derivatives(gates: np.ndarray, da: np.ndarray) -> None:
    """Each gate's derivative wrt its pre-activation, into `da`: g(1 - g) for
    the sigmoid gates i, f and o, 1 - g^2 for the tanh gate g."""
    H = gates.shape[-1] // 4
    np.subtract(1.0, gates, out=da)
    da *= gates
    dg = da[..., 2 * H : 3 * H]
    np.square(gates[..., 2 * H : 3 * H], out=dg)
    np.subtract(1.0, dg, out=dg)


def _weight_grads(xs, h, da, out) -> None:
    """dWx, dWh and db from the time-major input, h and gate gradients, into
    `out`'s arrays."""
    T, B, H = h.shape
    flat = da.reshape(T * B, 4 * H)
    np.matmul(xs.reshape(T * B, -1).T, flat, out=out["Wx"])
    np.matmul(h[:-1].reshape((T - 1) * B, H).T, flat[B:], out=out["Wh"])
    np.sum(flat, axis=0, out=out["b"])


def _input_grad(da, WxT, dx, lo: int, hi: int) -> None:
    """Steps [lo, hi) of a layer's input gradient: the gate gradients
    (T, B, 4H) times Wx^T, into the time-major dx (T, B, D)."""
    np.matmul(da[lo:hi].reshape(-1, da.shape[-1]), WxT, out=dx[lo:hi].reshape(-1, dx.shape[-1]))


def lstm_backward(dh_out: np.ndarray, cache, p: dict[str, np.ndarray], out, da, dx, share=None):
    """Backprop through time for one layer.

    dh_out is the gradient wrt every hidden state (B, T, H). Writes the
    parameter gradients into `out`, {"Wx", "Wh", "b"} arrays shaped like p,
    and the input gradient into `dx`, a C-contiguous time-major (T, B, D)
    buffer, or skips it if `dx` is False. `da` is a C-contiguous (T, B, 4H)
    buffer for the gate gradients and its `gate_views`. Returns the input
    gradient, a batch-first (B, T, D) view of `dx` or None, and `out`.
    `share`, if given, is a `StepHelper` in its backward pass: the gate
    derivatives are in `da` already, the loop waits for each half of dh_out
    before it reads it and tells the helper when it has written each half
    of the gate gradients, and the helper forms dx and the weight gradients
    from them.
    """
    xs, buf = cache
    T, B, H = buf.h.shape
    WhT = p["Wh"].T
    # each gate's derivative wrt its pre-activation, multiplied in the loop by
    # the gradient reaching the gate
    if share is None:
        _gate_derivatives(buf.gates, da[0])
    da, da_views = da
    steps = buf.steps
    dhs = dh_out.transpose(1, 0, 2)
    dh_next = np.zeros((B, H), dtype=buf.h.dtype)
    dc_next = np.zeros((B, H), dtype=buf.h.dtype)
    early, late = _halves(T)
    for half, (lo, hi) in ((1, late), (0, early)):
        if share is not None:
            share.wait(half)
        for t in range(hi - 1, lo - 1, -1):
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
        if share is not None:
            share.passed(half)
    if share is None:
        _weight_grads(xs, buf.h, da, out)
        if dx is not False:
            _input_grad(da, p["Wx"].T, dx, 0, T)
    return None if dx is False else dx.transpose(1, 0, 2), out


class _Projection:
    """One layer's input projection on a `StepHelper`: the tasks of its two
    time halves, and the next layer's projection, which this layer's loop
    queues. A network's first layer queues its own second half and computes
    its first half itself."""

    def __init__(self, helper: StepHelper, Wx, b, gates, first: bool):
        self.helper, self.Wx, self.b, self.gates, self.first = helper, Wx, b, gates, first
        self.halves = [None, None]
        self.next = None

    def wait(self, half: int, xs: np.ndarray) -> None:
        """Before the loop reads this half of the gates."""
        if self.first and not half:
            early, late = _halves(len(xs))
            self.halves[1] = self.helper.submit(_project, xs, self.Wx, self.b, self.gates, *late)
            _project(xs, self.Wx, self.b, self.gates, *early)
        if self.halves[half] is not None:
            self.halves[half].result()

    def passed(self, half: int, h: np.ndarray) -> None:
        """Once the loop has written this half of h."""
        nxt = self.next
        if nxt is not None:
            lo, hi = _halves(len(h))[half]
            nxt.halves[half] = self.helper.submit(_project, h, nxt.Wx, nxt.b, nxt.gates, lo, hi)


class StepHelper:
    """Runs, on `pool`, a one-worker executor, the whole-sequence GEMMs of one
    training step's LSTM layers in two time halves, [0, T//2) and [T//2, T),
    while the caller's thread runs the time loops.

    Forward: `forward` gives one network's layers their `lstm_forward`
    hand-offs. The helper computes each layer's input projection plus bias,
    the first half queued when the layer below has passed T//2 in its loop,
    the second when that loop ends; a network's first layer computes its
    first half itself.

    Backward: `start_backward` takes the layer caches in the order of their
    passes, and `backward` runs the next one. The helper prepares each
    layer's gate derivatives while the layer before it runs its loop, and
    computes the layer's input gradient: the late half, which the next layer
    reads first, once the loop has passed T//2, then the early half when the
    loop ends, ahead of the layer's weight-gradient GEMMs. A network's first
    layer has no input gradient to split: the encoder's is not needed, and
    the decoder's, 5 + free dims wide, is one GEMM on the caller's thread,
    because the row blocks of a narrow GEMM can differ from the whole one in
    their last bits. Each layer waits for a half just before its loop reads
    it.

    The layers' gate gradients take turns in two buffers: `da`, and the first
    layer's gates, which no task reads once that layer's loop is done. The
    second layer's derivatives are queued then; every later layer's are
    queued when the layer before it starts, into the buffer that the layer
    before that one is done with. The pool runs its tasks in the order they
    were queued, so no task writes a buffer that an earlier one still reads.
    `join` waits for every task and raises the first failed one's error.
    Every task is a GEMM or ufunc that the inline pass runs too: the same one,
    or a time-half row block of it, which on OpenBLAS gives the whole GEMM's
    bytes at the sizes `HELPER_MIN_WORK` lets through (a test pins them), so
    every byte is the same.
    """

    def __init__(self, pool):
        self._pool = pool
        self._tasks = []

    def submit(self, fn, *args):
        task = self._pool.submit(fn, *args)
        self._tasks.append(task)
        return task

    def forward(self, layers) -> list[_Projection]:
        """The `share` of each of one network's layers, in order; `layers`
        holds each one's scaled Wx and b, from `gate_constants`, and its
        gate buffer."""
        shares = [_Projection(self, Wx, b, gates, not i) for i, (Wx, b, gates) in enumerate(layers)]
        for share, nxt in zip(shares, shares[1:]):
            share.next = nxt
        return shares

    def start_backward(self, caches, da) -> None:
        """`caches` are the layer caches in the order of their backward
        passes; `da` is a (T, B, 4H) buffer and its `gate_views`."""
        self._caches = caches
        first = caches[0][1]
        self._da = (da, (first.gates, first.gate_views))
        self._ready = []
        self._k = -1  # the layer in its pass
        self._dx_halves = [None, None]
        self._prepare(0)

    def _prepare(self, k: int) -> None:
        if k < len(self._caches):
            gates = self._caches[k][1].gates
            self._ready.append(self.submit(_gate_derivatives, gates, self._da[k % 2][0]))

    def backward(self, dh_out: np.ndarray, p: dict[str, np.ndarray], out, dx, split: bool):
        """The next layer's `lstm_backward` into `out`; returns its input
        gradient, a batch-first view of the time-major buffer `dx`, whose
        halves the helper computes if `split`, or None if `dx` is False."""
        self._k = k = self._k + 1
        self._ready[k].result()
        if k:
            self._prepare(k + 1)
        self._p, self._out, self._dx, self._split = p, out, dx, split
        self._waits, self._dx_halves = self._dx_halves, [None, None]
        return lstm_backward(dh_out, self._caches[k], p, out, self._da[k % 2], dx, share=self)[0]

    def wait(self, half: int) -> None:
        """Before the loop reads this half of dh_out."""
        if self._waits[half] is not None:
            self._waits[half].result()

    def passed(self, half: int) -> None:
        """Once the loop has written this half of the gate gradients."""
        da, WxT, dx = self._da[self._k % 2][0], self._p["Wx"].T, self._dx
        if not half and not self._k:  # the first layer's gates are free now
            self._prepare(1)
        if self._split:
            lo, hi = _halves(len(da))[half]
            self._dx_halves[half] = self.submit(_input_grad, da, WxT, dx, lo, hi)
        if not half:
            xs, buf = self._caches[self._k]
            self.submit(_weight_grads, xs, buf.h, da, self._out)
            if dx is not False and not self._split:
                _input_grad(da, WxT, dx, 0, len(da))

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

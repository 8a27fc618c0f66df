"""Concept-conditioned variational autoencoder over KPI windows.

Encoder and decoder are stacks of three LSTM layers with a linear head each.
The encoder emits a per-timestep Gaussian (mu, logvar) over 30 latent
dimensions; the first five carry per-KPI conceptual priors whose means come
from the cluster centroids, the remaining 25 use a standard normal prior.
Training minimizes KL + recon_weight * (-log-likelihood); reported losses are
always the unweighted kl - loglik.

The parameters are one flat vector holding the tensors `_tensor_shapes`
describes in sorted-name order, the order of the checkpoint body; the
gradient is a vector in the same layout, so a copy, cast, Adam update or
checkpoint read or write is one array operation.

Gradients are hand-written reverse mode. Every pass runs the encoder and
decoder in COMPUTE_DTYPE (float32): training keeps its weights, gradients and
Adam moments in it, and the no-grad passes of `encode_windows` and `detect`
cast the float64 checkpoint to it. The KL and log-likelihood sums, the sample
mean and everything downstream of them are float64, and so is the checkpoint:
training draws its initial parameters in float64 and upcasts the best ones,
exactly, on return. The kernels follow the dtype of their parameters, so the
gradient checks run the training pass, on a `_Workspace` of its own, in
float64 against central finite differences.

The no-grad passes (`batch_components`, behind `detect` and the validation
loss, and `encode_windows`, behind the latent stats and `export-latent`) run
one `_nograd` forward per batch. It builds every layer's gate constants
once, and every layer of both networks writes one shared buffer set, where
training keeps one cache per layer in its `_Workspace`. The S decoder
samples of a batch go into one (S, B, T, 5) array, which takes one sigmoid
and one finite check. Both give the bytes of the training pass's `_stack`.
`map_chunks` runs every no-grad pass BATCH_WINDOWS windows at a time: on up
to four threads in `detect`, on one in `encode_windows` and the validation
loss. Training runs on the caller's thread alone.

Every time loop, in training and in the no-grad passes, reads per-step
views built once per buffer set: per batch size in `_Workspace`, per pass
in `_nograd`.
"""
from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .concepts import ConceptModel
from .data import N_KPIS, Windows, read_artifact, write_artifact
from .errors import (
    ConfigError,
    NonFiniteError,
    ParseError,
    TrainingDivergedError,
    ValidationError,
)
from .nn import (
    Adam,
    LstmBuffers,
    gate_constants,
    gate_views,
    linear_backward,
    linear_forward,
    linear_init,
    lstm_backward,
    lstm_forward,
    lstm_init,
    sigmoid,
    step_scratch,
)

LOG_2PI = float(np.log(2.0 * np.pi))

# windows per forward pass; a tuning constant, except that a batch of one
# window takes BLAS's matrix-vector path, which can move its outputs' last bits
BATCH_WINDOWS = 256

# dtype of the encoder and decoder in training, encode_windows and detect;
# unlike BATCH_WINDOWS it is part of the output
COMPUTE_DTYPE = np.float32

CHECKPOINT_TAG = "kpivae-ckpt-v4"
# the keys of each epoch's history entry, in the column order of `train --out-history`
HISTORY_HEADER = ["epoch", "train_loss", "train_kl", "train_loglik", "val_loss"]

# prior_std**2 must be a normal, finite float32, where the training and
# scoring passes divide by it
PRIOR_STD_MIN = math.sqrt(float(np.finfo(np.float32).tiny))
PRIOR_STD_MAX = math.sqrt(float(np.finfo(np.float32).max))
# Adam scales its float32 step by the learning rate
LEARNING_RATE_MAX = float(np.finfo(np.float32).max)
# the clip of every logvar the encoder and decoder emit
LOGVAR_LO = -8.0
LOGVAR_HI = 8.0


@dataclass
class LatentConfig:
    """The latent dims: one concept dim per KPI, then `free_dims` free ones."""

    free_dims: int = 25
    prior_std: float = 1.0

    @property
    def total(self) -> int:
        return N_KPIS + self.free_dims

    def validate(self) -> None:
        if self.free_dims < 0:
            raise ConfigError("free_dims must be >= 0")
        if isinstance(self.prior_std, bool) or not isinstance(self.prior_std, numbers.Real):
            raise ConfigError(f"prior_std must be a number, not {type(self.prior_std).__name__}")
        # compared, not squared, so that a huge value cannot overflow here
        if not PRIOR_STD_MIN <= self.prior_std <= PRIOR_STD_MAX:
            raise ConfigError(
                f"prior_std must be in [{PRIOR_STD_MIN:.4g}, {PRIOR_STD_MAX:.4g}], "
                "so that its square is a normal float32"
            )


@dataclass
class ArchConfig:
    """Encoder and decoder size; both read and write the N_KPIS KPIs."""

    hidden: int = 64
    layers: int = 3

    def validate(self) -> None:
        if self.hidden < 1 or self.layers < 1:
            raise ConfigError("hidden and layers must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    recon_weight: float = 10.0
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def validate(self) -> None:
        if not 0 < self.learning_rate <= LEARNING_RATE_MAX:
            raise ConfigError(f"learning_rate must be in (0, {LEARNING_RATE_MAX:.4g}], a float32")
        if not self.recon_weight >= 0:
            raise ConfigError(f"recon_weight must be >= 0, got {self.recon_weight}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class VaeParams:
    """`tensors` ("enc0.Wx" -> array) and `layers` ("enc0" -> {"Wx", "Wh",
    "b"}, "enc_head" -> {"W", "b"}) are views of `flat`, built once; to
    replace `flat`, build a new VaeParams."""

    arch: ArchConfig
    latent: LatentConfig
    flat: np.ndarray

    def __post_init__(self):
        self.tensors, self.layers, start = {}, {}, 0
        for name, shape in sorted(_tensor_shapes(self.arch, self.latent).items()):
            stop = start + math.prod(shape)
            self.tensors[name] = self.flat[start:stop].reshape(shape)
            layer, key = name.split(".")
            self.layers.setdefault(layer, {})[key] = self.tensors[name]
            start = stop

    def in_compute_dtype(self) -> VaeParams:
        """A copy with `flat` cast to COMPUTE_DTYPE, read when called."""
        return replace(self, flat=self.flat.astype(COMPUTE_DTYPE))


def prior_table(model: ConceptModel, latent: LatentConfig) -> np.ndarray:
    """(k, total) prior means: each cluster's concept-dim means, then zeros.
    A `ConceptModel` a caller builds can hold a centroid outside [0, 1], so
    the concept-dim means are checked to be finite and in [-1, 1]."""
    means = model.prior_means
    # nan slips past the range check: nan < -1 and nan > 1 are both False
    if not np.isfinite(means).all():
        raise ValidationError("prior means must be finite")
    if means.size and (means.min() < -1.0 - 1e-12 or means.max() > 1.0 + 1e-12):
        raise ValidationError("concept-dim prior means must lie in [-1, 1]")
    table = np.zeros((model.k, latent.total))
    table[:, :N_KPIS] = means
    return table


def window_clusters(windows: Windows, assignment: dict[str, int]) -> np.ndarray:
    """Cluster id of each window's element; every element must be assigned."""
    present = [windows.elements[e] for e in np.unique(windows.element).tolist()]
    missing = [e for e in present if e not in assignment]
    if missing:
        raise ValidationError("elements without a cluster assignment: " + ", ".join(missing))
    return np.array([assignment.get(e, -1) for e in windows.elements], dtype=int)[windows.element]


def _nets(latent: LatentConfig):
    # (name, input width, output mean width) of the encoder and the decoder
    return (("enc", N_KPIS, latent.total), ("dec", latent.total, N_KPIS))


def _tensor_shapes(arch: ArchConfig, latent: LatentConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor init_params makes, without drawing any."""
    H = arch.hidden
    shapes = {}
    for net, dim, out in _nets(latent):
        for i in range(arch.layers):
            shapes[f"{net}{i}.Wx"] = (dim if i == 0 else H, 4 * H)
            shapes[f"{net}{i}.Wh"] = (H, 4 * H)
            shapes[f"{net}{i}.b"] = (4 * H,)
        shapes[f"{net}_head.W"] = (H, 2 * out)
        shapes[f"{net}_head.b"] = (2 * out,)
    return shapes


def _param_count(arch: ArchConfig, latent: LatentConfig) -> int:
    """Size of the `_tensor_shapes` layout, counted without building it, so
    that a huge declared size costs nothing."""
    H, L = arch.hidden, arch.layers
    # per net: Wx of layer 0 and the rest, every Wh and b, then the head
    return sum(
        (dim + (L - 1) * H) * 4 * H + L * (H + 1) * 4 * H + (H + 1) * 2 * out
        for _, dim, out in _nets(latent)
    )


def init_params(
    arch: ArchConfig, latent: LatentConfig, seed: int | np.random.SeedSequence = 0
) -> VaeParams:
    """Fresh parameters: orthogonal kernels (QR of Gaussians), zero biases,
    drawn from `default_rng(seed)`."""
    arch.validate()
    latent.validate()
    rng = np.random.default_rng(seed)
    count = _param_count(arch, latent)
    try:
        flat = np.empty(count)
    except ValueError:  # numpy's error for a size beyond the address space
        raise MemoryError(f"{count:,} parameters do not fit in the address space") from None
    params = VaeParams(arch=arch, latent=latent, flat=flat)
    for net, dim, out in _nets(latent):
        for i in range(arch.layers):
            for k, v in lstm_init(dim if i == 0 else arch.hidden, arch.hidden, rng).items():
                params.layers[f"{net}{i}"][k][...] = v
        for k, v in linear_init(arch.hidden, 2 * out, rng).items():
            params.layers[f"{net}_head"][k][...] = v
    return params


def _check_finite(what: str, mean: np.ndarray, logvar: np.ndarray) -> None:
    """mean and logvar are (..., T, D); the error names the first timestep
    that is non-finite in any window or sample."""
    if np.isfinite(mean).all() and np.isfinite(logvar).all():
        return
    ok = np.isfinite(mean).all(axis=-1) & np.isfinite(logvar).all(axis=-1)
    bad = ~ok.reshape(-1, ok.shape[-1]).all(axis=0)
    raise NonFiniteError(f"{what} produced non-finite values at timestep {int(np.argmax(bad))}")


def _stack(params: VaeParams, net: str, x: np.ndarray, bufs, consts):
    """One network ("enc" or "dec"): LSTM layers, then a linear head split into
    a mean half and a clipped logvar half. Returns (mean, logvar, cache); the
    cache carries the layer caches, the head cache and the clipped logvar.
    `bufs` is (time-major input, one `LstmBuffers` per layer): a
    `_Workspace`'s or `_nograd`'s, whose views the layer caches are.
    `consts` maps each layer to its `gate_constants`. x and the outputs are
    batch-first and the layers time-major: this is where the layout changes."""
    xs, outs = bufs
    np.copyto(xs, x.transpose(1, 0, 2))  # casts x to the dtype of the buffers
    h, caches = xs, []
    for i, out in enumerate(outs):
        h, cache = lstm_forward(h, consts[f"{net}{i}"], out)
        caches.append(cache)
    raw, head_cache = linear_forward(h.transpose(1, 0, 2), params.layers[f"{net}_head"])
    half = raw.shape[-1] // 2
    lv = np.clip(raw[..., half:], LOGVAR_LO, LOGVAR_HI)
    return raw[..., :half], lv, (caches, head_cache, lv)


def _layer_constants(params: VaeParams, nets: tuple[str, ...], out=None) -> dict[str, tuple]:
    """Each LSTM layer of `nets` -> its `gate_constants`, in the dtype of
    params; written into the layer views `out` of a params-shaped vector, if
    given."""
    names = [f"{net}{i}" for net in nets for i in range(params.arch.layers)]
    layers, dest = [params.layers[n] for n in names], out and [out[n] for n in names]
    return dict(zip(names, gate_constants(layers, dest)))


def _nograd(params: VaeParams, nets: tuple[str, ...], B: int, T: int):
    """The no-grad forward of B windows of T steps: `run(net, x)` returns
    `_stack`'s mean and clipped logvar of one of `nets`.

    The gate constants of their layers are built here, once. Every layer of
    the networks writes one `LstmBuffers` made here, with its per-step
    views: one h, c, tanh(c), gates and `step_scratch`. A layer reads the h
    of the layer before it only in its projection GEMM, before its time
    loop writes h. A `run` overwrites the buffers of the one before, but not
    the arrays it returned; the buffers are freed with `run`."""
    dtype, H, L = params.flat.dtype, params.arch.hidden, params.arch.layers
    consts = _layer_constants(params, nets)
    h, c, tanh_c, gates = (np.empty((T, B, w), dtype) for w in (H, H, H, 4 * H))
    outs = [LstmBuffers(h, c, tanh_c, gates, step_scratch(params.flat, B, H))] * L

    def run(net: str, x: np.ndarray):
        xs = np.empty((T, B, x.shape[-1]), dtype)  # x, time-major, in dtype
        mean, lv, _ = _stack(params, net, x, (xs, outs), consts)
        return mean, lv

    return run


def _stack_backward(params: VaeParams, net: str, dmean, dlogvar, caches, grads, da, dx):
    """Backward through one network from the gradients of its mean and clipped
    logvar; writes the tensor gradients into the layer views `grads`, returns
    the batch-first input gradient, or None for the encoder, whose input
    gradient no one reads. `da` is the gate-gradient buffer every layer
    shares, with its `gate_views`; `dx` is the flat buffer that every
    layer's input gradient takes. A layer reads its dh_out, the input
    gradient of the layer above, only inside its time loop, before it
    writes its own."""
    layer_caches, head_cache, lv = caches
    # the clip passes the gradient of the logvars strictly inside its bounds
    draw = np.concatenate([dmean, dlogvar * ((lv > LOGVAR_LO) & (lv < LOGVAR_HI))], axis=-1)
    dh = linear_backward(draw, head_cache, params.layers[f"{net}_head"], grads[f"{net}_head"])
    dh = dh.transpose(1, 0, 2)
    for i in range(params.arch.layers - 1, -1, -1):
        layer, cache = f"{net}{i}", layer_caches[i]
        xs = cache[0]  # the time-major input, whose shape its gradient takes
        dx_i = False if net == "enc" and not i else dx[: xs.size].reshape(xs.shape)
        dh = lstm_backward(dh, cache, params.layers[layer], grads[layer], da, dx_i)
    return None if dh is None else dh.transpose(1, 0, 2)


class _Workspace:
    """The arrays one `train` call reuses on every step, so that no step
    allocates, frees and faults them in again.

    One flat buffer per array: one gate-gradient buffer and one
    input-gradient buffer that every layer's backward pass shares, and each
    network's time-major input and each LSTM layer's h, c, tanh(c) and
    gates; then the gradient vector and its layer views, and a vector in the
    same layout for the step's gate constants. The buffers hold `batch`
    windows, the largest batch `train` draws. A batch of b windows takes
    C-contiguous (T, b, .) views from the front of each buffer, built once
    per b, so every GEMM sees the layout a fresh array has; with them, once
    per b too, each layer's `LstmBuffers` and its per-step views, one
    `step_scratch` that every layer's forward pass shares, and the
    gate-gradient buffer's `gate_views`. The buffers are allocated at the
    first step, like its input and parameters, so that they share their
    array type as well as their dtype. They are one allocation: freed as one
    block, it stays with the C allocator for the next `train` in the
    process, where one allocation per buffer would be handed back to the
    kernel and faulted in again.
    """

    def __init__(self, batch: int):
        self.batch = batch
        # (b, T) -> (grad, grad layer views, enc bufs, dec bufs, da, dx, constant layer views)
        self._views = {}
        self._flat = None

    def get(self, params: VaeParams, x: np.ndarray):
        views = self._views.get(x.shape[:2])
        if views is None:
            views = self._views[x.shape[:2]] = self._carve(params, x)
        return views

    def _carve(self, params: VaeParams, x: np.ndarray):
        b, T, _ = x.shape
        H, L = params.arch.hidden, params.arch.layers
        # each network's input width and the widths of a layer's h, c, tanh(c), gates
        nets = [(dim, (H, H, H, 4 * H)) for _, dim, _ in _nets(params.latent)]
        if self._flat is None:
            # da, the input gradient, as wide as the widest, then each
            # network's input and its layers' buffers, in one block
            order = [4 * H, max(H, params.latent.total)]
            order += [w for dim, ws in nets for w in (dim, *ws * L)]
            rows = T * self.batch
            whole = np.empty_like(x, shape=(rows * sum(order),))
            bufs = iter(np.split(whole, rows * np.cumsum(order)[:-1]))
            da, dx = next(bufs), next(bufs)
            flats = [
                (next(bufs), [[next(bufs) for _ in widths] for _ in range(L)]) for _, widths in nets
            ]
            grad, consts = np.empty_like(params.flat), np.empty_like(params.flat)
            layers = (replace(params, flat=v).layers for v in (grad, consts))
            self._flat = grad, next(layers), da, dx, flats, next(layers)
        grad, grads, da, dx, flats, consts = self._flat

        def view(a, width):
            return a[: T * b * width].reshape(T, b, width)

        scratch = step_scratch(x, b, H)
        enc, dec = (
            (view(xs, dim), [LstmBuffers(*map(view, layer, widths), scratch) for layer in layers])
            for (xs, layers), (dim, widths) in zip(flats, nets)
        )
        da = view(da, 4 * H)
        return grad, grads, enc, dec, (da, gate_views(da)), dx, consts


def _worker_count() -> int:
    """Usable CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_chunks(fn, n: int, workers: int = 1) -> list:
    """fn(chunk) of each BATCH_WINDOWS slice of n windows, in chunk order.

    Up to min(workers, usable CPUs) threads take the chunks; numpy releases
    the GIL in their GEMMs and ufuncs. One worker starts no thread. A chunk
    raises FloatingPointError on an overflow or an invalid value. The first
    failed chunk's error in chunk order is raised once no chunk runs, and the
    chunks not yet started are cancelled.
    """
    chunks = [slice(s, min(s + BATCH_WINDOWS, n)) for s in range(0, n, BATCH_WINDOWS)]
    workers = min(workers, _worker_count(), len(chunks))

    def run(b):  # numpy's error state is per thread, so each chunk sets it
        with np.errstate(over="raise", invalid="raise"):
            return fn(b)

    if workers <= 1:
        return [run(b) for b in chunks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, chunks))  # raises the first failed chunk's error


def encode_windows(params: VaeParams, windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """float64 (mu, logvar), each (N, T, total), encoded in COMPUTE_DTYPE
    BATCH_WINDOWS windows at a time in input order, on one thread; N may be
    zero."""
    params = params.in_compute_dtype()
    x = windows.values

    def encode(b):
        chunk = x[b]
        mu, lv = _nograd(params, ("enc",), *chunk.shape[:2])("enc", chunk)
        _check_finite("encoder", mu, lv)
        return mu, lv

    # outputs are joined after the last chunk, not preallocated, so they do
    # not add to the peak memory of the forward passes; zero windows join none
    parts = map_chunks(encode, len(x)) or [(np.empty((0, x.shape[1], params.latent.total)),) * 2]
    return tuple(np.concatenate([p[i] for p in parts], dtype=np.float64) for i in (0, 1))


def _kl_ts(mu, logvar, prior_means, prior_std):
    # closed-form KL(q || p) per (batch, timestep), summed over dimensions:
    # per dim log(s_p/s_q) + (s_q^2 + (mu - m)^2) / (2 s_p^2) - 1/2
    var_p = float(prior_std) ** 2
    per_dim = (
        0.5 * np.log(var_p)
        - 0.5 * logvar
        + (np.exp(logvar) + (mu - prior_means) ** 2) / (2.0 * var_p)
        - 0.5
    )
    return per_dim.sum(axis=-1)


def _loglik_ts(x, mu_x, logvar_x):
    # diagonal Gaussian log density per (batch, timestep), summed over KPIs:
    # -0.5 * (log 2pi + logvar_x + (x - mu_x)^2 * exp(-logvar_x)) in float64,
    # evaluated in place in two arrays of logvar_x's shape, which x and mu_x
    # broadcast to
    sq = np.subtract(x, mu_x, dtype=np.float64)
    np.square(sq, out=sq)
    per_dim = np.negative(logvar_x, dtype=np.float64)
    np.exp(per_dim, out=per_dim)
    sq *= per_dim
    np.add(LOG_2PI, logvar_x, out=per_dim, dtype=np.float64)
    per_dim += sq
    per_dim *= -0.5
    return per_dim.sum(axis=-1)


def batch_components(
    params: VaeParams,
    x: np.ndarray,
    prior_means: np.ndarray,
    prior_std: float,
    eps: np.ndarray,
):
    """Per-timestep KL and sample-averaged log-likelihood for a batch.

    x is (B, T, 5), prior_means (B, total), eps (S, B, T, total) or, the same
    S draws for every window, (S, T, total). Returns (mu, logvar, kl_ts,
    loglik_ts) with the *_ts arrays shaped (B, T). The networks run in the
    dtype of `params`, as one `_nograd` pass; the *_ts sums are float64.
    """
    (B, T, _), S, dtype = x.shape, eps.shape[0], params.flat.dtype
    run = _nograd(params, ("enc", "dec"), B, T)
    mu, lv = run("enc", x)
    _check_finite("encoder", mu, lv)
    std = np.exp(lv / 2.0)
    eps = eps.astype(dtype, copy=False)
    # each sample's decoder mean before the sigmoid, and its clipped logvar
    pre, lx = (np.empty((S, B, T, N_KPIS), dtype) for _ in range(2))
    for s in range(S):
        pre[s], lx[s] = run("dec", mu + std * eps[s])
    del run, std  # frees the layer buffers before the float64 terms are made
    mu_x = sigmoid(pre)
    _check_finite("decoder", mu_x, lx)
    kl_ts = _kl_ts(np.asarray(mu, np.float64), np.asarray(lv, np.float64),
                   prior_means[:, None, :], prior_std)
    ll = _loglik_ts(x, mu_x, lx)
    # summed in sample order: sum(axis=0) would add pairwise when the sample
    # axis is the only one longer than 1 (B = T = 1)
    return mu, lv, kl_ts, np.add.accumulate(ll, axis=0)[-1] / S


def objective_and_grads(
    params: VaeParams,
    x: np.ndarray,
    prior_means: np.ndarray,
    prior_std: float,
    recon_weight: float,
    eps: np.ndarray,
    ws: _Workspace,
):
    """Training objective kl + recon_weight * (-loglik) and its exact gradients.

    One reparameterized sample per window (eps is (B, T, total)). Returns
    (objective, components dict, gradient vector laid out like params.flat).
    The networks and gradients run in the dtype of the arguments, which must
    all share it; the reported KL and log-likelihood are summed in float64.
    The layer caches and the gradient vector are the buffers of the
    workspace `ws`, of at least B windows: the returned vector is
    overwritten by the next call with the same workspace.
    """
    B, T, _ = x.shape
    scale = 1.0 / (B * T)
    var_p = float(prior_std) ** 2
    grad, grads, enc_bufs, dec_bufs, da, dx, const_layers = ws.get(params, x)
    consts = _layer_constants(params, ("enc", "dec"), const_layers)

    mu, lv, enc_cache = _stack(params, "enc", x, enc_bufs, consts)
    _check_finite("encoder", mu, lv)
    std = np.exp(lv / 2.0)
    z = mu + std * eps
    pre, lx, dec_cache = _stack(params, "dec", z, dec_bufs, consts)
    mu_x = sigmoid(pre)
    _check_finite("decoder", mu_x, lx)

    resid = x - mu_x
    inv_var_x = np.exp(-lx)
    # the reported parts are summed in float64, as in batch_components
    f64 = [np.asarray(a, np.float64) for a in (x, mu_x, lx, mu, lv, prior_means[:, None, :])]
    loglik = float(_loglik_ts(*f64[:3]).mean())
    kl = float(_kl_ts(*f64[3:], prior_std).mean())
    del f64  # else the float64 copies live through both backward passes
    objective = kl - recon_weight * loglik

    # reconstruction term: d(-w * loglik) through the decoder
    coef = -recon_weight * scale
    dmu_x = coef * (resid * inv_var_x)
    dlx = coef * (-0.5 + 0.5 * resid**2 * inv_var_x)
    dz = _stack_backward(
        params, "dec", dmu_x * mu_x * (1.0 - mu_x), dlx, dec_cache, grads, da, dx
    )

    # KL term plus the pathwise gradient through z = mu + std * eps
    dmu = scale * (mu - prior_means[:, None, :]) / var_p + dz
    dlv = scale * (0.5 * np.exp(lv) / var_p - 0.5) + dz * eps * 0.5 * std
    _stack_backward(params, "enc", dmu, dlv, enc_cache, grads, da, dx)

    components = {"objective": objective, "kl": kl, "loglik": loglik}
    return objective, components, grad


def _val_loss(params: VaeParams, x, prior_means, prior_std: float, eps) -> float:
    """Unweighted loss kl - loglik of x under one noise draw eps (1, N, T,
    total), `batch_components` BATCH_WINDOWS windows at a time on one thread,
    so that the pass's memory does not grow with the validation set."""

    def score(b):
        return batch_components(params, x[b], prior_means[b], prior_std, eps[:, b])[2:]

    kl_ts, ll_ts = (np.concatenate(part) for part in zip(*map_chunks(score, len(x))))
    return float(kl_ts.mean() - ll_ts.mean())


def train_step(
    params: VaeParams,
    opt: Adam,
    x: np.ndarray,
    prior_means: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    ws: _Workspace,
) -> dict[str, float]:
    """One Adam update on a batch; mutates params in place via the optimizer.
    The noise is drawn in float64 and cast to the dtype of `x`; `ws` is
    passed to `objective_and_grads`. Raises FloatingPointError on an
    overflow or an invalid value."""
    with np.errstate(over="raise", invalid="raise"):
        eps = rng.standard_normal(x.shape[:2] + (params.latent.total,)).astype(x.dtype, copy=False)
        objective, components, grad = objective_and_grads(
            params, x, prior_means, params.latent.prior_std, config.recon_weight, eps, ws
        )
        if not np.isfinite(objective):
            raise TrainingDivergedError(
                f"training objective is non-finite ({objective})", diagnostics=components
            )
        opt.step(grad)
    return components


def train(
    train_windows: Windows,
    val_windows: Windows,
    concept_model: ConceptModel,
    config: TrainConfig,
    arch: ArchConfig | None = None,
    latent: LatentConfig | None = None,
) -> tuple[VaeParams, list[dict[str, float]]]:
    """Mini-batch training with early stopping on validation loss.

    Returns the best-validation parameters and the per-epoch history, one
    dict per epoch keyed by HISTORY_HEADER, where losses are
    unweighted kl - loglik. Validation reuses one fixed noise draw across
    epochs so successive epochs are compared on common random numbers.

    The initial parameters are drawn in float64 and cast once to
    COMPUTE_DTYPE, in which the weights, gradients, Adam moments and
    validation pass then run; the best tensors are returned as float64.

    The steps share one `_Workspace`, sized for the largest batch drawn,
    min(batch_size, len(train_windows)). It lives for this call only, so its
    buffers are freed before the caller encodes or scores anything. The
    call starts no thread.

    An overflow or an invalid value raises FloatingPointError naming the
    epoch, and the step or the validation pass that met it.
    """
    config.validate()
    if not len(train_windows):
        raise ValidationError("training set is empty")
    if not len(val_windows):
        raise ValidationError("validation set is empty; cannot early-stop")
    arch = arch or ArchConfig()
    latent = latent or LatentConfig()

    seq = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss, noise_ss, val_ss = seq.spawn(4)
    params = init_params(arch, latent, seed=init_ss).in_compute_dtype()
    rng_shuffle = np.random.default_rng(shuffle_ss)
    rng_noise = np.random.default_rng(noise_ss)
    rng_val = np.random.default_rng(val_ss)

    table = prior_table(concept_model, latent)
    x_train = train_windows.values.astype(COMPUTE_DTYPE)
    p_train = table.astype(COMPUTE_DTYPE)[window_clusters(train_windows, concept_model.assignment)]
    x_val = val_windows.values
    p_val = table[window_clusters(val_windows, concept_model.assignment)]
    val_eps = rng_val.standard_normal((1,) + x_val.shape[:2] + (latent.total,))

    opt = Adam(params.flat, lr=config.learning_rate)
    history: list[dict[str, float]] = []
    best_val = np.inf
    best = params.flat.copy()
    since_best = 0
    n = len(train_windows)

    ws = _Workspace(min(config.batch_size, n))
    for epoch in range(config.max_epochs):
        order = rng_shuffle.permutation(n)
        kl_sum = ll_sum = 0.0
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            try:
                comps = train_step(params, opt, x_train[idx], p_train[idx], config, rng_noise, ws)
            except FloatingPointError as e:
                raise FloatingPointError(f"training diverged at epoch {epoch}, step {step}: {e}")
            kl_sum += comps["kl"] * len(idx)
            ll_sum += comps["loglik"] * len(idx)
        train_kl = kl_sum / n
        train_ll = ll_sum / n

        try:
            val_loss = _val_loss(params, x_val, p_val, latent.prior_std, val_eps)
        except FloatingPointError as e:
            raise FloatingPointError(f"training diverged at epoch {epoch}, validation: {e}")
        row = (epoch, train_kl - train_ll, train_kl, train_ll, val_loss)
        history.append(dict(zip(HISTORY_HEADER, row)))
        if val_loss < best_val:
            best_val = val_loss
            best = params.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    return replace(params, flat=best.astype(np.float64)), history


def save_checkpoint(params: VaeParams, path) -> None:
    """A codec artifact: one row per ArchConfig and LatentConfig field, the
    `sha256` row, then the body, `params.flat` as float64 bytes in the
    layout those rows fix. Each row holds its value cast to the type of the
    field's default, so equal params give identical bytes."""
    configs = (params.arch, params.latent)
    rows = [(f.name, type(f.default)(getattr(c, f.name))) for c in configs for f in fields(c)]
    write_artifact(path, CHECKPOINT_TAG, rows, body=params.flat.tobytes())


def load_checkpoint(path) -> VaeParams:
    """Every field row must be there, and the configs it makes must validate
    before the body size is counted, so that a huge declared `hidden` or
    `layers` builds nothing."""
    configs = (ArchConfig, LatentConfig)
    kinds = {f.name: (None, type(f.default), 1, None) for c in configs for f in fields(c)}
    rows, body = read_artifact(path, CHECKPOINT_TAG, kinds, body=True)
    if missing := [name for name in kinds if not rows[name]]:  # no default fills one in
        raise ParseError(f"bad checkpoint header: {missing[0]} is missing")
    arch, latent = (c(**{f.name: rows[f.name][None][1][0] for f in fields(c)}) for c in configs)
    try:
        arch.validate()
        latent.validate()
    except ConfigError as e:
        raise ParseError(f"bad checkpoint header: {e}")
    need = 8 * _param_count(arch, latent)  # 8 bytes per float64
    if len(body) != need:
        what = "truncated checkpoint" if len(body) < need else "trailing bytes in checkpoint"
        raise ParseError(f"{what}: its tensors need {need} bytes, found {len(body)}")
    return VaeParams(arch=arch, latent=latent, flat=np.frombuffer(body, np.float64).copy())

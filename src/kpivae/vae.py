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
gradient checks run them in float64 against central finite differences.
"""
from __future__ import annotations

import json
import math
import numbers
import struct
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .concepts import ConceptModel
from .data import N_KPIS, Windows
from .errors import (
    ConfigError,
    MissingArtifactError,
    NonFiniteError,
    ParseError,
    TrainingDivergedError,
    ValidationError,
)
from .nn import (
    Adam,
    linear_backward,
    linear_forward,
    linear_init,
    lstm_backward,
    lstm_forward,
    lstm_init,
    sigmoid,
)

LOG_2PI = float(np.log(2.0 * np.pi))

# windows per forward pass; scoring draws its noise per chunk, so this is part
# of the scored output, not a tuning knob
BATCH_WINDOWS = 256

# dtype of the encoder and decoder in training, encode_windows and detect;
# like BATCH_WINDOWS it is part of the output
COMPUTE_DTYPE = np.float32

CHECKPOINT_MAGIC = b"KPIVAE\x00\x01"
CHECKPOINT_FORMAT = "kpivae-ckpt-v1"

F32_MAX = float(np.finfo(np.float32).max)
# prior_std**2 must be a normal, finite float32, where the training and
# scoring passes divide by it
PRIOR_STD_MIN = math.sqrt(float(np.finfo(np.float32).tiny))
PRIOR_STD_MAX = math.sqrt(F32_MAX)
# |logvar| bound, so that exp(logvar / 2) times a noise draw of up to 10
# stays below sqrt(F32_MAX) in the float32 passes
LOGVAR_MAX = 2.0 * math.log(math.sqrt(F32_MAX) / 10.0)


@dataclass
class LatentConfig:
    concept_dims: int = 5
    free_dims: int = 25
    prior_std: float = 1.0

    @property
    def total(self) -> int:
        return self.concept_dims + self.free_dims

    def validate(self, n_kpis: int) -> None:
        if self.concept_dims != n_kpis:
            raise ConfigError(
                f"concept_dims ({self.concept_dims}) must equal the KPI count ({n_kpis})"
            )
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
    input_dim: int = 5
    hidden: int = 64
    layers: int = 3
    logvar_lo: float = -8.0
    logvar_hi: float = 8.0

    def validate(self) -> None:
        if self.hidden < 1 or self.layers < 1:
            raise ConfigError("hidden and layers must be >= 1")
        if not -LOGVAR_MAX <= self.logvar_lo < self.logvar_hi <= LOGVAR_MAX:
            raise ConfigError(
                f"logvar_lo must be below logvar_hi, both in [{-LOGVAR_MAX:.4g}, {LOGVAR_MAX:.4g}]"
            )


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    recon_weight: float = 10.0
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def validate(self) -> None:
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")


@dataclass
class VaeParams:
    """`tensors` ("enc0.Wx" -> array) and `layers` ("enc0" -> {"Wx", "Wh",
    "b"}, "enc_head" -> {"W", "b"}) are views of `flat`, built once; to
    replace `flat`, build a new VaeParams."""

    arch: ArchConfig
    latent: LatentConfig
    flat: np.ndarray
    seed: int

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


def validate_prior(mean: np.ndarray, std: float, concept_dims: int) -> None:
    """Check a latent prior: concept dims at a scaled centroid in [-1, 1],
    free dims standard normal. `mean` is one (total,) row or a (k, total) table."""
    if not std > 0:
        raise ConfigError("prior std must be positive")
    if not np.isfinite(mean).all():
        raise ValidationError("prior means must be finite")
    head, tail = mean[..., :concept_dims], mean[..., concept_dims:]
    if head.size and (head.min() < -1.0 - 1e-12 or head.max() > 1.0 + 1e-12):
        raise ValidationError("concept-dim prior means must lie in [-1, 1]")
    if tail.size and np.any(tail != 0.0):
        raise ValidationError("free-dim prior means must be exactly 0")


def prior_table(model: ConceptModel, latent: LatentConfig) -> np.ndarray:
    """(k, total) prior means, one validated row per cluster."""
    if model.prior_means is None:
        raise ValidationError("concept model has no prior_means; run scale_centroids")
    table = np.zeros((len(model.prior_means), latent.total))
    table[:, : latent.concept_dims] = model.prior_means
    validate_prior(table, latent.prior_std, latent.concept_dims)
    return table


def window_clusters(windows: Windows, assignment: dict[str, int]) -> np.ndarray:
    """Cluster id of each window's element; every element must be assigned."""
    present = [windows.elements[e] for e in np.unique(windows.element).tolist()]
    missing = [e for e in present if e not in assignment]
    if missing:
        raise ValidationError("elements without a cluster assignment: " + ", ".join(missing))
    return np.array([assignment.get(e, -1) for e in windows.elements], dtype=int)[windows.element]


def _nets(arch: ArchConfig, latent: LatentConfig):
    # (name, input width, output mean width) of the encoder and the decoder
    return (("enc", arch.input_dim, latent.total), ("dec", latent.total, arch.input_dim))


def _tensor_shapes(arch: ArchConfig, latent: LatentConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor init_params makes, without drawing any."""
    H = arch.hidden
    shapes = {}
    for net, dim, out in _nets(arch, latent):
        for i in range(arch.layers):
            shapes[f"{net}{i}.Wx"] = (dim if i == 0 else H, 4 * H)
            shapes[f"{net}{i}.Wh"] = (H, 4 * H)
            shapes[f"{net}{i}.b"] = (4 * H,)
        shapes[f"{net}_head.W"] = (H, 2 * out)
        shapes[f"{net}_head.b"] = (2 * out,)
    return shapes


def init_params(
    arch: ArchConfig,
    latent: LatentConfig,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> VaeParams:
    """Fresh parameters: orthogonal kernels (QR of Gaussians), zero biases."""
    arch.validate()
    latent.validate(arch.input_dim)
    if rng is None:
        rng = np.random.default_rng(seed)
    size = sum(map(math.prod, _tensor_shapes(arch, latent).values()))
    params = VaeParams(arch=arch, latent=latent, flat=np.empty(size), seed=seed)
    for net, dim, out in _nets(arch, latent):
        for i in range(arch.layers):
            for k, v in lstm_init(dim if i == 0 else arch.hidden, arch.hidden, rng).items():
                params.layers[f"{net}{i}"][k][...] = v
        for k, v in linear_init(arch.hidden, 2 * out, rng).items():
            params.layers[f"{net}_head"][k][...] = v
    return params


def _check_finite(what: str, mean: np.ndarray, logvar: np.ndarray) -> None:
    if np.isfinite(mean).all() and np.isfinite(logvar).all():
        return
    bad = ~(np.isfinite(mean).all(axis=(0, 2)) & np.isfinite(logvar).all(axis=(0, 2)))
    raise NonFiniteError(f"{what} produced non-finite values at timestep {int(np.argmax(bad))}")


def _stack(params: VaeParams, net: str, x: np.ndarray, want_cache: bool):
    """One network ("enc" or "dec"): LSTM layers, then a linear head split into
    a mean half and a clipped logvar half. The cache, when wanted, carries the
    layer caches, the head cache and the mask of logvars the clip left alone."""
    arch = params.arch
    caches = []
    h = x
    for i in range(arch.layers):
        h, cache = lstm_forward(h, params.layers[f"{net}{i}"])
        if want_cache:
            caches.append(cache)
        del cache  # else the next layer's pass runs with this one's gates held
    raw, head_cache = linear_forward(h, params.layers[f"{net}_head"])
    half = raw.shape[-1] // 2
    mean, lv_raw = raw[..., :half], raw[..., half:]
    lv = np.clip(lv_raw, arch.logvar_lo, arch.logvar_hi)
    if not want_cache:
        return mean, lv, None
    return mean, lv, (caches, head_cache, (lv_raw > arch.logvar_lo) & (lv_raw < arch.logvar_hi))


def _encoder_forward(params: VaeParams, x: np.ndarray, want_cache: bool = False):
    mu, lv, cache = _stack(params, "enc", x, want_cache)
    _check_finite("encoder", mu, lv)
    return mu, lv, cache


def _decoder_forward(params: VaeParams, z: np.ndarray, want_cache: bool = False):
    pre, lx, cache = _stack(params, "dec", z, want_cache)
    mu_x = sigmoid(pre)
    _check_finite("decoder", mu_x, lx)
    return mu_x, lx, cache


def _stack_backward(params: VaeParams, net: str, dmean, dlogvar, caches, grads) -> np.ndarray:
    """Backward through one network from the gradients of its mean and clipped
    logvar; writes the tensor gradients into the layer views `grads`, returns
    the input gradient."""
    layer_caches, head_cache, mask = caches
    draw = np.concatenate([dmean, dlogvar * mask], axis=-1)
    dh, head_grads = linear_backward(draw, head_cache, params.layers[f"{net}_head"])
    for k, v in head_grads.items():
        grads[f"{net}_head"][k][...] = v
    for i in range(params.arch.layers - 1, -1, -1):
        dh, layer_grads = lstm_backward(dh, layer_caches[i], params.layers[f"{net}{i}"])
        for k, v in layer_grads.items():
            grads[f"{net}{i}"][k][...] = v
    return dh


def encode_windows(params: VaeParams, windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """float64 (mu, logvar), each (N, T, total), encoded in COMPUTE_DTYPE
    BATCH_WINDOWS windows at a time in input order."""
    params = params.in_compute_dtype()
    x = windows.values
    # outputs are joined after the last chunk, not preallocated, so they do
    # not add to the peak memory of the forward passes
    parts = [
        _encoder_forward(params, x[s : s + BATCH_WINDOWS].astype(COMPUTE_DTYPE))
        for s in range(0, len(x), BATCH_WINDOWS)
    ]
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
    # diagonal Gaussian log density per (batch, timestep), summed over KPIs
    per_dim = -0.5 * (LOG_2PI + logvar_x + (x - mu_x) ** 2 * np.exp(-logvar_x))
    return per_dim.sum(axis=-1)


def batch_components(
    params: VaeParams,
    x: np.ndarray,
    prior_means: np.ndarray,
    prior_std: float,
    eps: np.ndarray,
):
    """Per-timestep KL and sample-averaged log-likelihood for a batch.

    x is (B, T, 5), prior_means (B, total), eps (S, B, T, total). Returns
    (mu, logvar, kl_ts, loglik_ts) with the *_ts arrays shaped (B, T). The
    networks run in the dtype of `params`; the *_ts sums are float64.
    """
    mu, lv, _ = _encoder_forward(params, x.astype(params.flat.dtype, copy=False))
    kl_ts = _kl_ts(np.asarray(mu, np.float64), np.asarray(lv, np.float64),
                   prior_means[:, None, :], prior_std)
    std = np.exp(lv / 2.0)
    ll = np.zeros(x.shape[:2])
    for s in range(eps.shape[0]):
        z = mu + std * eps[s].astype(mu.dtype, copy=False)
        mu_x, lx, _ = _decoder_forward(params, z)
        ll += _loglik_ts(x, np.asarray(mu_x, np.float64), np.asarray(lx, np.float64))
    return mu, lv, kl_ts, ll / eps.shape[0]


def objective_and_grads(
    params: VaeParams,
    x: np.ndarray,
    prior_means: np.ndarray,
    prior_std: float,
    recon_weight: float,
    eps: np.ndarray,
):
    """Training objective kl + recon_weight * (-loglik) and its exact gradients.

    One reparameterized sample per window (eps is (B, T, total)). Returns
    (objective, components dict, gradient vector laid out like params.flat).
    The networks and gradients run in the dtype of the arguments, which must
    all share it; the reported KL and log-likelihood are summed in float64.
    """
    B, T, _ = x.shape
    scale = 1.0 / (B * T)
    var_p = float(prior_std) ** 2

    mu, lv, enc_cache = _encoder_forward(params, x, want_cache=True)
    std = np.exp(lv / 2.0)
    z = mu + std * eps
    mu_x, lx, dec_cache = _decoder_forward(params, z, want_cache=True)

    resid = x - mu_x
    inv_var_x = np.exp(-lx)
    # the reported parts are summed in float64, as in batch_components
    f64 = [np.asarray(a, np.float64) for a in (x, mu_x, lx, mu, lv, prior_means[:, None, :])]
    loglik = float(_loglik_ts(*f64[:3]).mean())
    kl = float(_kl_ts(*f64[3:], prior_std).mean())
    objective = kl - recon_weight * loglik

    grad = np.empty_like(params.flat)
    grads = replace(params, flat=grad).layers  # views of grad

    # reconstruction term: d(-w * loglik) through the decoder
    coef = -recon_weight * scale
    dmu_x = coef * (resid * inv_var_x)
    dlx = coef * (-0.5 + 0.5 * resid**2 * inv_var_x)
    dz = _stack_backward(params, "dec", dmu_x * mu_x * (1.0 - mu_x), dlx, dec_cache, grads)

    # KL term plus the pathwise gradient through z = mu + std * eps
    dmu = scale * (mu - prior_means[:, None, :]) / var_p + dz
    dlv = scale * (0.5 * np.exp(lv) / var_p - 0.5) + dz * eps * 0.5 * std
    _stack_backward(params, "enc", dmu, dlv, enc_cache, grads)

    components = {"objective": objective, "kl": kl, "loglik": loglik}
    return objective, components, grad


def train_step(
    params: VaeParams,
    opt: Adam,
    x: np.ndarray,
    prior_means: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> dict[str, float]:
    """One Adam update on a batch; mutates params in place via the optimizer.
    The noise is drawn in float64 and cast to the dtype of `x`."""
    eps = rng.standard_normal(x.shape[:2] + (params.latent.total,)).astype(x.dtype, copy=False)
    objective, components, grad = objective_and_grads(
        params, x, prior_means, params.latent.prior_std, config.recon_weight, eps
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

    Returns the best-validation parameters and the per-epoch history
    (epoch, train_loss, train_kl, train_loglik, val_loss), where losses are
    unweighted kl - loglik. Validation reuses one fixed noise draw across
    epochs so successive epochs are compared on common random numbers.

    The initial parameters are drawn in float64 and cast once to
    COMPUTE_DTYPE, in which the weights, gradients, Adam moments and
    validation pass then run; the best tensors are returned as float64.
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
    params = init_params(
        arch, latent, seed=config.seed, rng=np.random.default_rng(init_ss)
    ).in_compute_dtype()
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

    for epoch in range(config.max_epochs):
        order = rng_shuffle.permutation(n)
        kl_sum = ll_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            comps = train_step(params, opt, x_train[idx], p_train[idx], config, rng_noise)
            kl_sum += comps["kl"] * len(idx)
            ll_sum += comps["loglik"] * len(idx)
        train_kl = kl_sum / n
        train_ll = ll_sum / n

        _, _, kl_ts, ll_ts = batch_components(
            params, x_val, p_val, latent.prior_std, val_eps
        )
        val_loss = float(kl_ts.mean() - ll_ts.mean())
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_kl - train_ll,
                "train_kl": train_kl,
                "train_loglik": train_ll,
                "val_loss": val_loss,
            }
        )
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
    """Versioned binary checkpoint; identical params give identical bytes."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "arch": asdict(params.arch),
        "latent": asdict(params.latent),
        "seed": params.seed,
        "arrays": [[k, str(v.dtype), list(v.shape)] for k, v in params.tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack(">Q", len(blob)))
        fh.write(blob)
        fh.write(params.flat.tobytes())


def _check_numbers(values: dict, defaults: dict) -> None:
    """Each header field must be in `values`, with the JSON type of its default:
    an int, not a bool or a float, or a finite number, which becomes a float."""
    for name, default in defaults.items():
        if name not in values:  # a default would change the model silently
            raise ParseError(f"bad checkpoint header: {name} is missing")
        v = values[name]
        if isinstance(default, int):
            ok, kind = type(v) is int, "an int"
        else:  # compared, not converted, so that a huge int cannot overflow
            ok, kind = type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"
        if not ok:
            raise ParseError(f"bad checkpoint header: {name} must be {kind}")
        values[name] = type(default)(v)


def load_checkpoint(path) -> VaeParams:
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MissingArtifactError(f"checkpoint not found: {path}")
    with fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ParseError(f"not a kpivae checkpoint: {path}")
        buf = fh.read()
    # each size the file declares is checked against its length before slicing;
    # the header length is the ">Q" that save_checkpoint packs
    blob_len = int.from_bytes(buf[:8], "big")
    blob = buf[8 : 8 + blob_len]
    if len(buf) < 8 or len(blob) != blob_len:
        raise ParseError("truncated checkpoint header")
    try:
        header = json.loads(blob.decode("utf-8"))
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ParseError(f"unsupported checkpoint format {header.get('format')!r}")
        _check_numbers(header["arch"], asdict(ArchConfig()))
        _check_numbers(header["latent"], asdict(LatentConfig()))
        _check_numbers(header, {"seed": 0})
        arch = ArchConfig(**header["arch"])
        latent = LatentConfig(**header["latent"])
        arrays = [
            (name, np.dtype(dtype), tuple(int(n) for n in shape))
            for name, dtype, shape in header["arrays"]
        ]
        seed = header["seed"]
        if arch.input_dim != N_KPIS:
            raise ParseError(f"checkpoint input_dim {arch.input_dim} is not {N_KPIS}")
        arch.validate()
        latent.validate(arch.input_dim)
        # a layer holds at least one tensor, so more layers than listed tensors
        # cannot match, and the layout of a huge layer count is never built
        shapes = _tensor_shapes(arch, latent) if arch.layers <= len(arrays) else None
    except (ValueError, KeyError, TypeError, AttributeError, ConfigError) as e:
        raise ParseError(f"bad checkpoint header: {e}")
    if shapes is None or arrays != [(k, np.dtype(np.float64), shapes[k]) for k in sorted(shapes)]:
        raise ParseError("checkpoint tensors do not match the architecture in its header")
    body = 8 + blob_len
    need = 8 * sum(math.prod(shape) for _, _, shape in arrays)  # 8 bytes per float64
    found = len(buf) - body
    if found != need:
        what = "truncated checkpoint" if found < need else "trailing bytes in checkpoint"
        raise ParseError(f"{what}: its tensors need {need} bytes, found {found}")
    flat = np.frombuffer(buf, np.float64, offset=body).copy()
    return VaeParams(arch=arch, latent=latent, flat=flat, seed=seed)

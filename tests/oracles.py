"""One-window and one-formula handles on the package, for tests.

The package works on whole window sets: `encode_windows`, `batch_components`
and `prior_table`. These helpers give a test a single window, a single prior
or a single loss term of that same code, so it can be checked against a value
worked out by hand. `batch_components` is the package's function of that name
with the decoder samples taken one at a time through the training pass.

`lstm_forward`, `lstm_backward` and `sigmoid` are the reference kernels: one
timestep at a time, the gate sigmoids masked into two branches, and the weight
gradients summed step by step. `kpivae.nn` must agree with them.
`nn_lstm_forward` and `nn_lstm_backward` run the `kpivae.nn` kernels of that
name on new buffers, and `training_buffers` gives `vae._stack` the buffers
and gate constants of a training step.

`window_sequences` and `element_profiles` are the record-by-record references
for the array versions of the same name, over a list of `KpiRecord`.
`report_list` turns the columns of an `anomaly.Report` into one
`AnomalyReport` per scored cell, and `attribute` is the per-vector formula
that names the flagged KPIs of one cell.

`report_rows` and `latent_rows` build the report and `export-latent` CSVs
one row list at a time, each float through `fmt_float`; `csv_bytes` writes
such rows with `csv.writer`. The streamed `data.write_csv` must give the
same bytes.

`lloyd` is k-means' Lloyd iteration with one mean per cluster, taken in a
loop; `concepts.lloyd` must match its centroids and labels bit for bit. It
also keeps the inertia of every round.

`Adam` is the per-name optimizer `nn.Adam` must match bit for bit: one
moment pair per tensor, each updated by the textbook expression. `zscores`
is the per-cluster standardization that `anomaly.detect` does for all rows
at once.

`synth_generate` draws each element and injects each anomaly in a loop,
with `inject` as the per-cell formula; `data.synth_generate`, which does
both for all elements and cells at once, must give the same bytes.

`NoFloat64` wraps the float32 inputs of a kernel so that any float64 array or
numpy scalar that meets them fails the test.

`rewrite_checkpoint` copies a checkpoint with its field rows edited and a
fresh `sha256` row, so that a check behind the hash fails, and
`legacy_checkpoint` writes the JSON-header checkpoint of earlier releases.
"""
import csv
import hashlib
import io
import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from kpivae import anomaly, cli, concepts, data, nn, vae
from kpivae.errors import ConfigError, ParseError, ValidationError


@dataclass(frozen=True)
class KpiRecord:
    """One element's daily KPI vector in original units."""

    element_id: str
    date: int  # calendar day ordinal
    kpis: tuple[float, float, float, float, float]


def records(rows) -> data.Records:
    """The `Records` of a list of `KpiRecord`, in list order."""
    return data.Records(
        element_ids=np.array([r.element_id for r in rows], dtype=object),
        dates=np.array([r.date for r in rows], dtype=np.int64),
        kpis=np.array([r.kpis for r in rows], dtype=np.float64).reshape(-1, data.N_KPIS),
    )


def record_list(records: data.Records) -> list[KpiRecord]:
    rows = zip(records.element_ids.tolist(), records.dates.tolist(), records.kpis.tolist())
    return [KpiRecord(e, d, tuple(k)) for e, d, k in rows]


def records_equal(a: data.Records, b: data.Records) -> bool:
    return (
        a.element_ids.tolist() == b.element_ids.tolist()
        and np.array_equal(a.dates, b.dates)
        and np.array_equal(a.kpis, b.kpis)
    )


def windows_of(specs) -> data.Windows:
    """A window set from (element_id, start_date, values) triples, kept in
    that order, with `raw` equal to `values`."""
    ids = np.array([s[0] for s in specs], dtype=object)
    elements, element = np.unique(ids, return_inverse=True)
    start = np.array([s[1] for s in specs], dtype=np.int64)
    values = np.stack([np.asarray(s[2], dtype=np.float64) for s in specs])
    dates = start[:, None] + np.arange(values.shape[1])
    key = element[:, None] * (dates.max() - dates.min() + 1) + dates - dates.min()
    cell = np.unique(key, return_inverse=True)[1].reshape(key.shape)
    return data.Windows(elements.tolist(), element, start, values, values.copy(), cell)


def as_windows(window) -> data.Windows:
    """A one-window set from a `data.Window` or a (T, 5) array."""
    if isinstance(window, data.Window):
        return windows_of([(window.element_id, window.start_date, window.values)])
    return windows_of([("window", 1, window)])


@dataclass
class PriorSpec:
    """Latent prior of one cluster: concept dims at its scaled centroid, free
    dims standard normal."""

    mean: np.ndarray
    std: float
    concept_dims: int

    def validate(self) -> None:
        if not self.std > 0:
            raise ConfigError("prior std must be positive")
        if not np.isfinite(self.mean).all():
            raise ValidationError("prior means must be finite")
        head, tail = self.mean[..., : self.concept_dims], self.mean[..., self.concept_dims :]
        if head.size and (head.min() < -1.0 - 1e-12 or head.max() > 1.0 + 1e-12):
            raise ValidationError("concept-dim prior means must lie in [-1, 1]")
        if tail.size and np.any(tail != 0.0):
            raise ValidationError("free-dim prior means must be exactly 0")


def n_params(params) -> int:
    return sum(int(v.size) for v in params.tensors.values())


def tensors_of(params, flat) -> dict[str, np.ndarray]:
    """name -> view of `flat`, a vector laid out like `params.flat` (a gradient)."""
    return replace(params, flat=flat).tensors


@dataclass
class AnomalyReport:
    element_id: str
    date: int
    cluster: int
    kpis: tuple[float, ...]  # original units
    loss: float
    kl: float
    loglik: float
    zscores: tuple[float, ...]
    flagged: tuple[bool, ...]  # per KPI, z strictly above the threshold
    attribution: tuple[str, ...] = ()  # flagged KPI names, strongest first
    stats_fallback: bool = False  # cluster unknown/under-observed, global stats used
    rank: int = 0


def report_list(report: anomaly.Report) -> list[AnomalyReport]:
    """One `AnomalyReport` per row of a `Report`, rank = position + 1."""
    rows = zip(
        report.element_id.tolist(), report.date.tolist(), report.cluster.tolist(),
        report.kpis.tolist(), report.loss.tolist(), report.kl.tolist(), report.loglik.tolist(),
        report.z.tolist(), report.flagged.tolist(), report.attribution.tolist(),
        report.stats_fallback.tolist(),
    )
    return [
        AnomalyReport(e, d, c, tuple(k), loss, kl, ll, tuple(z), tuple(f),
                      tuple(a.split("|")) if a else (), fb, rank)
        for rank, (e, d, c, k, loss, kl, ll, z, f, a, fb) in enumerate(rows, start=1)
    ]


def report_rows(report: anomaly.Report):
    """Yield the report CSV rows, header first, one list per row."""
    yield list(anomaly.REPORT_HEADER)
    floats = np.column_stack([report.kpis, report.loss, report.loglik, report.kl, report.z])
    columns = zip(
        report.element_id.tolist(), report.date.tolist(), report.cluster.tolist(),
        floats.tolist(), report.attribution.tolist(), report.stats_fallback.tolist(),
    )
    for rank, (eid, date, cl, values, names, fallback) in enumerate(columns, start=1):
        yield [rank, eid, date, cl] + [data.fmt_float(v) for v in values] + [names, int(fallback)]


def latent_rows(params, windows, model, dims: str = "concept", cluster=None):
    """The `export-latent` CSV rows, header first: per (element, date) cell, at
    its first timestep in input order, one row per latent dim."""
    n_dims = data.N_KPIS if dims == "concept" else params.latent.total
    clusters = vae.window_clusters(windows, anomaly.resolve_clusters(windows, model))
    mu, lv = vae.encode_windows(params, windows)
    rows, seen = [list(cli.LATENT_HEADER)], set()
    for w in range(len(windows)):
        eid = windows.elements[windows.element[w]]
        for t in range(windows.cell.shape[1]):
            if windows.cell[w, t] in seen:
                continue
            seen.add(windows.cell[w, t])
            if cluster is not None and clusters[w] != cluster:
                continue
            x = windows.values[w, t]
            for dim in range(n_dims):
                x_text = data.fmt_float(x[dim]) if dim < data.N_KPIS else ""
                rows.append([eid, int(windows.start[w]) + t, int(clusters[w]), dim,
                             data.fmt_float(mu[w, t, dim]), data.fmt_float(lv[w, t, dim]), x_text])
    return rows


def csv_bytes(rows) -> bytes:
    """The bytes csv.writer writes for `rows`, with LF line ends."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def attribute(report, threshold: float = anomaly.Z_THRESHOLD, symmetric: bool = False) -> list[str]:
    """Names of the KPIs responsible for an anomaly, strongest first.

    A KPI is responsible when its Z-score strictly exceeds the threshold;
    one-sided by default, |z| when symmetric. KPIs with equal scores keep
    their KPI order. Accepts an AnomalyReport or a raw Z-score vector.
    """
    z = report.zscores if isinstance(report, AnomalyReport) else report
    score = [abs(float(v)) if symmetric else float(v) for v in z]
    ranked = sorted(range(len(score)), key=lambda i: -score[i])
    return [data.KPI_NAMES[i] for i in ranked if score[i] > threshold]


def load_labels(path) -> list[data.AnomalyLabel]:
    labels: list[data.AnomalyLabel] = []
    for line_no, row in data.csv_rows(path, data.LABEL_HEADER):
        try:
            kpi_index = int(row[2])
        except ValueError:
            raise ParseError(f"non-integer kpi_index {row[2]!r}", line_no)
        labels.append(data.AnomalyLabel(row[0], data._parse_date(row[1], line_no), kpi_index))
    return labels


def encode(params, window) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestep (mu, logvar) of shape (T, total) for one window."""
    mu, lv = vae.encode_windows(params, as_windows(window))
    return mu[0], lv[0]


def decode(params, z) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestep reconstruction (mu_x in (0,1), logvar_x) for one z sequence."""
    z = np.asarray(z, params.flat.dtype)[None]
    pre, lx, _ = vae._stack(params, "dec", z, *training_buffers(params, "dec", z))
    return nn.sigmoid(pre)[0], lx[0]


def training_buffers(params, net, x):
    """The `vae._stack` buffers of network `net` ("enc" or "dec") for the
    windows x, from a new `vae._Workspace`, and its `_layer_constants`."""
    _, _, enc, dec, *_ = vae._Workspace(len(x)).get(params, x)
    return (enc if net == "enc" else dec), vae._layer_constants(params, (net,))


def batch_components(params, x, prior_means, prior_std, eps):
    """`vae.batch_components` one decoder sample at a time, through the
    training pass's `_stack`: each sample's log-likelihood, the textbook
    expression, is added to a running float64 sum that starts at zero."""
    xc = x.astype(params.flat.dtype)
    mu, lv, _ = vae._stack(params, "enc", xc, *training_buffers(params, "enc", xc))
    f64 = [a.astype(np.float64) for a in (mu, lv)]
    kl_ts = vae._kl_ts(*f64, prior_means[:, None, :], prior_std)
    std = np.exp(lv / 2.0)
    ll = np.zeros(x.shape[:2])
    for s in range(eps.shape[0]):
        z = mu + std * eps[s].astype(mu.dtype)
        pre, lx, _ = vae._stack(params, "dec", z, *training_buffers(params, "dec", z))
        mu_x, lx = nn.sigmoid(pre).astype(np.float64), lx.astype(np.float64)
        ll += (-0.5 * (vae.LOG_2PI + lx + (x - mu_x) ** 2 * np.exp(-lx))).sum(axis=-1)
    return mu, lv, kl_ts, ll / eps.shape[0]


def sample_latent(mu, logvar, rng: np.random.Generator) -> np.ndarray:
    """Reparameterized draw z = mu + exp(logvar/2) * eps, as in batch_components."""
    eps = rng.standard_normal(np.shape(mu))
    return np.asarray(mu) + np.exp(np.asarray(logvar) / 2.0) * eps


def kl_loss(mu, logvar, prior: PriorSpec) -> float:
    """Closed-form KL against one prior, averaged over timesteps."""
    if prior.std <= 0:
        raise ConfigError("prior std must be positive")
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    logvar = np.atleast_2d(np.asarray(logvar, dtype=np.float64))
    return float(vae._kl_ts(mu, logvar, prior.mean, prior.std).mean())


def recon_loglik(x, mu_x, logvar_x) -> float:
    """Gaussian reconstruction log-likelihood averaged over timesteps."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mu_x = np.atleast_2d(np.asarray(mu_x, dtype=np.float64))
    logvar_x = np.atleast_2d(np.asarray(logvar_x, dtype=np.float64))
    return float(vae._loglik_ts(x, mu_x, logvar_x).mean())


def eval_loss(params, window, prior: PriorSpec, eval_samples=10, rng=None) -> dict[str, float]:
    """Unweighted loss kl - loglik of one window through batch_components, with
    the networks at the precision `detect` runs them in."""
    if rng is None:
        rng = np.random.default_rng(0)
    x = as_windows(window).values
    eps = rng.standard_normal((eval_samples, 1) + (x.shape[1], params.latent.total))
    _, _, kl_ts, ll_ts = vae.batch_components(
        params.in_compute_dtype(), x, prior.mean[None], prior.std, eps
    )
    kl = float(kl_ts.mean())
    loglik = float(ll_ts.mean())
    return {"loss": kl - loglik, "kl": kl, "loglik": loglik}


def build_prior(model, latent, cluster: int) -> PriorSpec:
    """The prior of one cluster: one row of the prior table."""
    mean = vae.prior_table(model, latent)[cluster]
    return PriorSpec(mean, latent.prior_std, data.N_KPIS)


def lloyd(points: np.ndarray, centroids: np.ndarray):
    """Lloyd iteration as `concepts.lloyd` documents it, one cluster at a time.
    Returns (centroids, labels, inertia, inertia history): the inertia after
    the seeding and after each round, which `concepts.lloyd` does not keep."""
    k = centroids.shape[0]
    centroids = centroids.copy()
    labels = concepts._assign(points, centroids)
    history = [concepts._inertia(points, centroids, labels)]
    for _ in range(concepts.LLOYD_MAX_ITER):
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        empties = [j for j in range(k) if not (labels == j).any()]
        if empties:
            d2 = ((points - new_centroids[labels]) ** 2).sum(axis=1)
            new_centroids[empties] = points[np.argsort(-d2, kind="stable")[: len(empties)]]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        new_labels = concepts._assign(points, centroids)
        history.append(concepts._inertia(points, centroids, new_labels))
        converged = (new_labels == labels).all() and not empties
        labels = new_labels
        if converged or shift < concepts.LLOYD_TOL:
            break
    return centroids, labels, history[-1], history


def zscores(stats: anomaly.LatentStats, cluster: int | None, mu) -> np.ndarray:
    """Standardize concept-dim encoder means against the cluster's stats.

    `mu` may be (N_KPIS,), (T, latent) or anything whose trailing axis
    holds at least N_KPIS entries; extra latent dims are ignored.
    Unknown or under-observed clusters use the global statistics.
    """
    m = np.asarray(mu, dtype=np.float64)[..., : data.N_KPIS]
    if cluster is not None and cluster in stats.cluster_mean:
        mean, std = stats.cluster_mean[cluster], stats.cluster_std[cluster]
    else:
        mean, std = stats.global_mean, stats.global_std
    return (m - mean) / std


class Adam:
    """Adam over a dict of named tensors, updated in place, one name at a time."""

    def __init__(self, tensors: dict[str, np.ndarray], lr: float = 1e-3):
        self.tensors = tensors
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - nn.ADAM_BETA1**self.t
        b2t = 1.0 - nn.ADAM_BETA2**self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= nn.ADAM_BETA1
            m += (1.0 - nn.ADAM_BETA1) * g
            v *= nn.ADAM_BETA2
            v += (1.0 - nn.ADAM_BETA2) * g * g
            self.tensors[k] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + nn.ADAM_EPS)


def recurrent_weight_blocks(params):
    """Yield (name, block) for every square recurrent gate kernel."""
    H = params.arch.hidden
    for k, v in params.tensors.items():
        if k.endswith(".Wh"):
            for g, gate in enumerate("ifgo"):
                yield f"{k}[{gate}]", v[:, g * H : (g + 1) * H]


def expected_window_count(run_length: int, length: int, stride: int) -> int:
    """Closed form for the windows produced by one consecutive run."""
    if run_length < length:
        return 0
    return (run_length - length) // stride + 1


def synth_cluster_of(element_id: str, n_clusters: int) -> int:
    """Ground-truth cluster of a synthetic element (round-robin rule)."""
    return int(element_id.removeprefix("el")) % n_clusters


def inject(kpis: tuple, kpi_index: int, magnitude: float) -> tuple:
    """Multiply one KPI by `magnitude`, keeping total = eNodeB + MME exact.

    The labeled KPI is always assigned old * magnitude literally so the
    ground-truth contract holds bit-exactly; dependent KPIs are recomputed.
    """
    cdr, td, enb, mme, att = kpis
    if kpi_index == 4:
        att = att * magnitude
    elif kpi_index in (2, 3):
        enb, mme = (enb * magnitude, mme) if kpi_index == 2 else (enb, mme * magnitude)
        td = enb + mme
    elif kpi_index in (0, 1):
        new_td = td * magnitude
        enb = enb * magnitude
        mme = new_td - enb  # keeps the sum identity exact
        td = new_td
    else:
        raise ConfigError(f"kpi_index out of range: {kpi_index}")
    # the drop rate is assigned directly when labeled: the contract is bit-exact
    cdr = cdr * magnitude if kpi_index == 0 else 100.0 * td / max(att, 1.0)
    return (cdr, td, enb, mme, att)


def synth_generate(config: data.SynthConfig) -> tuple[data.Records, list[data.AnomalyLabel]]:
    """`data.synth_generate` one element and one injected cell at a time: per
    element three draws of `days` values (eNodeB drops, MME drops, attempts),
    then per injected cell one draw of its KPI and `inject`."""
    seq = np.random.SeedSequence(config.seed)
    draw_ss, inject_ss = seq.spawn(2)
    rng = np.random.default_rng(draw_ss)
    means, scales = (a.tolist() for a in data._profiles(config.clusters))
    columns = []  # per element the five KPI columns, each one value per day
    for e in range(config.elements):
        m, s = means[e % config.clusters], scales[e % config.clusters]
        enb = np.maximum(0.0, np.round(rng.normal(m[0], s[0], config.days)))
        mme = np.maximum(0.0, np.round(rng.normal(m[1], s[1], config.days)))
        att = np.maximum(1.0, np.round(rng.normal(m[2], s[2], config.days)))
        td = enb + mme
        columns.append((100.0 * td / np.maximum(att, 1.0), td, enb, mme, att))
    ids = [f"el{e:04d}" for e in range(config.elements)]
    records = data.Records(
        element_ids=np.repeat(np.array(ids, dtype=object), config.days),
        dates=np.tile(np.arange(1, config.days + 1), config.elements),
        kpis=np.array(columns).transpose(0, 2, 1).reshape(-1, data.N_KPIS),
    )

    labels = []
    n_cells = config.elements * config.days
    n_anom = int(round(config.anomaly_rate * n_cells))
    if n_anom > 0:
        rng_inject = np.random.default_rng(inject_ss)
        cells = np.sort(rng_inject.choice(n_cells, size=n_anom, replace=False))
        for idx in cells.tolist():
            positive = np.flatnonzero(records.kpis[idx] > 0)
            kpi_index = int(positive[rng_inject.integers(len(positive))])
            kpis = tuple(records.kpis[idx])
            records.kpis[idx] = inject(kpis, kpi_index, config.anomaly_magnitude)
            labels.append(
                data.AnomalyLabel(ids[idx // config.days], idx % config.days + 1, kpi_index)
            )
    return records, labels


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(x: np.ndarray, p: dict[str, np.ndarray]):
    """Run one LSTM layer over (B, T, D); returns hidden states and a cache."""
    B, T, _ = x.shape
    H = p["Wh"].shape[0]
    h = np.zeros((B, T, H))
    c = np.zeros((B, T, H))
    gates = np.zeros((B, T, 4 * H))  # activated i, f, g, o
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    for t in range(T):
        a = x[:, t] @ p["Wx"] + h_prev @ p["Wh"] + p["b"]
        i = sigmoid(a[:, :H])
        f = sigmoid(a[:, H : 2 * H])
        g = np.tanh(a[:, 2 * H : 3 * H])
        o = sigmoid(a[:, 3 * H :])
        c_t = f * c_prev + i * g
        h_t = o * np.tanh(c_t)
        gates[:, t, :H] = i
        gates[:, t, H : 2 * H] = f
        gates[:, t, 2 * H : 3 * H] = g
        gates[:, t, 3 * H :] = o
        c[:, t] = c_t
        h[:, t] = h_t
        h_prev, c_prev = h_t, c_t
    return h, (x, h, c, gates)


def lstm_backward(dh_out: np.ndarray, cache, p: dict[str, np.ndarray]):
    """Backprop through time for one layer.

    dh_out is the gradient wrt every hidden state (B, T, H). Returns the
    gradient wrt the layer input plus parameter gradients.
    """
    x, h, c, gates = cache
    B, T, H = h.shape
    dx = np.zeros_like(x)
    dWx = np.zeros_like(p["Wx"])
    dWh = np.zeros_like(p["Wh"])
    db = np.zeros_like(p["b"])
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    zeros = np.zeros((B, H))
    da = np.empty((B, 4 * H))
    for t in range(T - 1, -1, -1):
        i = gates[:, t, :H]
        f = gates[:, t, H : 2 * H]
        g = gates[:, t, 2 * H : 3 * H]
        o = gates[:, t, 3 * H :]
        c_prev = c[:, t - 1] if t > 0 else zeros
        h_prev = h[:, t - 1] if t > 0 else zeros
        dh_t = dh_out[:, t] + dh_next
        tanh_c = np.tanh(c[:, t])
        dc = dc_next + dh_t * o * (1.0 - tanh_c**2)
        da[:, :H] = (dc * g) * i * (1.0 - i)
        da[:, H : 2 * H] = (dc * c_prev) * f * (1.0 - f)
        da[:, 2 * H : 3 * H] = (dc * i) * (1.0 - g**2)
        da[:, 3 * H :] = (dh_t * tanh_c) * o * (1.0 - o)
        dc_next = dc * f
        dWx += x[:, t].T @ da
        dWh += h_prev.T @ da
        db += da.sum(axis=0)
        dx[:, t] = da @ p["Wx"].T
        dh_next = da @ p["Wh"].T
    return dx, {"Wx": dWx, "Wh": dWh, "b": db}


def nn_lstm_forward(x: np.ndarray, p: dict[str, np.ndarray]):
    """`nn.lstm_forward` over a batch-first (B, T, D) x, on a time-major copy
    of it and new buffers and gate constants, in the dtype and array type of
    x; returns the batch-first view of h and the cache."""
    B, T, _ = x.shape
    H = p["Wh"].shape[0]
    h, c, tanh_c, gates = (
        np.empty_like(x, shape=(T, B, w), order="C") for w in (H, H, H, 4 * H)
    )
    out = nn.LstmBuffers(h, c, tanh_c, gates, nn.step_scratch(x, B, H))
    xs = x.transpose(1, 0, 2).copy(order="C")
    h, cache = nn.lstm_forward(xs, p, out, nn.gate_constants([p])[0])
    return h.transpose(1, 0, 2), cache


def nn_lstm_backward(dh_out: np.ndarray, cache, p: dict[str, np.ndarray]):
    """`nn.lstm_backward` of a batch-first (B, T, H) dh_out into new gradient
    arrays, gate gradients and input gradient; returns the batch-first view
    of the input gradient and the gradients."""
    xs, buf = cache
    da = np.empty_like(buf.gates)
    grads = {k: np.empty_like(v) for k, v in p.items()}
    dh = dh_out.transpose(1, 0, 2)
    dx = nn.lstm_backward(dh, cache, p, grads, (da, nn.gate_views(da)), np.empty_like(xs))
    return dx.transpose(1, 0, 2), grads


@dataclass
class SequenceWindow:
    element_id: str
    start_date: int
    values: np.ndarray  # (T, 5) in [0, 1]
    raw: np.ndarray  # (T, 5) original units


def window_sequences(
    records: list[KpiRecord],
    length: int,
    stride: int = 1,
    stats: data.NormStats | None = None,
) -> list[SequenceWindow]:
    """Slice each element's consecutive-date runs into fixed-length windows.

    Runs shorter than `length` yield nothing; no padding is ever applied.
    Windows are returned sorted by (element_id, start_date).
    """
    if length < 1 or stride < 1:
        raise ConfigError("length and stride must be >= 1")
    by_element: dict[str, list[KpiRecord]] = {}
    for r in records:
        by_element.setdefault(r.element_id, []).append(r)
    windows: list[SequenceWindow] = []
    for element_id in sorted(by_element):
        rows = sorted(by_element[element_id], key=lambda r: r.date)
        run: list[KpiRecord] = []
        runs: list[list[KpiRecord]] = []
        for r in rows:
            if run and r.date != run[-1].date + 1:
                runs.append(run)
                run = []
            run.append(r)
        if run:
            runs.append(run)
        for run in runs:
            raw = np.array([r.kpis for r in run], dtype=np.float64)
            norm = data.normalize(raw, stats) if stats is not None else raw
            for start in range(0, len(run) - length + 1, stride):
                windows.append(
                    SequenceWindow(
                        element_id=element_id,
                        start_date=run[start].date,
                        values=norm[start : start + length].copy(),
                        raw=raw[start : start + length].copy(),
                    )
                )
    return windows


@dataclass
class ElementProfile:
    element_id: str
    profile: np.ndarray  # (5,) per-KPI mean in normalized [0, 1] space


def element_profiles(train: list[KpiRecord], stats: data.NormStats) -> list[ElementProfile]:
    """Arithmetic mean of each normalized KPI per element, sorted by id."""
    if not train:
        raise ValidationError("cannot build profiles from an empty dataset")
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for r in train:
        v = data.normalize(np.asarray(r.kpis), stats)
        if r.element_id in sums:
            sums[r.element_id] += v
            counts[r.element_id] += 1
        else:
            sums[r.element_id] = v
            counts[r.element_id] = 1
    return [
        ElementProfile(eid, sums[eid] / counts[eid]) for eid in sorted(sums)
    ]


class NoFloat64(np.ndarray):
    """An array view whose ufuncs fail when a float64 operand or result
    appears. Results are wrapped again, so a kernel fed these views is checked
    at every ufunc its inputs reach, in-place and `out=` forms included; an
    explicit cast such as `np.asarray(a, np.float64)` leaves the check."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, NoFloat64) else a

        args = [plain(a) for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = getattr(ufunc, method)(*args, **kwargs)
        results = result if isinstance(result, tuple) else (result,)
        for a in (*args, *results):
            if isinstance(a, (np.ndarray, np.generic)) and a.dtype == np.float64:
                raise AssertionError(f"float64 in np.{ufunc.__name__}")
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(NoFloat64) if isinstance(result, np.ndarray) else result


def rewrite_checkpoint(src, dst, edit) -> None:
    """Copy a checkpoint, passing its rows, {field: token}, through `edit`
    first. The `sha256` entry, last and None unless the edit sets it, becomes
    the hash of the new text and the body; the copy has no `sha256` row when
    the edit deletes it."""
    blob = src.read_bytes()
    end = blob.index(b"\nsha256 ") + 1
    first, *lines = blob[:end].decode("utf-8").splitlines()
    body = blob[blob.index(b"\n", end) + 1 :]
    rows = dict(ln.split(" ", 1) for ln in lines)
    rows["sha256"] = None
    edit(rows)
    digest = rows.pop("sha256", False)
    text = (first + "\n" + "".join(f"{k} {v}\n" for k, v in rows.items())).encode()
    if digest is None:
        digest = hashlib.sha256(text + body).hexdigest()
    sha_row = b"" if digest is False else f"sha256 {digest}\n".encode("utf-8")
    dst.write_bytes(text + sha_row + body)


def legacy_checkpoint(params, path, version: int) -> None:
    """`params` in the checkpoint format of the releases before -v3: a magic
    number, the big-endian u64 length of a JSON header, the header and the
    float64 body."""
    header = {
        "format": f"kpivae-ckpt-v{version}",
        "arch": asdict(params.arch),
        "latent": asdict(params.latent),
        "sha256": hashlib.sha256(params.flat).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(b"KPIVAE\x00\x01" + struct.pack(">Q", len(blob)) + blob + params.flat.tobytes())

"""Loss-ranked anomaly detection and per-KPI attribution.

A timestep is anomalous when its evaluation loss (kl - loglik) is high;
the responsible KPI is read off the concept dimensions of the encoder mean.
Each concept dimension is standardized against the healthy per-cluster
distribution of that dimension, so a latent Z-score far above the threshold
names the KPI that moved.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .concepts import ConceptModel, assign_concept
from .data import (
    KPI_NAMES, N_KPIS, Windows, group_means, read_artifact, write_artifact, write_csv
)
from .errors import ConfigError, ParseError, ValidationError
from .vae import (
    BATCH_WINDOWS,
    VaeParams,
    batch_components,
    encode_windows,
    prior_table,
    window_clusters,
)

LATENTSTATS_TAG = "kpivae-latentstats-v1"

# clusters with fewer healthy timesteps than this fall back to global stats
MIN_CLUSTER_TIMESTEPS = 30
STD_FLOOR = 1e-6
Z_THRESHOLD = 15.0

# most threads, the calling one included, that score detect's BATCH_WINDOWS
# chunks; each more adds a chunk's noise and activations, a BLAS buffer and a
# malloc arena to the peak memory
_MAX_WORKERS = 4

REPORT_HEADER = (
    ["rank", "element_id", "date", "cluster"]
    + list(KPI_NAMES)
    + ["loss", "loglik", "kl"]
    + [f"z_{name}" for name in KPI_NAMES]
    + ["flagged", "stats_fallback"]
)


@dataclass
class LatentStats:
    """Mean/std of per-timestep encoder means on healthy data, per concept dim.

    Clusters observed with fewer than MIN_CLUSTER_TIMESTEPS timesteps are not
    given their own entry; lookups for them (and for unknown clusters) use the
    global statistics. Stds are population stds floored at STD_FLOOR.
    """

    concept_dims: int
    global_mean: np.ndarray  # (concept_dims,)
    global_std: np.ndarray
    cluster_mean: dict[int, np.ndarray]
    cluster_std: dict[int, np.ndarray]


@dataclass(eq=False)
class Report:
    """Scored (element, date) cells, one row per cell in rank order: by
    descending loss, so row r has rank r + 1."""

    element_id: np.ndarray  # (n,) str
    date: np.ndarray  # (n,) calendar day ordinal
    cluster: np.ndarray  # (n,)
    kpis: np.ndarray  # (n, 5) original units
    loss: np.ndarray  # (n,) kl - loglik
    kl: np.ndarray
    loglik: np.ndarray
    z: np.ndarray  # (n, 5) latent z-scores of the concept dims
    flagged: np.ndarray  # (n, 5) bool, z (|z| if symmetric) strictly above the threshold
    attribution: np.ndarray  # (n,) str, flagged KPI names strongest first, "|"-joined
    stats_fallback: np.ndarray  # (n,) bool, cluster unknown/under-observed, global stats used

    def __len__(self) -> int:
        return len(self.loss)


def _floored_std(rows: np.ndarray) -> np.ndarray:
    return np.maximum(rows.std(axis=0), STD_FLOOR)


def fit_latent_stats(
    params: VaeParams, windows: Windows, assignment: dict[str, int]
) -> LatentStats:
    """Standardization stats for concept dims, fitted on healthy windows."""
    if not len(windows):
        raise ValidationError("cannot fit latent stats on zero windows")
    clusters = window_clusters(windows, assignment)
    c = params.latent.concept_dims
    mu = encode_windows(params, windows)[0][..., :c]
    # each cluster's timesteps, windows in input order; clusters in order of
    # first appearance, which fixes the row order of the global stats
    by_cluster = {cl: mu[clusters == cl].reshape(-1, c) for cl in dict.fromkeys(clusters.tolist())}
    all_rows = np.concatenate(list(by_cluster.values()))
    stats = LatentStats(
        concept_dims=c,
        global_mean=all_rows.mean(axis=0),
        global_std=_floored_std(all_rows),
        cluster_mean={},
        cluster_std={},
    )
    for j, m in by_cluster.items():
        if m.shape[0] >= MIN_CLUSTER_TIMESTEPS:
            stats.cluster_mean[j] = m.mean(axis=0)
            stats.cluster_std[j] = _floored_std(m)
    return stats


def resolve_clusters(windows: Windows, model: ConceptModel) -> dict[str, int]:
    """Cluster per element; elements unseen at fit time take the centroid
    nearest to their mean normalized KPI vector over unique dates."""
    # the first timestep of each cell; in cell order an element's dates ascend
    first = np.unique(windows.cell, return_index=True)[1]
    element = windows.element[first // windows.cell.shape[1]]
    present, cell_element = np.unique(element, return_inverse=True)
    ids = [windows.elements[e] for e in present.tolist()]
    new = [i for i, eid in enumerate(ids) if eid not in model.assignment]
    values = windows.values.reshape(-1, N_KPIS)[first]
    nearest = assign_concept(group_means(cell_element, values, len(ids))[new], model)
    out = {eid: model.assignment.get(eid) for eid in ids}
    out.update(zip([ids[i] for i in new], nearest.tolist()))
    return out


def _worker_count() -> int:
    """Usable CPUs, at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _score_chunks(score, n: int, noise_shape: tuple[int, int, int], rng) -> None:
    """Call score(chunk, eps) on each BATCH_WINDOWS chunk of n windows.

    Up to _worker_count() threads, this one among them, take the chunks in
    order, each as soon as it is free; numpy releases the GIL in their GEMMs
    and ufuncs. A chunk's (S, B, T, total) noise is drawn from `rng` under the
    lock that hands the chunk out, so it is drawn in chunk order and the result
    does not depend on the thread count; each thread holds one chunk at a time.
    One worker starts no thread. Once a chunk fails no chunk is handed out, and
    when the running ones are done the error of the first failed chunk is
    raised: the error the serial loop raises.
    """
    s, t, total = noise_shape
    starts = iter(range(0, n, BATCH_WINDOWS))
    lock, errors = threading.Lock(), {}

    def take():
        with lock:
            start = next(starts, None)
            if start is None or errors:
                return None
            b = slice(start, min(start + BATCH_WINDOWS, n))
            return b, rng.standard_normal((s, b.stop - b.start, t, total))

    def work():
        while (job := take()) is not None:
            try:
                score(*job)
            except Exception as e:
                with lock:
                    errors[job[0].start] = e
            del job  # frees the noise before the next chunk's is drawn

    workers = min(_worker_count(), -(-n // BATCH_WINDOWS))
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:  # starts threads on submit
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]


def detect(
    params: VaeParams,
    windows: Windows,
    model: ConceptModel,
    stats: LatentStats,
    eval_samples: int = 10,
    seed: int = 0,
    loss_floor: float | None = None,
    top_k: int | None = None,
    z_threshold: float = Z_THRESHOLD,
    symmetric: bool = False,
) -> Report:
    """Score every timestep and report the cells by descending loss.

    Overlapping windows are deduplicated per (element_id, date), keeping the
    highest-loss occurrence (the first scored one on ties). With `loss_floor`
    only timesteps whose loss is strictly above the floor survive; `top_k`
    then truncates the ranking. Neither filter set means every scored
    timestep is reported. A KPI is flagged when its z-score (|z| when
    `symmetric`) is strictly above `z_threshold`.
    """
    if eval_samples < 1:
        raise ConfigError("eval_samples must be >= 1")
    if top_k is not None and top_k < 1:
        raise ConfigError("top_k must be >= 1")
    if stats.concept_dims != params.latent.concept_dims:
        raise ConfigError(
            f"latent stats have {stats.concept_dims} concept dims, "
            f"the checkpoint {params.latent.concept_dims}"
        )
    if any(not 0 <= j < model.k for j in stats.cluster_mean):
        raise ConfigError(f"latent stats name a cluster outside 0..{model.k - 1}")
    windows = windows[np.lexsort((windows.start, windows.element))]
    clusters = window_clusters(windows, resolve_clusters(windows, model))
    table = prior_table(model, params.latent)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = params.in_compute_dtype()

    # kl, loglik and concept-dim mu of every scored timestep
    x = windows.values
    n, length = x.shape[:2]
    kl, ll = np.empty((n, length)), np.empty((n, length))
    mu_c = np.empty((n, length, stats.concept_dims))

    def score(b, eps):  # writes only chunk b's rows
        mu, _, kl[b], ll[b] = batch_components(
            params, x[b], table[clusters[b]], params.latent.prior_std, eps
        )
        mu_c[b] = mu[..., : stats.concept_dims]

    _score_chunks(score, n, (eval_samples, length, params.latent.total), rng)
    kl, ll, mu_c = kl.ravel(), ll.ravel(), mu_c.reshape(n * length, stats.concept_dims)
    loss = kl - ll
    cell = windows.cell.ravel()

    # per cell the highest loss; lexsort is stable, so the earliest scored
    # timestep wins a tie
    order = np.lexsort((-loss, cell))
    keep = order[np.unique(cell[order], return_index=True)[1]]
    keep = keep[np.lexsort((cell[keep], -loss[keep]))]
    if loss_floor is not None:
        keep = keep[loss[keep] > loss_floor]
    if top_k is not None:
        keep = keep[:top_k]

    win, step = np.divmod(keep, length)
    cell_cluster = clusters[win]
    # z against each cell's cluster stats, or the global ones where it has none
    mean = np.tile(stats.global_mean, (model.k, 1))
    std = np.tile(stats.global_std, (model.k, 1))
    for j in stats.cluster_mean:
        mean[j], std[j] = stats.cluster_mean[j], stats.cluster_std[j]
    z = mu_c[keep]
    z -= mean[cell_cluster]
    z /= std[cell_cluster]
    score = np.abs(z) if symmetric else z
    flagged = score > z_threshold
    # names only for the rows that carry a flag, strongest first
    hit = np.flatnonzero(flagged.any(axis=1))
    attribution = np.full(keep.size, "", dtype=object)
    for r, order in zip(hit.tolist(), np.argsort(-score[hit], axis=1, kind="stable").tolist()):
        attribution[r] = "|".join(KPI_NAMES[i] for i in order if flagged[r, i])
    return Report(
        element_id=np.array(windows.elements, dtype=object)[windows.element[win]],
        date=windows.start[win] + step,
        cluster=cell_cluster,
        kpis=windows.raw[win, step],
        loss=loss[keep],
        kl=kl[keep],
        loglik=ll[keep],
        z=z,
        flagged=flagged,
        attribution=attribution,
        stats_fallback=~np.isin(cell_cluster, list(stats.cluster_mean)),
    )


def save_report(report: Report, path) -> None:
    columns = (
        np.arange(1, len(report) + 1), report.element_id, report.date, report.cluster,
        report.kpis, report.loss, report.loglik, report.kl, report.z,
        report.attribution, report.stats_fallback,
    )
    write_csv(path, REPORT_HEADER, columns)


def save_latent_stats(stats: LatentStats, path) -> None:
    rows = [["concept_dims", stats.concept_dims], ["global", *stats.global_mean, *stats.global_std]]
    for j in sorted(stats.cluster_mean):
        rows.append(["cluster", j, *stats.cluster_mean[j], *stats.cluster_std[j]])
    write_artifact(path, LATENTSTATS_TAG, rows)


def load_latent_stats(path) -> LatentStats:
    def width(rows):  # a stats row holds concept_dims means, then concept_dims stds
        return 2 * rows["concept_dims"][None][1][0]

    kinds = {
        "concept_dims": (None, int, 1),
        "global": (None, float, width),
        "cluster": (int, float, width),
    }
    rows = read_artifact(path, LATENTSTATS_TAG, kinds)
    if not rows["global"]:
        raise ParseError("missing global stats row")
    by_key = {None: rows["global"][None], **rows["cluster"]}
    split = {j: (line_no, *np.split(np.array(v), 2)) for j, (line_no, v) in by_key.items()}
    for line_no, _, std in sorted(split.values(), key=lambda row: row[0]):
        if (std <= 0).any():
            raise ParseError("latent stats need positive stds", line_no)
    _, mean, std = split.pop(None)
    cluster_mean = {j: m for j, (_, m, _) in split.items()}
    cluster_std = {j: s for j, (_, _, s) in split.items()}
    return LatentStats(rows["concept_dims"][None][1][0], mean, std, cluster_mean, cluster_std)

"""Concept extraction: cluster per-element KPI mean profiles with k-means.

Each cluster centroid, affinely rescaled from [0, 1] into [-1, 1], later
serves as the prior mean of one latent dimension per KPI.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import N_KPIS, NormStats, Records, group_means, normalize, read_artifact, write_artifact
from .errors import ParseError, ValidationError

CONCEPTS_TAG = "kpivae-concepts-v1"

LLOYD_MAX_ITER = 100
LLOYD_TOL = 1e-9


@dataclass
class ConceptModel:
    k: int
    centroids: np.ndarray  # (k, 5) in normalized profile space
    prior_means: np.ndarray | None  # (k, 5) in [-1, 1], filled by scale_centroids
    assignment: dict[str, int]
    inertia: float


def element_profiles(train: Records, stats: NormStats) -> tuple[list[str], np.ndarray]:
    """Sorted element ids and the (M, 5) mean of each element's normalized KPIs."""
    if not len(train):
        raise ValidationError("cannot build profiles from an empty dataset")
    ids, element = np.unique(np.asarray(train.element_ids, dtype=object), return_inverse=True)
    return ids.tolist(), group_means(element, normalize(train.kpis, stats), len(ids))


def _inertia(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((points - centroids[labels]) ** 2).sum())


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # squared Euclidean; np.argmin breaks ties toward the lowest index
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def kmeans_pp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D^2."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            centroids[j] = points[int(rng.integers(n))]
        else:
            probs = d2 / total
            centroids[j] = points[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, list]:
    """Lloyd iteration until an assignment fixpoint, a centroid shift below
    LLOYD_TOL, or LLOYD_MAX_ITER rounds.

    Empty clusters are re-seeded to the point farthest from its assigned
    centroid. Returns (centroids, labels, inertia, inertia history).
    """
    k = centroids.shape[0]
    centroids = centroids.copy()
    labels = _assign(points, centroids)
    history = [_inertia(points, centroids, labels)]
    for _ in range(LLOYD_MAX_ITER):
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        with np.errstate(invalid="ignore"):  # an empty cluster's mean is 0/0, re-seeded below
            new_centroids = group_means(labels, points, k)
        if empties.size:
            d2 = ((points - new_centroids[labels]) ** 2).sum(axis=1)
            new_centroids[empties] = points[np.argsort(-d2, kind="stable")[: empties.size]]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        new_labels = _assign(points, centroids)
        history.append(_inertia(points, centroids, new_labels))
        converged = (new_labels == labels).all() and not empties.size
        labels = new_labels
        if converged or shift < LLOYD_TOL:
            break
    return centroids, labels, history[-1], history


def kmeans_fit(profiles: tuple[list[str], np.ndarray], k: int, seed: int = 0) -> ConceptModel:
    """Fit k-means on (element ids, profiles) (k-means++ seeding, Lloyd iteration)."""
    ids, points = profiles
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(ids):
        raise ValidationError(f"k={k} exceeds the number of profiles ({len(ids)})")
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_seed(points, k, rng)
    centroids, labels, inertia, _ = lloyd(points, centroids)
    assignment = dict(zip(ids, labels.tolist()))
    return ConceptModel(k, centroids, None, assignment, inertia)


def scale_centroids(model: ConceptModel) -> ConceptModel:
    """Fill prior_means with the affine map 2c - 1 from [0,1] to [-1,1]."""
    c = model.centroids
    if c.min() < -1e-12 or c.max() > 1.0 + 1e-12:
        raise ValidationError(
            "centroids outside [0, 1]; profiles were not normalized before clustering"
        )
    model.prior_means = 2.0 * np.clip(c, 0.0, 1.0) - 1.0
    return model


def assign_concept(profiles: np.ndarray, model: ConceptModel) -> np.ndarray:
    """Index of the nearest centroid of each (M, 5) profile row; ties break
    toward the lowest index."""
    return _assign(np.asarray(profiles, dtype=np.float64), model.centroids)


@dataclass
class QualityReport:
    inertia: float
    sizes: dict[int, int]
    variances: dict[int, float]  # mean squared distance to centroid


def cluster_quality(model: ConceptModel, profiles: tuple[list[str], np.ndarray]) -> QualityReport:
    """Per-cluster size and variance plus total inertia, for elbow-style k picks."""
    points = np.asarray(profiles[1], dtype=np.float64)
    labels = _assign(points, model.centroids)
    sizes = {}
    variances = {}
    inertia = 0.0
    for j in range(model.k):
        members = points[labels == j]
        sizes[j] = int(len(members))
        if len(members):
            sq = ((members - model.centroids[j]) ** 2).sum(axis=1)
            variances[j] = float(sq.mean())
            inertia += float(sq.sum())
        else:
            variances[j] = 0.0
    return QualityReport(inertia=inertia, sizes=sizes, variances=variances)


def save_concept_model(model: ConceptModel, path) -> None:
    if model.prior_means is None:
        raise ValidationError("cannot persist a model without prior_means; run scale_centroids")
    rows = [["k", model.k], ["inertia", model.inertia]]
    rows += [["centroid", j, *model.centroids[j], *model.prior_means[j]] for j in range(model.k)]
    rows += [["assign", eid, model.assignment[eid]] for eid in sorted(model.assignment)]
    write_artifact(path, CONCEPTS_TAG, rows)


def load_concept_model(path) -> ConceptModel:
    kinds = {
        "k": (None, int, 1),
        "inertia": (None, float, 1),
        # a centroid row holds its 5 centroid values, then its 5 prior means
        "centroid": (int, float, 2 * N_KPIS),
        "assign": (str, int, 1),
    }
    rows = read_artifact(path, CONCEPTS_TAG, kinds)
    if not rows["k"] or not rows["inertia"]:
        raise ParseError("missing k or inertia row")
    (k_line, (k,)), (inertia,) = rows["k"][None], rows["inertia"][None][1]
    if k < 1:
        raise ParseError(f"k must be >= 1, got {k}", k_line)
    # the count first, so that a huge k builds nothing
    if len(rows["centroid"]) != k or sorted(rows["centroid"]) != list(range(k)):
        raise ParseError(f"expected one centroid row for each of 0..{k - 1}", k_line)
    for line_no, (j,) in rows["assign"].values():
        if not 0 <= j < k:
            raise ParseError(f"cluster assignment {j} outside 0..{k - 1}", line_no)
    values = np.array([rows["centroid"][j][1] for j in range(k)])
    assignment = {eid: j for eid, (_, (j,)) in rows["assign"].items()}
    centroids, priors = values[:, :N_KPIS].copy(), values[:, N_KPIS:].copy()
    return ConceptModel(k, centroids, priors, assignment, inertia)


def quality_csv_rows(report: QualityReport) -> list[list]:
    rows = [["cluster", "size", "variance"]]
    for j in sorted(report.sizes):
        rows.append([j, report.sizes[j], repr(report.variances[j])])
    return rows

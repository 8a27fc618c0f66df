import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from kpivae import concepts, data, vae
from kpivae.errors import ParseError, ValidationError


def profiles_from(points):
    return [f"e{i:02d}" for i in range(len(points))], np.asarray(points, dtype=np.float64)


def exhaustive_best_inertia(points, k):
    """Minimum inertia over every partition of the points into <= k groups."""
    points = np.asarray(points)
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        total = 0.0
        for j in range(k):
            members = points[[i for i in range(n) if assign[i] == j]]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


class TestElementProfiles:
    def test_mean_of_normalized_days(self):
        recs = oracles.records([
            oracles.KpiRecord("A", 1, (0.0, 0.0, 0.0, 0.0, 0.0)),
            oracles.KpiRecord("A", 2, (10.0, 4.0, 2.0, 2.0, 100.0)),
            oracles.KpiRecord("B", 1, (10.0, 4.0, 2.0, 2.0, 100.0)),
        ])
        stats = data.fit_normalization(recs)
        ids, profs = concepts.element_profiles(recs, stats)
        assert ids == ["A", "B"]
        assert np.allclose(profs[0], 0.5)
        assert np.allclose(profs[1], 1.0)

    def test_single_day_profile_is_that_day(self):
        recs = oracles.records([
            oracles.KpiRecord("A", 1, (1.0, 2.0, 1.0, 1.0, 10.0)),
            oracles.KpiRecord("B", 1, (3.0, 6.0, 3.0, 3.0, 30.0)),
        ])
        stats = data.fit_normalization(recs)
        _, profs = concepts.element_profiles(recs, stats)
        assert np.array_equal(profs[0], data.normalize(recs.kpis[0], stats))


class TestKmeans:
    def test_k1_centroid_is_global_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(12, 5))
        model = concepts.kmeans_fit(profiles_from(pts), 1)
        assert np.allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)
        assert set(model.assignment.values()) == {0}
        inertia = concepts.inertia(model, profiles_from(pts))
        assert inertia == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(6, 5))
        model = concepts.kmeans_fit(profiles_from(pts), 6)
        assert concepts.inertia(model, profiles_from(pts)) == pytest.approx(0.0, abs=1e-12)

    def test_two_tight_groups_recovered(self):
        pts = np.array(
            [[0.1] * 5, [0.11] * 5, [0.09] * 5, [0.9] * 5, [0.91] * 5, [0.89] * 5]
        )
        model = concepts.kmeans_fit(profiles_from(pts), 2, seed=0)
        labels = [model.assignment[f"e{i:02d}"] for i in range(6)]
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]
        inertia = concepts.inertia(model, profiles_from(pts))
        assert inertia == pytest.approx(exhaustive_best_inertia(pts, 2), abs=1e-9)

    def test_partition_same_under_input_reordering(self):
        pts = np.array(
            [[0.1] * 5, [0.12] * 5, [0.5] * 5, [0.52] * 5, [0.9] * 5, [0.88] * 5]
        )
        def groups(order):
            ids, points = profiles_from(pts)
            shuffled = ([ids[i] for i in order], points[list(order)])
            model = concepts.kmeans_fit(shuffled, 3, seed=4)
            byc = {}
            for eid, c in model.assignment.items():
                byc.setdefault(c, set()).add(eid)
            return frozenset(frozenset(v) for v in byc.values())

        assert groups(range(6)) == groups([5, 3, 1, 0, 2, 4])

    def test_k_bounds(self):
        profs = profiles_from(np.zeros((3, 5)))
        with pytest.raises(ValidationError):
            concepts.kmeans_fit(profs, 0)
        with pytest.raises(ValidationError):
            concepts.kmeans_fit(profs, 4)

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(10, 5))
        a = concepts.kmeans_fit(profiles_from(pts), 3, seed=7)
        b = concepts.kmeans_fit(profiles_from(pts), 3, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.assignment == b.assignment

    def test_inertia_is_the_one_lloyd_ends_at(self):
        # bit for bit, so `concepts` prints the inertia of the fit it made
        rng = np.random.default_rng(9)
        for seed in range(40):
            pts = rng.uniform(size=(int(rng.integers(2, 30)), 5))
            k = int(rng.integers(1, min(len(pts), 6) + 1))
            model = concepts.kmeans_fit(profiles_from(pts), k, seed=seed)
            seeds = concepts.kmeans_pp_seed(pts, k, np.random.default_rng(seed))
            assert concepts.inertia(model, profiles_from(pts)) == oracles.lloyd(pts, seeds)[2]

    @settings(max_examples=25, deadline=None)
    @given(
        pts=arrays(
            np.float64,
            st.tuples(st.integers(3, 10), st.just(5)),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    def test_lloyd_history_non_increasing(self, pts):
        rng = np.random.default_rng(0)
        k = min(3, len(np.unique(pts, axis=0)))
        seeds = concepts.kmeans_pp_seed(pts, k, rng)
        _, _, _, history = oracles.lloyd(pts, seeds)
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        pts=arrays(
            np.float64,
            st.tuples(st.integers(4, 30), st.just(5)),
            elements=st.floats(0, 1, allow_nan=False),
        ),
        k=st.integers(1, 4),
        far=st.integers(0, 2),
    )
    def test_lloyd_matches_the_per_cluster_loop(self, pts, k, far):
        # `far` seeds start far from every point, so their clusters start
        # empty and are re-seeded; their 0/0 means must not warn
        seeds = pts[:k].copy()
        seeds[: min(far, k)] += 5.0
        got = concepts.lloyd(pts, seeds)
        want = oracles.lloyd(pts, seeds)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])

    def test_assignment_is_nearest_centroid(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(15, 5))
        profs = profiles_from(pts)
        model = concepts.kmeans_fit(profs, 4, seed=1)
        for element_id, profile in zip(*profs):
            d2 = ((model.centroids - profile) ** 2).sum(axis=1)
            assert model.assignment[element_id] == int(d2.argmin())


class TestScalingAndAssign:
    def test_affine_map_endpoints(self):
        model = concepts.ConceptModel(
            centroids=np.array([[0.0] * 5, [0.5] * 5, [1.0] * 5]),
            assignment={},
        )
        assert np.allclose(model.prior_means[0], -1.0)
        assert np.allclose(model.prior_means[1], 0.0)
        assert np.allclose(model.prior_means[2], 1.0)

    def test_out_of_range_centroid_errors(self):
        model = concepts.ConceptModel(centroids=np.array([[1.5] * 5]), assignment={})
        # checked where the prior means are used
        with pytest.raises(ValidationError):
            vae.prior_table(model, vae.LatentConfig())

    @given(
        c=arrays(
            np.float64, st.tuples(st.integers(1, 5), st.just(5)),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    def test_scaling_bijective(self, c):
        model = concepts.ConceptModel(centroids=c, assignment={})
        assert np.allclose((model.prior_means + 1.0) / 2.0, c, atol=1e-12)
        assert model.prior_means.min() >= -1.0 and model.prior_means.max() <= 1.0

    def test_tie_breaks_to_lowest_index(self):
        model = concepts.ConceptModel(
            centroids=np.array([[0.0] * 5, [1.0] * 5]),
            assignment={},
        )
        assert concepts.assign_concept(np.full((1, 5), 0.5), model).tolist() == [0]

    def test_exact_centroid_assigns_to_it(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(9, 5))
        model = concepts.kmeans_fit(profiles_from(pts), 3, seed=2)
        assert concepts.assign_concept(model.centroids, model).tolist() == [0, 1, 2]


class TestQualityAndPersistence:
    def test_two_point_cluster_variance(self):
        pts = np.zeros((2, 5))
        pts[1, 0] = 1.0
        model = concepts.kmeans_fit(profiles_from(pts), 1)
        sizes, variances = concepts.cluster_quality(model, profiles_from(pts))
        assert sizes.tolist() == [2]
        assert variances[0] == pytest.approx(0.25)

    def test_k_equals_n_variances_zero(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(4, 5))
        model = concepts.kmeans_fit(profiles_from(pts), 4)
        _, variances = concepts.cluster_quality(model, profiles_from(pts))
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in variances)

    def test_quality_order_invariant(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(size=(8, 5))
        profs = profiles_from(pts)
        model = concepts.kmeans_fit(profs, 2, seed=3)
        a = concepts.cluster_quality(model, profs)
        b = concepts.cluster_quality(model, (profs[0][::-1], profs[1][::-1]))
        assert a[0].tolist() == b[0].tolist()
        assert a[1] == pytest.approx(b[1])

    def test_quality_csv_rows_schema(self, tmp_path):
        path = tmp_path / "quality.csv"
        concepts.save_quality(np.array([2, 3]), np.array([0.1, 0.2]), path)
        assert path.read_text() == "cluster,size,variance\n0,2,0.1\n1,3,0.2\n"

    def test_empty_cluster_has_size_zero_and_variance_zero(self, tmp_path):
        centroids = np.array([[0.1] * data.N_KPIS, [0.9] * data.N_KPIS])
        model = concepts.ConceptModel(centroids, assignment={})
        pts = np.random.default_rng(8).uniform(0.0, 0.3, size=(4, data.N_KPIS))
        sizes, variances = concepts.cluster_quality(model, profiles_from(pts))
        assert sizes.tolist() == [4, 0]
        assert variances[0] > 0.0 and variances[1] == 0.0
        path = tmp_path / "quality.csv"
        concepts.save_quality(sizes, variances, path)
        assert path.read_text().splitlines()[2] == "1,0,0.0"

    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(10, 5))
        model = concepts.kmeans_fit(profiles_from(pts), 3, seed=5)
        p = tmp_path / "model.txt"
        concepts.save_concept_model(model, p)
        loaded = concepts.load_concept_model(p)
        assert loaded.k == model.k
        assert np.array_equal(loaded.centroids, model.centroids)
        assert loaded.prior_means.tobytes() == model.prior_means.tobytes()
        assert loaded.assignment == model.assignment

    def test_same_centroid_spelled_twice_rejected(self, tmp_path):
        values = [0.5] * 5
        p = tmp_path / "model.txt"
        rows = [["centroid", 0, *values], ["centroid", "00", *values]]
        data.write_artifact(p, concepts.CONCEPTS_TAG, rows)
        with pytest.raises(ParseError, match="line 3: repeated 'centroid 0' row"):
            concepts.load_concept_model(p)

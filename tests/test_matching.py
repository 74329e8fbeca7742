import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facepipe.matching import (
    Gallery,
    IdentityDistances,
    MatchAccountingError,
    ZeroNormError,
    cmc,
    identify,
    roc,
)


def cos_dist(a, b) -> float:
    """Cosine distance through the gallery kernel, one entry and a one-row batch."""
    return float(Gallery([("g", a)]).distances(np.asarray(b, dtype=float)[None])[0, 0])


class TestCosineDistance:
    def test_equal_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cos_dist(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cos_dist([1.0, 0.0], [0.0, 5.0]) == pytest.approx(1.0)

    def test_opposite(self):
        assert cos_dist([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormError):
            cos_dist([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ZeroNormError):
            cos_dist([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroNormError):
            Gallery([("g", [1.0, 0.0])]).distances(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_symmetry_to_rounding(self):
        # Gallery norms are pairwise sums and probe norms dot products (the
        # routines every report was produced with), so swapping the roles of
        # a and b can move the distance by an ulp or two, never more.
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            assert cos_dist(a, b) == pytest.approx(cos_dist(b, a), rel=0, abs=1e-15)

    @given(st.floats(0.001, 1e6), st.floats(0.001, 1e6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, lam, mu, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        base = cos_dist(a, b)
        scaled = cos_dist(lam * a, mu * b)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(1)
        gallery = Gallery([(f"s{i}", rng.normal(size=4)) for i in range(10)])
        d = gallery.distances(rng.normal(size=(100, 4)))
        assert d.shape == (100, 10)
        assert ((0.0 <= d) & (d <= 2.0)).all()

    def test_batch_rows_match_single_probes(self):
        rng = np.random.default_rng(2)
        gallery = Gallery([(f"s{i}", rng.normal(size=6)) for i in range(7)])
        probes = rng.normal(size=(5, 6))
        batch = gallery.distances(probes)
        for p, row in zip(probes, batch):
            assert row.tobytes() == gallery.distances(p[None])[0].tobytes()

    def test_dimension_mismatch_raises(self):
        gallery = Gallery([("g", [1.0, 0.0, 0.0])])
        with pytest.raises(ValueError, match="dimension"):
            gallery.distances(np.ones((2, 4)))


class TestIdentify:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(3, 6))
        gallery = Gallery([("a", feats[0]), ("b", feats[1]), ("c", feats[2])])
        ranked = identify(feats[1], gallery)
        assert ranked[0][0] == "b"
        assert ranked[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_blend(self):
        g1, g2, g3 = np.eye(3)
        gallery = Gallery([("g1", g1), ("g2", g2), ("g3", g3)])
        ranked = identify(0.9 * g1 + 0.1 * g2, gallery)
        assert [sid for sid, _ in ranked] == ["g1", "g2", "g3"]

    def test_tie_keeps_gallery_order(self):
        v = np.array([1.0, 1.0])
        gallery = Gallery([("first", v), ("second", v.copy())])
        ranked = identify(v, gallery)
        assert [sid for sid, _ in ranked] == ["first", "second"]

    def test_returns_permutation(self):
        rng = np.random.default_rng(3)
        gallery = Gallery([(f"s{i}", rng.normal(size=5)) for i in range(10)])
        ranked = identify(rng.normal(size=5), gallery)
        assert sorted(sid for sid, _ in ranked) == sorted(gallery.subject_ids)
        dists = [d for _, d in ranked]
        assert dists == sorted(dists)

    def test_rescaled_probe_same_ranking(self):
        rng = np.random.default_rng(4)
        gallery = Gallery([(f"s{i}", rng.normal(size=7)) for i in range(8)])
        probe = rng.normal(size=7)
        a = [sid for sid, _ in identify(probe, gallery)]
        b = [sid for sid, _ in identify(37.5 * probe, gallery)]
        assert a == b


def scores_from_rankings(subjects, *rankings):
    """Identity distances under which each ranking (best first) is the order."""
    values = [[float(ranked.index(sid)) for sid in subjects] for ranked in rankings]
    return IdentityDistances(tuple(subjects), np.array(values))


class TestIdentityDistances:
    def test_minimum_per_identity_in_first_appearance_order(self):
        gallery = Gallery([("b", [1.0, 0.0]), ("a", [0.0, 1.0]), ("b", [1.0, 1.0])])
        probes = np.array([[0.0, 1.0], [1.0, 0.0]])
        scores = gallery.identity_distances(probes)
        assert scores.subjects == ("b", "a")
        full = gallery.distances(probes)
        np.testing.assert_array_equal(
            scores.values, np.column_stack([np.minimum(full[:, 0], full[:, 2]), full[:, 1]])
        )

    def test_single_probe_vector_rejected(self):
        # a batch only: one probe is a (1, d) row, and the answer is always 2-D
        gallery = Gallery([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        for method in (gallery.distances, gallery.identity_distances):
            with pytest.raises(ValueError, match=r"probes \(2,\), not \(P, 2\)"):
                method(np.array([1.0, 0.0]))


def cmc_argsort(scores, true_ids):
    """`cmc` ranking every row with a stable argsort, as it did before counting."""
    own = scores.own(list(true_ids))
    order = np.argsort(scores.values, axis=1, kind="stable")
    ranks = np.take_along_axis(own, order, axis=1).argmax(axis=1)
    return np.cumsum(np.bincount(ranks, minlength=own.shape[1])) / own.shape[0]


class TestCmc:
    @given(
        n_subjects=st.integers(1, 7),
        n_probes=st.integers(1, 12),
        top=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_counted_ranks_equal_argsort(self, n_subjects, n_probes, top, data):
        # integer distances from 0..top: ties between identities are common
        subjects = tuple(f"s{i}" for i in range(n_subjects))
        values = np.array(data.draw(st.lists(
            st.integers(0, top), min_size=n_subjects * n_probes, max_size=n_subjects * n_probes,
        )), dtype=float).reshape(n_probes, n_subjects)
        true_ids = data.draw(st.lists(st.sampled_from(subjects), min_size=n_probes,
                                      max_size=n_probes))
        scores = IdentityDistances(subjects, values)
        assert cmc(scores, true_ids).tobytes() == cmc_argsort(scores, true_ids).tobytes()

    @given(
        owners=st.lists(st.sampled_from("abcd"), min_size=1, max_size=10),
        dim=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_counted_ranks_equal_argsort_over_a_gallery(self, owners, dim, data):
        # repeated gallery subjects; small positive integer vectors, so that
        # parallel entries and probes give equal distances
        vectors = st.lists(st.integers(1, 2), min_size=dim, max_size=dim)
        gallery = Gallery((sid, data.draw(vectors)) for sid in owners)
        n_probes = data.draw(st.integers(1, 8))
        probes = np.array([data.draw(vectors) for _ in range(n_probes)], dtype=float)
        true_ids = data.draw(st.lists(st.sampled_from(owners), min_size=n_probes,
                                      max_size=n_probes))
        scores = gallery.identity_distances(probes)
        assert cmc(scores, true_ids).tobytes() == cmc_argsort(scores, true_ids).tobytes()

    def test_all_rank_one(self):
        scores = scores_from_rankings(["a", "b"], ["a", "b"], ["b", "a"])
        np.testing.assert_allclose(cmc(scores, ["a", "b"]), [1.0, 1.0])

    def test_two_probe_arithmetic(self):
        scores = scores_from_rankings(["a", "b"], ["a", "b"], ["a", "b"])
        np.testing.assert_allclose(cmc(scores, ["a", "b"]), [0.5, 1.0])

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(5)
        subjects = tuple(f"s{i}" for i in range(6))
        # small integer distances, so ties between identities are common
        values = rng.integers(0, 4, size=(40, 6)).astype(float)
        true_ids = [subjects[i] for i in rng.integers(6, size=40)]
        curve = cmc(IdentityDistances(subjects, values), true_ids)
        assert curve.shape == (6,)
        for r in range(1, 7):
            manual = sum(
                1 for row, true in zip(values, true_ids)
                if true in [subjects[i] for i in np.argsort(row, kind="stable")[:r]]
            ) / len(true_ids)
            assert curve[r - 1] == pytest.approx(manual)

    def test_monotone_terminates_at_one(self):
        rng = np.random.default_rng(6)
        subjects = tuple(f"s{i}" for i in range(5))
        values = rng.uniform(0, 2, size=(20, 5))
        true_ids = [subjects[i] for i in rng.integers(5, size=20)]
        curve = cmc(IdentityDistances(subjects, values), true_ids)
        assert (np.diff(curve) >= 0).all()
        assert curve[-1] == 1.0

    def test_absent_id_raises(self):
        with pytest.raises(MatchAccountingError, match="ghost"):
            cmc(scores_from_rankings(["a", "b"], ["a", "b"]), ["ghost"])

    def test_ranks_count_identities_not_entries(self):
        # gallery entries A, A, B; the B probe is nearer both A entries
        gallery = Gallery(
            [("A", [1.0, 0.0]), ("A", [0.9, 0.1]), ("B", [0.0, 1.0])]
        )
        probe = np.array([1.0, 0.3])
        assert [sid for sid, _ in identify(probe, gallery)] == ["A", "A", "B"]
        curve = cmc(gallery.identity_distances(probe[None]), ["B"])
        np.testing.assert_array_equal(curve, [0.0, 1.0])

    def test_identity_tie_keeps_gallery_order(self):
        v = np.array([1.0, 1.0])
        gallery = Gallery([("first", v), ("second", v.copy())])
        scores = gallery.identity_distances(v[None])
        np.testing.assert_array_equal(cmc(scores, ["first"]), [1.0, 1.0])
        np.testing.assert_array_equal(cmc(scores, ["second"]), [0.0, 1.0])


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.1, 0.2], [0.8, 0.9])
        far, vr = curve[:, 0], curve[:, 1]
        assert vr[np.searchsorted(far, 0.0, side="right") - 1] == 1.0

    def test_chance_behavior(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(0, 1, 4000)
        curve = roc(scores[:2000], scores[2000:])
        assert np.abs(curve[:, 1] - curve[:, 0]).max() < 0.06

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        genuine = rng.uniform(0, 1, 20)
        impostor = rng.uniform(0, 1, 20)
        curve = roc(genuine, impostor)
        grid = np.linspace(
            min(genuine.min(), impostor.min()), max(genuine.max(), impostor.max()), 1000
        )
        for t, (far, vr) in zip(grid, curve):
            assert vr == pytest.approx(np.mean(genuine <= t))
            assert far == pytest.approx(np.mean(impostor <= t))

    def test_monotone(self):
        rng = np.random.default_rng(9)
        curve = roc(rng.uniform(0, 1, 30), rng.uniform(0.2, 1.2, 30))
        assert (np.diff(curve[:, 0]) >= 0).all()
        assert (np.diff(curve[:, 1]) >= 0).all()

    def test_one_thousand_thresholds(self):
        curve = roc([0.3], [0.1, 0.7, 1.9])
        assert curve.shape == (1000, 2)
        np.testing.assert_array_equal(curve[[0, -1]], [[1 / 3, 0.0], [1.0, 1.0]])


class TestChecks:
    """An empty gallery, probe set or ROC side raises ValueError with its message."""

    def test_empty_gallery(self):
        with pytest.raises(ValueError) as info:
            Gallery([])
        assert str(info.value) == "gallery needs at least one entry"

    def test_cmc_without_a_probe(self):
        scores = IdentityDistances(("a", "b"), np.empty((0, 2)))
        with pytest.raises(ValueError) as info:
            cmc(scores, [])
        assert str(info.value) == "need at least one probe"

    @pytest.mark.parametrize("genuine, impostor", [([], [0.5]), ([0.5], []), ([], [])])
    def test_roc_with_an_empty_side(self, genuine, impostor):
        with pytest.raises(ValueError) as info:
            roc(genuine, impostor)
        assert str(info.value) == "need both genuine and impostor distances"

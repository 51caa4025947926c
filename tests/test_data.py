import tracemalloc
import warnings

import numpy as np
import pytest

from anisodiff.data import (
    Dataset,
    gaussian_blobs,
    read_distances,
    read_features,
    read_label_pairs,
    read_labels,
    read_manifest,
    split_labels,
    two_moons,
    write_features,
    write_labels,
    write_manifest,
)
from anisodiff.errors import InputError, ParameterError


class TestTwoMoons:
    def test_zero_noise_on_unit_arcs(self):
        ds = two_moons(100, 0.0, seed=0)
        X, y = ds.features, ds.labels
        upper = X[y == 0]
        r = np.hypot(upper[:, 0], upper[:, 1])
        assert np.abs(r - 1.0).max() < 1e-12
        lower = X[y == 1]
        r2 = np.hypot(lower[:, 0] - 1.0, lower[:, 1] - 0.5)
        assert np.abs(r2 - 1.0).max() < 1e-12

    def test_deterministic_in_seed(self):
        a = two_moons(200, 0.1, seed=9)
        b = two_moons(200, 0.1, seed=9)
        assert np.array_equal(a.features, b.features)
        c = two_moons(200, 0.1, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_centroid_ordering(self):
        ds = two_moons(600, 0.1, seed=1)
        y0 = ds.features[ds.labels == 0, 1].mean()
        y1 = ds.features[ds.labels == 1, 1].mean()
        assert y0 > y1

    @pytest.mark.parametrize("n", [3, 5, 2])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ParameterError):
            two_moons(n, 0.1, seed=0)

    @pytest.mark.parametrize(
        "n, noise_sd, seed, message",
        [
            (6.0, 0.1, 0, "n must be an integer >= 0, got 6.0"),
            (10, 0.1, -1, "seed must be an integer >= 0, got -1"),
            # the noiseless arcs draw nothing, and still take only a valid seed
            (10, 0.0, -1, "seed must be an integer >= 0, got -1"),
            (10, 0.1, 1.5, "seed must be an integer >= 0, got 1.5"),
            (10, np.nan, 0, "noise_sd must be finite and >= 0, got nan"),
            (10, np.inf, 0, "noise_sd must be finite and >= 0, got inf"),
            (10, -0.5, 0, "noise_sd must be finite and >= 0, got -0.5"),
        ],
    )
    def test_rejects_bad_arguments(self, n, noise_sd, seed, message):
        with pytest.raises(ParameterError, match=message):
            two_moons(n, noise_sd, seed)

    def test_numpy_integers_pass(self):
        a = two_moons(np.int64(20), 0.1, seed=np.uint8(3))
        assert np.array_equal(a.features, two_moons(20, 0.1, seed=3).features)


class TestGaussianBlobs:
    def test_deterministic_and_shapes(self):
        a = gaussian_blobs(50, 3, 6.0, 2, seed=2)
        b = gaussian_blobs(50, 3, 6.0, 2, seed=2)
        assert np.array_equal(a.features, b.features)
        assert a.n == 50 and a.c == 3
        counts = np.bincount(a.labels)
        assert counts.tolist() == [17, 17, 16]

    def test_centroids_near_centers(self):
        ds = gaussian_blobs(900, 3, 10.0, 3, seed=3)
        for k in range(3):
            centroid = ds.features[ds.labels == k].mean(axis=0)
            expected = np.zeros(3)
            expected[k] = 10.0
            assert np.abs(centroid - expected).max() < 0.3

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            gaussian_blobs(1, 2, 5.0, 2, seed=0)
        with pytest.raises(ParameterError):
            gaussian_blobs(10, 1, 5.0, 2, seed=0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10.0, 2, 5.0, 2, 0), "n must be an integer >= 0, got 10.0"),
            ((10, 2.0, 5.0, 2, 0), "c must be an integer >= 0, got 2.0"),
            ((10, 2, 5.0, 2.0, 0), "d must be an integer >= 0, got 2.0"),
            ((10, 2, 5.0, 2, -1), "seed must be an integer >= 0, got -1"),
            ((10, 2, 5.0, 2, 0.5), "seed must be an integer >= 0, got 0.5"),
            ((10, 2, np.nan, 2, 0), "separation must be finite and >= 0, got nan"),
            ((10, 2, np.inf, 2, 0), "separation must be finite and >= 0, got inf"),
            ((10, 2, -1.0, 2, 0), "separation must be finite and >= 0, got -1.0"),
        ],
    )
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(ParameterError, match=message):
            gaussian_blobs(*args)


class TestSplitLabels:
    def test_one_per_class_when_l_equals_c(self):
        ds = gaussian_blobs(60, 3, 8.0, 2, seed=4)
        split = split_labels(ds, 3, seed=0)
        assert len(split.train) == 3
        assert sorted(ds.labels[split.train].tolist()) == [0, 1, 2]

    def test_same_seed_identical(self):
        ds = two_moons(100, 0.1, seed=5)
        a = split_labels(ds, 10, seed=7)
        b = split_labels(ds, 10, seed=7)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    def test_disjoint_and_sized(self):
        ds = two_moons(600, 0.1, seed=6)
        split = split_labels(ds, 10, seed=1)
        assert len(split.train) == len(split.validation) == 10
        train, val, test = map(set, (split.train.tolist(), split.validation.tolist(), split.test.tolist()))
        assert not train & val
        assert not train & test
        assert not val & test
        assert len(train | val | test) == 600

    def test_balanced_when_divisible(self):
        ds = two_moons(600, 0.1, seed=6)
        split = split_labels(ds, 4, seed=3)
        assert np.bincount(ds.labels[split.train]).tolist() == [2, 2]
        assert np.bincount(ds.labels[split.validation]).tolist() == [2, 2]

    @pytest.mark.parametrize(
        "sizes, l",
        [((1, 9), 2), ((1, 1, 8), 3), ((1, 1, 1, 5), 4), ((1, 2, 3), 3), ((5, 5), 5)],
    )
    def test_small_classes_at_the_limits(self, sizes, l):
        # l = c or 2l = n: some class pools run dry, and the draw still
        # fills both sets from the larger ones
        labels = np.repeat(np.arange(len(sizes)), sizes)
        ds = Dataset("limits", labels, features=np.zeros((len(labels), 1)))
        for seed in range(4):
            split = split_labels(ds, l, seed=seed)
            assert len(split.train) == len(split.validation) == l
            assert len(np.unique(np.concatenate([split.train, split.validation]))) == 2 * l
            assert np.array_equal(
                np.sort(np.concatenate([split.train, split.validation, split.test])),
                np.arange(ds.n),
            )
            assert set(labels[split.train].tolist()) == set(range(len(sizes)))

    def test_infeasible_raises(self):
        ds = two_moons(100, 0.1, seed=0)
        with pytest.raises(ParameterError):
            split_labels(ds, 1, seed=0)  # l < c
        with pytest.raises(ParameterError):
            split_labels(ds, 60, seed=0)  # 2l > n

    @pytest.mark.parametrize(
        "l, seed, message",
        [
            (4.0, 0, "l must be an integer >= 0, got 4.0"),
            (4, 1.5, "seed must be an integer >= 0, got 1.5"),
            (4, -1, "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_rejects_bad_l_or_seed(self, l, seed, message):
        ds = two_moons(100, 0.1, seed=0)
        with pytest.raises(ParameterError, match=message):
            split_labels(ds, l, seed)


class TestFileFormats:
    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        X = rng.normal(size=(20, 3))
        path = tmp_path / "features.txt"
        write_features(X, path)
        assert np.array_equal(read_features(path), X)

    def test_comma_delimited_features(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert read_features(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\noops 4.0\n")
        with pytest.raises(InputError, match=r"bad\.txt:2"):
            read_features(path)

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(InputError, match=r"ragged\.txt:2"):
            read_features(path)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            (",\n", r"features\.txt:1: a row of only delimiters holds no values"),
            ("# header\n , ,\n1 2\n", r"features\.txt:2: a row of only delimiters"),
            ("1 2\n,\n", r"features\.txt:2: a row of only delimiters"),
        ],
        ids=["delimiters-first", "delimiters-after-comment", "delimiters-later"],
    )
    def test_feature_table_rejections(self, tmp_path, text, pattern):
        path = tmp_path / "features.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=pattern):
            read_features(path)

    def test_labels_round_trip_and_remap(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(np.array([5, 7, 5]), path)
        labels, mapping = read_labels(path, 3)
        assert labels.tolist() == [0, 1, 0]
        assert mapping == {5: 0, 7: 1}

    def test_labels_size_mismatch(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(np.array([0, 1]), path)
        with pytest.raises(InputError):
            read_labels(path, 3)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("0 1 0\n", r"labels\.txt: expected 'index class' lines, got 3 columns"),
            ("0 0.5\n", r"labels\.txt: indices and classes must be integers >= 0"),
            (",\n", r"labels\.txt:1: a row of only delimiters holds no values"),
            # an int64 cast would wrap these round
            ("0 1\n1e20 1\n", r"labels\.txt: indices and classes must be .* < 2\*\*63"),
            ("0 1\n1 9.3e18\n", r"labels\.txt: indices and classes must be .* < 2\*\*63"),
        ],
        ids=["three-columns", "fractional-class", "delimiters", "large-index", "large-class"],
    )
    def test_label_pairs_rejections(self, tmp_path, text, pattern):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=pattern):
            read_label_pairs(path)

    def test_labels_index_outside_range(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 0\n1 1\n3 0\n")
        with pytest.raises(InputError, match=r"labels\.txt: label index 3 outside \[0, 3\)"):
            read_labels(path, 3)

    def test_label_pairs_duplicate_index(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1\n0 0\n")
        with pytest.raises(InputError):
            read_label_pairs(path)

    def test_dense_distances_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(6, 2))
        from anisodiff.graph import pairwise_distances

        D = pairwise_distances(X)
        path = tmp_path / "dist.txt"
        write_features(D, path)  # same numeric-text writer
        assert np.array_equal(read_distances(path), D)

    def test_asymmetric_dense_averaged_with_warning(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("0 1.0\n1.5 0\n")
        with pytest.warns(UserWarning, match="asymmetric"):
            D = read_distances(path)
        assert D[0, 1] == D[1, 0] == 1.25

    def test_asymmetry_in_a_far_tile_averaged_with_warning(self, tmp_path):
        from anisodiff.graph import pairwise_distances

        D = pairwise_distances(np.random.default_rng(72).normal(size=(300, 2)))
        D[150, 290] = 1.5
        D[290, 150] = 1.75
        path = tmp_path / "dist.txt"
        write_features(D, path)
        with pytest.warns(UserWarning, match=r"asymmetric by 2\.500e-01; averaging"):
            got = read_distances(path)
        assert got[150, 290] == got[290, 150] == 1.625

    @pytest.mark.parametrize(
        "text, pattern",
        [
            # one scan reads the table as dense: nonnegative, zero diagonal
            ("0 inf\ninf 0\n", r"dist\.txt: distance matrix contains non-finite entries"),
            ("0 inf\n1 0\n", r"dist\.txt: distance matrix contains non-finite entries"),
            ("0 1e308\n1e308 0\n", None),
            # a NaN or a negative entry makes it a table of another shape
            ("0 nan\nnan 0\n", r"dist\.txt: .*'i j dist' triplets, got shape \(2, 2\)"),
            ("0 -1\n-1 0\n", r"dist\.txt: .*'i j dist' triplets, got shape \(2, 2\)"),
            ("0 inf\n-1 0\n", r"dist\.txt: .*'i j dist' triplets, got shape \(2, 2\)"),
        ],
        ids=["inf-pair", "one-inf", "largest-finite", "nan", "negative", "inf-and-negative"],
    )
    def test_dense_table_rule(self, tmp_path, text, pattern):
        path = tmp_path / "dist.txt"
        path.write_text(text)
        # a table that is rejected, or read as it is, warns of no averaging
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if pattern is None:
                assert read_distances(path).tolist() == [[0.0, 1e308], [1e308, 0.0]]
                return
            with pytest.raises(InputError, match=pattern):
                read_distances(path)

    def test_triplet_distances(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("0 1 1.0\n0 2 2.0\n1 2 1.5\n")
        D = read_distances(path)
        assert D.shape == (3, 3)
        assert D[1, 0] == 1.0 and D[2, 0] == 2.0 and D[2, 1] == 1.5

    def test_triplet_missing_pair(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("0 1 1.0\n0 3 2.0\n1 3 1.5\n")  # pair (2, *) missing
        with pytest.raises(InputError, match="missing"):
            read_distances(path)

    def test_triplet_asymmetric_averaged(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("0 1 1.0\n1 0 2.0\n0 2 1.0\n1 2 1.0\n")
        with pytest.warns(UserWarning, match="asymmetric"):
            D = read_distances(path)
        assert D[0, 1] == 1.5

    def test_triplet_repeated_line_keeps_last(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("0 1 1.0\n0 2 2.0\n0 1 3.0\n1 2 1.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = read_distances(path)
        assert D[0, 1] == D[1, 0] == 3.0

    def test_triplet_zero_self_lines_accepted(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("0 0 0\n0 1 1.0\n1 1 0.0\n")
        assert read_distances(path).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_triplet_nonzero_self_line_names_node(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("0 1 1.0\n0 2 1.0\n1 2 1.0\n2 2 0.5\n")
        with pytest.raises(InputError, match=r"trip\.txt.*self distance at 2"):
            read_distances(path)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("0 1 0.5\n1.5 2 0.5\n", r"trip\.txt.*node index 1\.5 is not an integer"),
            ("0 1 0.5\n-1 2 0.5\n", r"trip\.txt.*node index -1 outside \[0, 3\)"),
            ("0 1 0.5\n1e20 2 0.5\n", r"trip\.txt: node index 1e\+20 exceeds the int64 range"),
            ("0 1 0.5\n1000000 1 0.5\n",
             r"trip\.txt: 2 lines for n=1000001 nodes; distances are missing for some of the "
             r"500000500000 pairs"),
            ("0 1 0.5\n-1e20 2 0.5\n", r"trip\.txt: node index -1e\+20 exceeds the int64"),
            ("0 1 -0.25\n", r"trip\.txt.*negative entries"),
            ("0 1 inf\n", r"trip\.txt.*non-finite entries"),
            ("0 0 0\n", r"trip\.txt.*at least 2 points"),
            ("0 1 0.5 9\n", r"trip\.txt.*'i j dist' triplets, got shape \(1, 4\)"),
            ("0 1\n1 2\n", r"trip\.txt.*'i j dist' triplets, got shape \(2, 2\)"),
            ("0 1 abc\n", r"trip\.txt:1: .*abc"),
            ("0 1 0.5\n1 2\n", r"trip\.txt:2: expected 3 columns, got 2"),
            (",\n", r"trip\.txt:1: a row of only delimiters holds no values"),
            ("0 1 0.5\n, ,\n", r"trip\.txt:2: a row of only delimiters holds no values"),
            ("", r"trip\.txt: no data rows"),
            ("# a comment\n\n", r"trip\.txt: no data rows"),
        ],
    )
    def test_triplet_rejections(self, tmp_path, text, pattern):
        path = tmp_path / "trip.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=pattern):
            read_distances(path)

    def test_triplet_one_sided_pair_mirrored(self, tmp_path):
        path = tmp_path / "trip.txt"
        path.write_text("1 0 2.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = read_distances(path)
        assert D.tolist() == [[0.0, 2.5], [2.5, 0.0]]

    def test_triplet_two_sided_pair_is_exact_mean(self, tmp_path):
        a, b = 0.1, 0.7
        path = tmp_path / "trip.txt"
        path.write_text(f"0 1 {a!r}\n1 0 {b!r}\n")
        with pytest.warns(UserWarning, match="asymmetric"):
            D = read_distances(path)
        assert D[0, 1] == D[1, 0] == 0.5 * (a + b)

    @pytest.mark.parametrize("text", ["0 1 nan\n", "0 1 1.0\n1 0 nan\n"])
    def test_triplet_nan_distance_is_missing(self, tmp_path, text):
        path = tmp_path / "trip.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=r"trip\.txt.*missing distance for pair \(0, 1\)"):
            read_distances(path)

    def test_dense_read_peak_memory_near_matrix_size(self, tmp_path):
        from anisodiff.graph import pairwise_distances

        D = pairwise_distances(np.random.default_rng(73).normal(size=(600, 2)))
        path = tmp_path / "dist.txt"
        write_features(D, path)
        tracemalloc.start()
        try:
            got = read_distances(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, D)
        assert peak < 1.5 * D.nbytes, peak / D.nbytes

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest({"name": "moons", "n": 10, "c": 2, "format": "features"}, path)
        entries = read_manifest(path)
        assert entries == {"name": "moons", "n": "10", "c": "2", "format": "features"}


class TestDatasetInvariants:
    def test_contiguous_classes_required(self):
        with pytest.raises(InputError):
            Dataset("bad", np.array([0, 2, 2]), features=np.zeros((3, 2)))

    def test_needs_source(self):
        with pytest.raises(ParameterError):
            Dataset("empty", np.array([0, 1]))

    def test_array_likes_become_float_arrays(self):
        features = [[0, 1], [1, 0], [0.5, 0.5]]
        ds = Dataset("x", [0, 1, 0], features=features)
        assert ds.features.dtype == np.float64
        assert np.array_equal(ds.features, np.array(features, dtype=np.float64))
        D = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        ds = Dataset("d", [0, 1, 0], distances=D)
        assert ds.distance_matrix.dtype == np.float64
        assert np.array_equal(ds.distance_matrix, np.array(D, dtype=np.float64))

    @pytest.mark.parametrize("source", ["features", "distances"])
    def test_label_count_must_match_rows(self, source):
        data = {"features": np.zeros((4, 2)), "distances": np.zeros((4, 4))}
        with pytest.raises(InputError, match=r"3 labels but 4 data rows in dataset 'x'"):
            Dataset("x", [0, 1, 0], **{source: data[source]})

    def test_float_arrays_are_not_copied(self):
        X = np.zeros((3, 2))
        assert Dataset("x", [0, 1, 0], features=X).features is X

    @pytest.mark.parametrize("labels", [[0, 1.7, 0.2], [0, 1, 1.5], [0, np.nan, 1]])
    def test_fractional_labels_rejected(self, labels):
        # a cast would read [0, 1.7, 0.2] as classes [0, 1, 0]
        with pytest.raises(InputError, match="labels of dataset 'x' must be whole numbers"):
            Dataset("x", labels, features=np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "labels",
        [np.array([[0], [1], [0]]), None, ["a", "b", "a"], np.array(0), [0, None, 1]],
        ids=["2-D", "None", "strings", "0-D", "object"],
    )
    def test_labels_not_a_1d_numeric_array_rejected(self, labels):
        with pytest.raises(InputError, match="must be whole numbers in a 1-D array"):
            Dataset("x", labels, features=np.zeros((3, 2)))

    def test_whole_float_labels_accepted(self):
        ds = Dataset("x", np.array([0.0, 1.0, 1.0]), features=np.zeros((3, 2)))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgrank import DataError, learn
from cfgrank.features import FEATURE_NAMES, LABEL_MALICIOUS, N_FEATURES, FeatureVector
from cfgrank.learn import (AllZeroMatrixError, ClassTooSmallError,
                           ConfusionMatrix, EmptyDatasetError, HyperParams,
                           LabeledDataset, ModelParams,
                           NonFiniteModelError, SingleClassError, _best_split,
                           _fit_forest, _fit_logreg, _fit_svm, _rank_keys,
                           compute_metrics, cross_validate,
                           logreg_loss_and_grad, model_from_json,
                           model_to_json, predict, predict_many,
                           stratified_kfold, train)
from oracles import (reference_forest, reference_pegasos, reference_predict,
                     reference_tree_prob)


def vec(values, label, sid="s"):
    padded = tuple(values) + (0.0,) * (23 - len(values))
    return FeatureVector(sample_id=sid, values=padded, label=label)


def gaussian_rows(rng, n_pos, n_neg, shift=3.0):
    rows = []
    for i in range(n_pos):
        rows.append(vec([rng.gauss(shift, 1.0) for _ in range(4)],
                        "malicious", f"m{i}"))
    for i in range(n_neg):
        rows.append(vec([rng.gauss(0.0, 1.0) for _ in range(4)],
                        "benign", f"b{i}"))
    return tuple(rows)


def gaussian_dataset(rng, n_pos, n_neg, shift=3.0):
    return LabeledDataset(gaussian_rows(rng, n_pos, n_neg, shift))


class TestComputeMetrics:
    def test_table_rf_row(self):
        r = compute_metrics(ConfusionMatrix(tp=23.6, fn=3.1, fp=2.5, tn=231.6))
        assert r.fnr == pytest.approx(11.6, abs=0.15)
        assert r.fpr == pytest.approx(1.1, abs=0.15)
        assert r.fdr == pytest.approx(9.6, abs=0.15)
        assert r.for_ == pytest.approx(1.3, abs=0.15)
        assert r.f1 == pytest.approx(89.5, abs=0.3)
        assert r.ar == pytest.approx(97.9, abs=0.15)

    def test_table_lr_row(self):
        r = compute_metrics(ConfusionMatrix(tp=16.6, fn=6.7, fp=9.5, tn=228.0))
        assert r.fpr == pytest.approx(4.0, abs=0.3)
        assert r.fdr == pytest.approx(36.3, abs=0.3)
        assert r.f1 == pytest.approx(67.2, abs=0.3)
        assert r.ar == pytest.approx(93.8, abs=0.3)

    def test_perfect_classifier(self):
        r = compute_metrics(ConfusionMatrix(tp=10, fn=0, fp=0, tn=10))
        assert (r.fnr, r.fpr, r.fdr, r.for_) == (0.0, 0.0, 0.0, 0.0)
        assert r.f1 == 100.0 and r.ar == 100.0

    def test_zero_denominator_absent(self):
        r = compute_metrics(ConfusionMatrix(tp=0, fn=0, fp=0, tn=5))
        assert r.fnr is None and r.fdr is None
        assert r.fpr == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroMatrixError):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_scale_invariance(self):
        m = ConfusionMatrix(tp=12, fn=3, fp=5, tn=80)
        a = compute_metrics(m)
        b = compute_metrics(ConfusionMatrix(m.tp / 10, m.fn / 10, m.fp / 10, m.tn / 10))
        for f in ("fnr", "fpr", "fdr", "for_", "f1", "ar"):
            assert getattr(a, f) == pytest.approx(getattr(b, f))

    def test_ar_error_identity(self):
        m = ConfusionMatrix(tp=7, fn=2, fp=4, tn=50)
        r = compute_metrics(m)
        assert r.ar == pytest.approx(100 - 100 * (m.fn + m.fp) / m.total)


class TestTrain:
    def test_separable_logreg_perfect(self):
        rng = random.Random(1)
        rows = [vec([rng.uniform(1, 2)], "malicious", f"m{i}") for i in range(20)]
        rows += [vec([rng.uniform(-2, -1)], "benign", f"b{i}") for i in range(20)]
        data = LabeledDataset(tuple(rows))
        model = train("logreg", data, seed=7)
        assert all(predict(model, r) == r.label for r in rows)

    def test_determinism(self):
        rng = random.Random(2)
        data = gaussian_dataset(rng, 30, 30)
        for kind in ("logreg", "svm", "rf"):
            a = train(kind, data, seed=7)
            b = train(kind, data, seed=7)
            assert model_to_json(a) == model_to_json(b)

    def test_single_class_rejected(self):
        rows = tuple(vec([float(i)], "malicious", f"m{i}") for i in range(5))
        with pytest.raises(SingleClassError):
            train("logreg", LabeledDataset(rows))

    def test_empty_dataset_rejected(self):
        empty = LabeledDataset(())
        for kind in ("logreg", "svm", "rf"):
            with pytest.raises(EmptyDatasetError):
                train(kind, empty)
            with pytest.raises(EmptyDatasetError):
                cross_validate(kind, empty)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 2, size=40)
        w = rng.normal(size=6) * 0.5
        b = 0.3
        l2 = 1e-3
        _, grad_w, grad_b = logreg_loss_and_grad(w, b, X, y, l2)
        h = 1e-5
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            lp, _, _ = logreg_loss_and_grad(w + e, b, X, y, l2)
            lm, _, _ = logreg_loss_and_grad(w - e, b, X, y, l2)
            fd = (lp - lm) / (2 * h)
            assert abs(grad_w[j] - fd) <= 1e-6 * max(1.0, abs(fd))
        fd_b = (logreg_loss_and_grad(w, b + h, X, y, l2)[0]
                - logreg_loss_and_grad(w, b - h, X, y, l2)[0]) / (2 * h)
        assert abs(grad_b - fd_b) <= 1e-6 * max(1.0, abs(fd_b))

    def test_logreg_loss_nonincreasing(self):
        # _fit_logreg computes no loss: replay its epochs with the loss
        # function, which must land on the very same weights
        rng = np.random.default_rng(8)
        hyper = HyperParams(logreg_epochs=200)
        for _ in range(5):
            X = rng.normal(size=(30, 5))
            X = (X - X.mean(axis=0)) / X.std(axis=0)
            y = rng.integers(0, 2, size=30)
            w, b = np.zeros(5), 0.0
            losses = []
            for _ in range(hyper.logreg_epochs):
                loss, grad_w, grad_b = logreg_loss_and_grad(w, b, X, y, hyper.logreg_l2)
                losses.append(loss)
                w = w - hyper.logreg_lr * grad_w
                b = b - hyper.logreg_lr * grad_b
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
            fit_w, fit_b = _fit_logreg(X, y, hyper)
            assert fit_w.tolist() == w.tolist() and fit_b == b

    @pytest.mark.parametrize("values", ["ties", "continuous"])
    def test_pegasos_equals_reference(self, values):
        # steps below n, equal to n, and about 2.5 n: the last draws three
        # permutations and stops in the middle of one
        rng = np.random.default_rng(9)
        for n, d in ((17, 3), (60, 23)):
            X, y = forest_table(rng, n, d, values)
            X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) == 0, 1.0, X.std(axis=0))
            for steps in (n // 2, n, 5 * n // 2):
                hyper = HyperParams(svm_steps=steps)
                for seed in (0, 5, 31):
                    w, b = _fit_svm(X, y, hyper, seed)
                    ref_w, ref_b = reference_pegasos(X, y, hyper, seed)
                    assert w.tolist() == ref_w.tolist() and b == ref_b

    def test_subset_slices_the_arrays(self):
        rows = gaussian_rows(random.Random(12), 15, 15)
        data = LabeledDataset(rows)
        idx = [0, 3, 4, 17, 29]
        part = data.subset(idx)
        rebuilt = LabeledDataset(tuple(rows[i] for i in idx))
        assert part.X.tolist() == rebuilt.X.tolist() and part.X.shape == (5, 23)
        assert part.y.tolist() == rebuilt.y.tolist() == [1, 1, 1, 0, 0]
        assert len(part) == 5

    def test_feature_scale_invariance(self):
        rng = random.Random(9)
        rows = gaussian_rows(rng, 25, 25)
        data = LabeledDataset(rows)
        scaled_rows = tuple(
            FeatureVector(r.sample_id,
                          tuple(v * (37.0 if i == 2 else 1.0)
                                for i, v in enumerate(r.values)),
                          r.label)
            for r in rows)
        scaled = LabeledDataset(scaled_rows)
        for kind in ("logreg", "svm"):
            model_a = train(kind, data, seed=3)
            model_b = train(kind, scaled, seed=3)
            for r_a, r_b in zip(rows, scaled_rows):
                assert predict(model_a, r_a) == predict(model_b, r_b)


def stump(f, t, lo, hi):
    return {"feature": f, "threshold": t, "left": {"leaf": lo}, "right": {"leaf": hi}}


class TestPredict:
    def test_constructed_logreg(self):
        w = np.zeros(23)
        w[21] = 1.0  # node_count
        model = ModelParams(kind="logreg", weights=w, bias=-5.0,
                            feat_mean=np.zeros(23), feat_std=np.ones(23))
        values = [0.0] * 23
        values[21] = 1000.0
        assert predict(model, FeatureVector("big", tuple(values), None)) == "malicious"

    def test_zero_model_ties_to_benign(self):
        model = ModelParams(kind="logreg", weights=np.zeros(23), bias=0.0,
                            feat_mean=np.zeros(23), feat_std=np.ones(23))
        rng = random.Random(3)
        for _ in range(10):
            x = vec([rng.uniform(-5, 5) for _ in range(4)], None)
            assert predict(model, x) == "benign"

    def test_hand_built_stumps(self):
        model = ModelParams(kind="rf", trees=[
            stump(0, 0.5, 0.0, 1.0),
            stump(1, 0.5, 0.0, 1.0),
            stump(2, 0.5, 1.0, 0.0),
        ])
        points = [
            ([1.0, 1.0, 0.0], "malicious"),  # votes 1,1,1
            ([0.0, 0.0, 1.0], "benign"),     # votes 0,0,0
            ([1.0, 0.0, 1.0], "benign"),     # votes 1,0,0 -> 1/3
            ([1.0, 1.0, 1.0], "malicious"),  # votes 1,1,0 -> 2/3
            ([0.0, 1.0, 0.0], "malicious"),  # votes 0,1,1 -> 2/3
        ]
        for values, expected in points:
            assert predict(model, vec(values, None)) == expected

    def test_rf_beats_single_trees_usually(self):
        rng = random.Random(10)
        wins = 0
        trials = 10
        for t in range(trials):
            rows = gaussian_rows(random.Random(100 + t), 40, 40, shift=1.2)
            model = train("rf", LabeledDataset(rows), HyperParams(rf_trees=25), seed=t)

            def acc(m):
                return sum(predict(m, r) == r.label for r in rows) / len(rows)

            forest_acc = acc(model)
            best_single = max(
                acc(ModelParams(kind="rf", trees=[tree])) for tree in model.trees)
            if forest_acc >= best_single:
                wins += 1
        assert wins >= 0.9 * trials


def as_vectors(X):
    return [FeatureVector(f"s{i}", tuple(r), None) for i, r in enumerate(X.tolist())]


# row values: signed zeros, neighbours, the ends of the float range, and
# values no threshold can be
ROW_VALUES = [0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0, 1.0000000000000002, -2.5,
              1.7976931348623157e308, -math.inf, math.inf, math.nan]


@st.composite
def forests_and_rows(draw):
    """(trees, X): up to 40 rows over a few values, and up to 9 trees of
    unbalanced depth, bare leaves among them, whose thresholds are the
    table's own finite values, so rows land exactly on <=."""
    n = draw(st.integers(1, 40))
    X = np.array(draw(st.lists(st.sampled_from(ROW_VALUES), min_size=n * N_FEATURES,
                               max_size=n * N_FEATURES))).reshape(n, N_FEATURES)
    finite = [v for v in X.ravel().tolist() if math.isfinite(v)] or [0.0, -0.0]
    leaf = st.builds(lambda v: {"leaf": v}, st.sampled_from([0.0, 0.5, 1.0]))
    tree = st.recursive(leaf, lambda children: st.builds(
        lambda f, t, left, right: {"feature": f, "threshold": t, "left": left, "right": right},
        st.integers(0, N_FEATURES - 1), st.sampled_from(finite), children, children),
        max_leaves=12)
    return draw(st.lists(tree, min_size=1, max_size=9)), X


class TestPredictMany:
    """Whole-table prediction against reference_predict, one sample at a time."""

    def check(self, model, X):
        expected = [reference_predict(model, v) for v in as_vectors(X)]
        assert predict_many(model, X) == expected
        return expected

    @pytest.mark.parametrize("n_trees", [1, 2, 8, 9, 100])
    def test_trained_forest(self, n_trees):
        rng = np.random.default_rng(n_trees)
        X, y = forest_table(rng, 200, 23, "rounded")
        hyper = HyperParams(rf_trees=n_trees, rf_max_depth=4)
        model = ModelParams(kind="rf", trees=_fit_forest(X, y, hyper, seed=n_trees))
        labels = self.check(model, np.vstack([X, np.round(rng.normal(size=(200, 23)), 1)]))
        assert len(set(labels)) == 2

    @pytest.mark.parametrize("n_trees", [1, 2, 8, 9, 100])
    def test_forest_probability_exactly_half(self, n_trees):
        # leaves 0, 1/2 and 1 sum exactly, so many rows score exactly 0.5
        rng = np.random.default_rng(50 + n_trees)
        trees = [stump(0, 0.0, 0.5, 1.0)] if n_trees % 2 else []
        for f, g in rng.integers(0, 23, size=(n_trees // 2, 2)).tolist():
            trees += [stump(f, 0.0, 1.0, 0.0), stump(g, 0.0, 0.0, 1.0)]
        model = ModelParams(kind="rf", trees=trees)
        X = rng.normal(size=(300, 23))
        probs = [np.mean([reference_tree_prob(t, row) for t in trees]) for row in X]
        assert 0.5 in probs and any(p > 0.5 for p in probs)
        self.check(model, X)

    @pytest.mark.parametrize("n_trees", [8, 9, 100])
    def test_forest_mean_is_pairwise(self, n_trees):
        # constant trees whose np.mean (a pairwise sum) and left-to-right
        # sum fall on different sides of 0.5
        rng = np.random.default_rng(n_trees)
        for _ in range(1000):
            v = rng.random(n_trees)
            leaves = np.clip(v - v.mean() + 0.5, 0.0, 1.0)
            if (np.mean(leaves) > 0.5) != (sum(leaves.tolist()) / n_trees > 0.5):
                break
        else:
            pytest.fail("no leaf values found")
        model = ModelParams(kind="rf", trees=[{"leaf": v} for v in leaves.tolist()])
        self.check(model, np.zeros((5, 23)))

    def test_linear_margin_is_one_dot_per_row(self):
        # a bias that makes one row's margin exactly 0 under a 1-D dot; a
        # matrix-vector product may round that margin to either side
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 23))
        w = rng.normal(size=23)
        dots = np.array([row @ w for row in X])
        differ = np.flatnonzero(X @ w > dots)
        i = int(differ[0]) if differ.size else 0
        model = ModelParams(kind="logreg", weights=w, bias=-float(dots[i]),
                            feat_mean=np.zeros(23), feat_std=np.ones(23))
        assert self.check(model, X)[i] == "benign"

    @pytest.mark.parametrize("kind", ["logreg", "svm"])
    def test_linear(self, kind):
        rng = np.random.default_rng(7)
        X, y = forest_table(rng, 120, 23, "continuous")
        data = LabeledDataset(tuple(
            FeatureVector(f"s{i}", tuple(X[i]), "malicious" if y[i] else "benign")
            for i in range(len(y))))
        model = train(kind, data, seed=2)
        labels = self.check(model, np.vstack([X, rng.normal(size=(200, 23))]))
        assert len(set(labels)) == 2
        # margin exactly 0: unweighted features vary, weighted ones sit at the mean
        model.weights[::2] = 0.0
        model.bias = 0.0
        X0 = np.tile(model.feat_mean, (50, 1))
        X0[:, ::2] = rng.normal(size=(50, 12))
        assert self.check(model, X0) == ["benign"] * 50

    @settings(max_examples=300, deadline=None)
    @given(forests_and_rows())
    def test_generated_forests(self, case):
        trees, X = case
        model = ModelParams(kind="rf", trees=trees)
        expected = self.check(model, X)
        assert predict_many(model_from_json(model_to_json(model)), X) == expected
        assert predict_many(model, X[:0]) == []

    def test_integer_threshold_compares_exactly(self):
        # a JSON threshold of 2^53 + 3 rounds up to the float 2^53 + 4, which
        # is above it and must go right (a numpy scalar compare would round)
        t = 2 ** 53 + 3
        model = model_from_json(rf_payload([stump(0, t, 0.0, 1.0)]))
        X = np.zeros((4, N_FEATURES))
        X[:, 0] = [2.0 ** 53 + 2, 2.0 ** 53 + 4, float(t), -float(t)]
        assert self.check(model, X) == ["benign", "malicious", "malicious", "benign"]

    def test_wrong_width_rejected(self):
        model = ModelParams(kind="rf", trees=[{"leaf": 1.0}])
        for shape in ((3, 22), (23,)):
            with pytest.raises(DataError, match="expected rows of 23 features"):
                predict_many(model, np.zeros(shape))

    @pytest.mark.parametrize("kind", ["logreg", "svm", "rf"])
    def test_cross_validate_equals_per_sample_loop(self, kind):
        rows = gaussian_rows(random.Random(21), 40, 30, shift=1.0)
        data = LabeledDataset(rows)
        hyper = HyperParams(rf_trees=5)
        counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
        for fold, (train_idx, test_idx) in enumerate(stratified_kfold(data, k=5, seed=3)):
            model = train(kind, LabeledDataset(tuple(rows[i] for i in train_idx)),
                          hyper, seed=3 + fold)
            for i in test_idx:
                malicious = reference_predict(model, rows[i]) == "malicious"
                actual = rows[i].label == "malicious"
                counts[("t" if malicious == actual else "f")
                       + ("p" if malicious else "n")] += 1
        matrix, _ = cross_validate(kind, data, hyper, k=5, seed=3)
        assert matrix == ConfusionMatrix(**{key: v / 5 for key, v in counts.items()})


class TestStratifiedKfold:
    def make(self, n_pos, n_neg):
        rows = [vec([1.0], "malicious", f"m{i}") for i in range(n_pos)]
        rows += [vec([0.0], "benign", f"b{i}") for i in range(n_neg)]
        return LabeledDataset(tuple(rows))

    def test_paper_sized_folds(self):
        data = self.make(2347, 261)
        splits = stratified_kfold(data, k=10, seed=1)
        benign_ids = set(np.flatnonzero(data.y == 0).tolist())
        for _, test in splits:
            assert len(test) in (260, 261)
            assert len(benign_ids & set(test)) in (26, 27)

    def test_exact_divisibility(self):
        splits = stratified_kfold(self.make(20, 20), k=10, seed=1)
        benign_start = 20
        for _, test in splits:
            assert len(test) == 4
            assert sum(1 for i in test if i >= benign_start) == 2

    def test_disjoint_covering(self):
        rng = random.Random(44)
        for _ in range(10):
            data = self.make(rng.randint(10, 60), rng.randint(10, 60))
            splits = stratified_kfold(data, k=10, seed=rng.randrange(100))
            seen = []
            for train_idx, test in splits:
                assert set(train_idx) & set(test) == set()
                assert sorted(train_idx + test) == list(range(len(data)))
                seen.extend(test)
            assert sorted(seen) == list(range(len(data)))

    def test_class_too_small(self):
        # checked before k folds are allocated, so a huge k fails at once
        for k in (10, 10 ** 12):
            with pytest.raises(ClassTooSmallError):
                stratified_kfold(self.make(30, 5), k=k)


class TestCrossValidate:
    def test_separable_data_perfect(self):
        rng = random.Random(4)
        data = gaussian_dataset(rng, 60, 60, shift=50.0)
        for kind in ("logreg", "svm", "rf"):
            hyper = HyperParams(rf_trees=15)
            matrix, report = cross_validate(kind, data, hyper, k=10, seed=5)
            assert report.ar == 100.0
            assert report.fnr == 0.0 and report.fpr == 0.0

    def test_shuffled_labels_near_chance(self):
        rng = random.Random(6)
        rows = []
        for i in range(120):
            label = "malicious" if rng.random() < 0.5 else "benign"
            rows.append(vec([rng.gauss(0, 1) for _ in range(4)], label, f"s{i}"))
        data = LabeledDataset(tuple(rows))
        _, report = cross_validate("logreg", data, k=10, seed=2)
        assert 40.0 <= report.ar <= 60.0 + 10.0

    def test_averaged_matrix_is_summed_over_k(self):
        rng = random.Random(7)
        data = gaussian_dataset(rng, 30, 30, shift=2.0)
        matrix, _ = cross_validate("rf", data, HyperParams(rf_trees=10), k=10, seed=1)
        assert matrix.total == pytest.approx(60 / 10)


class TestConstantColumnWarning:
    """learn logs the constant feature columns once per train or
    cross_validate call, not once per fit."""

    def data(self):
        # columns 5.. are 0 everywhere and column 4 in all rows but one, so
        # column 4 is constant only in the folds that hold that row out
        rng = random.Random(9)
        rows = [vec([rng.gauss(3.0 * (i % 2), 1.0) for _ in range(4)] + [float(i == 0)],
                    "malicious" if i % 2 else "benign", f"s{i}") for i in range(40)]
        return LabeledDataset(tuple(rows))

    def warnings(self, caplog):
        return [r.getMessage() for r in caplog.records if r.name == "cfgrank.learn"]

    @pytest.mark.parametrize("kind", ["logreg", "svm"])
    def test_once_per_cross_validation_with_the_union(self, caplog, kind):
        cross_validate(kind, self.data(), k=10, seed=3)
        assert self.warnings(caplog) == [
            "constant feature column(s): " + ", ".join(FEATURE_NAMES[4:])]

    def test_once_per_train(self, caplog):
        train("logreg", self.data())
        assert self.warnings(caplog) == [
            "constant feature column(s): " + ", ".join(FEATURE_NAMES[5:])]

    def test_none_before_a_failed_fit(self, caplog):
        with pytest.raises(NonFiniteModelError):
            cross_validate("logreg", self.data(), HyperParams(logreg_lr=1e300), k=10)
        assert self.warnings(caplog) == []

    def test_none_for_rf(self, caplog):
        cross_validate("rf", self.data(), HyperParams(rf_trees=3), k=10)
        assert self.warnings(caplog) == []


class TestModelSerialization:
    def test_round_trip_all_kinds(self):
        rng = random.Random(13)
        rows = gaussian_rows(rng, 20, 20)
        for kind in ("logreg", "svm", "rf"):
            model = train(kind, LabeledDataset(rows), HyperParams(rf_trees=5), seed=3)
            again = model_from_json(model_to_json(model))
            assert model_to_json(again) == model_to_json(model)
            for r in rows:
                assert predict(again, r) == predict(model, r)

    def test_bad_version_rejected(self):
        with pytest.raises(Exception):
            model_from_json(b'{"version": 99, "kind": "rf", "trees": []}')

    @pytest.mark.parametrize("payload,missing", [
        ({"version": 1, "kind": "logreg"}, "weights"),
        ({"version": 1, "kind": "rf"}, "trees"),
        ({"version": 1, "kind": "svm", "weights": [0.0], "feat_mean": [0.0],
          "feat_std": [1.0], "constant_features": []}, "bias"),
    ])
    def test_missing_field_named(self, payload, missing):
        with pytest.raises(DataError, match=f"missing field '{missing}'"):
            model_from_json(json.dumps(payload).encode())

    @pytest.mark.parametrize("bias,weight", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_parameter_not_written(self, bias, weight):
        # json.dumps would write NaN or Infinity, which model_from_json rejects
        model = ModelParams(kind="logreg", weights=np.full(N_FEATURES, weight), bias=bias,
                            feat_mean=np.zeros(N_FEATURES), feat_std=np.ones(N_FEATURES))
        with pytest.raises(NonFiniteModelError, match="logreg model has a NaN"):
            model_to_json(model)

    @pytest.mark.parametrize("data", [b"[1]", b"{", b"\xff"])
    def test_malformed_model_rejected(self, data):
        with pytest.raises(DataError):
            model_from_json(data)


def rf_payload(trees):
    return json.dumps({"version": 1, "kind": "rf", "trees": trees}).encode()


def linear_payload(**changes):
    payload = {"version": 1, "kind": "logreg", "weights": [0.5] * N_FEATURES,
               "bias": 0.25, "feat_mean": [0.0] * N_FEATURES,
               "feat_std": [1.0] * N_FEATURES, "constant_features": [3]}
    payload.update(changes)
    return json.dumps(payload).encode()


LEAF = {"leaf": 0.5}


class TestModelValidation:
    """model_from_json rejects every model predict could not use."""

    @pytest.mark.parametrize("trees", [
        [],
        "abc",
        [{"feature": 99, "threshold": 0.0, "left": LEAF, "right": LEAF}],
        [{"feature": -1, "threshold": 0.0, "left": LEAF, "right": LEAF}],
        [{"feature": True, "threshold": 0.0, "left": LEAF, "right": LEAF}],
        [{"feature": 1.0, "threshold": 0.0, "left": LEAF, "right": LEAF}],
        [{"feature": 0, "threshold": "x", "left": LEAF, "right": LEAF}],
        [{"feature": 0, "threshold": 0.0, "left": LEAF}],
        [{"leaf": "x"}],
        [{"leaf": 1.5}],
        [{"leaf": True}],
        [LEAF, "leaf"],
        [{"feature": 0, "threshold": 0.0, "left": LEAF,
          "right": {"feature": 0, "threshold": 1.0, "left": LEAF, "right": {"leaf": -0.1}}}],
    ], ids=["empty", "not-a-list", "feature-99", "feature-negative", "feature-bool",
            "feature-float", "threshold-str", "no-right", "leaf-str", "leaf-above-1",
            "leaf-bool", "node-not-object", "deep-bad-leaf"])
    def test_bad_forest(self, trees):
        with pytest.raises(DataError):
            model_from_json(rf_payload(trees))

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_threshold(self, text):
        data = rf_payload([{"feature": 0, "threshold": 0, "left": LEAF, "right": LEAF}])
        with pytest.raises(DataError):
            model_from_json(data.replace(b'"threshold": 0', f'"threshold": {text}'.encode()))

    def test_deeply_nested_json(self):
        node = "{\"feature\": 0, \"threshold\": 0, \"left\": " * 5000 + "{\"leaf\": 0}" + "}" * 5000
        with pytest.raises(DataError):
            model_from_json(b'{"version": 1, "kind": "rf", "trees": [' + node.encode() + b"]}")

    @pytest.mark.parametrize("changes", [
        {"weights": [0.5]},
        {"weights": [0.5] * (N_FEATURES - 1) + ["x"]},
        {"weights": "abc"},
        {"feat_mean": [0.0] * (N_FEATURES + 1)},
        {"feat_std": [1.0] * (N_FEATURES - 1) + [0.0]},
        {"feat_std": [1.0] * (N_FEATURES - 1) + [-2.0]},
        {"bias": "x"},
        {"bias": True},
        {"constant_features": [N_FEATURES]},
        {"constant_features": [False]},
        {"constant_features": 3},
    ], ids=["one-weight", "weight-str", "weights-str", "mean-long", "std-zero",
            "std-negative", "bias-str", "bias-bool", "constant-out-of-range",
            "constant-bool", "constant-not-list"])
    def test_bad_linear_model(self, changes):
        with pytest.raises(DataError):
            model_from_json(linear_payload(**changes))

    def test_non_finite_linear_values(self):
        with pytest.raises(DataError):
            model_from_json(linear_payload().replace(b'"bias": 0.25', b'"bias": Infinity'))
        with pytest.raises(DataError):
            model_from_json(linear_payload().replace(b"[0.0, ", b"[NaN, ", 1))

    def test_valid_hand_written_models_load(self):
        rf = model_from_json(rf_payload(
            [{"feature": 0, "threshold": 0, "left": {"leaf": 0}, "right": {"leaf": 1}}]))
        assert predict_many(rf, np.array([[1.0] * N_FEATURES])) == [LABEL_MALICIOUS]
        linear = model_from_json(linear_payload())
        assert linear.constant_features == (3,)


def forest_table(rng, n, d, values):
    """Seeded (X, y); "ties" mimics the small-integer CFG feature columns."""
    if values == "ties":
        X = rng.integers(0, 4, size=(n, d)).astype(float)
    elif values == "rounded":
        X = np.round(rng.normal(size=(n, d)), 1)
    else:
        X = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.4).astype(int)
    return X, y


# ties, signed zeros, adjacent floats, subnormals and the ends of the float range
FOREST_VALUES = st.sampled_from([
    0.0, -0.0, 5e-324, 1e-323, 1.0, 1.0000000000000002, 1.0000000000000004, -2.5, 3.0,
    1.5e308, 1.7976931348623157e308])


@st.composite
def forest_cases(draw):
    """(X, y, hyper, seed): a few distinct rows repeated, some columns
    constant."""
    d = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.lists(FOREST_VALUES, min_size=d, max_size=d),
                             min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=24))
    X = np.array([distinct[i] for i in picks])
    for col in draw(st.sets(st.integers(0, d - 1))):
        X[:, col] = X[0, col]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    hyper = HyperParams(rf_trees=draw(st.integers(1, 3)),
                        rf_min_leaf=draw(st.integers(1, 4)),
                        rf_max_depth=draw(st.one_of(st.none(), st.integers(0, 4))))
    return X, y, hyper, draw(st.integers(0, 2 ** 16))


class TestForest:
    """The grower that sorts each node's distinct rows against the grower
    that re-sorts the expanded bootstrap sample at every node."""

    @pytest.mark.parametrize("values", ["ties", "rounded", "continuous"])
    @pytest.mark.parametrize("min_leaf", [1, 3, 7])
    @pytest.mark.parametrize("max_depth", [None, 2, 4])
    def test_trees_equal_reference(self, values, min_leaf, max_depth):
        rng = np.random.default_rng(min_leaf * 10 + (max_depth or 0))
        hyper = HyperParams(rf_trees=3, rf_min_leaf=min_leaf, rf_max_depth=max_depth)
        for n, d in ((12, 1), (60, 4), (150, 23)):
            X, y = forest_table(rng, n, d, values)
            for seed in (0, 17):
                assert _fit_forest(X, y, hyper, seed) == \
                    reference_forest(X, y, hyper, seed)

    @settings(max_examples=300, deadline=None)
    @given(forest_cases())
    # adjacent floats, and adjacent subnormals: the midpoint rounds up to hi
    @example((np.repeat([[1.0000000000000002], [1.0000000000000004]], 6, axis=0),
              np.repeat([1, 0], 6), HyperParams(rf_trees=3), 0))
    @example((np.repeat([[5e-324], [1e-323]], 3, axis=0), np.repeat([0, 1], 3),
              HyperParams(rf_trees=2), 7))
    # -0.0 and 0.0 tie below the chosen split, and above it
    @example((np.repeat([[-0.0], [0.0], [5e-324]], 4, axis=0), np.repeat([1, 1, 0], 4),
              HyperParams(rf_trees=3), 1))
    @example((np.repeat([[-5e-324], [0.0], [-0.0]], 4, axis=0), np.repeat([1, 0, 0], 4),
              HyperParams(rf_trees=3), 2))
    def test_generated_tables_equal_reference(self, case):
        X, y, hyper, seed = case
        trees, reference = _fit_forest(X, y, hyper, seed), reference_forest(X, y, hyper, seed)
        assert trees == reference
        # == takes -0.0 for 0.0; the model file does not
        assert model_to_json(ModelParams(kind="rf", trees=trees)) == \
            model_to_json(ModelParams(kind="rf", trees=reference))

    # min_leaf 2 also bounds the children's counts; 1 masks only rank changes
    @pytest.mark.parametrize("values, min_leaf", [
        pytest.param(values, min_leaf, id=values if min_leaf == 2 else f"{values}-min_leaf_1")
        for min_leaf in (2, 1) for values in ("ties", "rounded", "continuous")])
    def test_split_ignores_row_order(self, values, min_leaf):
        rng = np.random.default_rng(5)
        X, y = forest_table(rng, 80, 23, values)
        w = np.bincount(rng.integers(0, 80, size=80), minlength=80)
        XT, wy, rows = np.ascontiguousarray(X.T), w * y, np.flatnonzero(w)
        # the keys as _fit_forest hands them over: each row's number in the low bits
        keys, counts = _rank_keys(X) | np.arange(80), w | wy << 32
        for _ in range(5):
            feature_ids = rng.choice(23, size=5, replace=False)
            splits = set()
            for order in [rows] + [rng.permutation(rows) for _ in range(4)]:
                f, t, left, right, left_total = _best_split(
                    XT, keys, counts, order, feature_ids, 80, float(wy.sum()), min_leaf)
                # the children are the rows on either side of the threshold
                assert sorted(left.tolist()) == sorted(order[XT[f, order] <= t].tolist())
                assert sorted(right.tolist()) == sorted(order[XT[f, order] > t].tolist())
                assert left_total == counts[left].sum()
                splits.add((f, t, frozenset(left.tolist()), frozenset(right.tolist()),
                            left_total))
            assert len(splits) == 1

    def test_fold_keys_never_alias_the_ranking(self, monkeypatch):
        # each fit ORs its row numbers into its keys in place: a fold's keys
        # must be its own copy, or its rows would leak into the next fold's
        rng = np.random.default_rng(8)
        X, y = forest_table(rng, 120, 23, "ties")
        rankings, fold_keys = [], []

        def rank_keys(X):
            keys = _rank_keys(X)
            rankings.append((keys, keys.copy()))
            return keys

        def fit_forest(X, y, hyper, seed, keys=None):
            fold_keys.append(keys)
            return _fit_forest(X, y, hyper, seed, keys)

        monkeypatch.setattr(learn, "_rank_keys", rank_keys)
        monkeypatch.setattr(learn, "_fit_forest", fit_forest)
        cross_validate("rf", LabeledDataset.from_arrays(X, y), HyperParams(rf_trees=2),
                       k=5, seed=1)
        [(ranking, before)] = rankings
        assert len(fold_keys) == 5
        for keys in fold_keys:
            assert keys is not None and not np.shares_memory(keys, ranking)
        assert np.array_equal(ranking, before)

    def test_cross_validate_and_train_equal_reference(self, monkeypatch):
        rng = np.random.default_rng(3)
        X, y = forest_table(rng, 200, 23, "ties")
        data = LabeledDataset(tuple(
            FeatureVector(f"s{i}", tuple(X[i]), "malicious" if y[i] else "benign")
            for i in range(len(y))))
        hyper = HyperParams(rf_trees=5)
        results = []
        # the reference ranks nothing; cross_validate hands _fit_forest the
        # folds' slices of one ranking
        for fit in (_fit_forest,
                    lambda X, y, hyper, seed, keys: reference_forest(X, y, hyper, seed)):
            monkeypatch.setattr(learn, "_fit_forest", fit)
            results.append((cross_validate("rf", data, hyper, k=10, seed=4),
                            model_to_json(train("rf", data, hyper, seed=4))))
        assert results[0] == results[1]


class TestFloatRangeEnds:
    """Features near the ends of the float range overflow no fit and no
    prediction on the way (pytest turns a RuntimeWarning into an error)."""

    TOP = 1.7976931348623157e308

    def data(self):
        # column 0 alone separates the classes; every other column is constant
        return LabeledDataset(tuple(
            vec([1.5e308 if i % 2 else self.TOP] + [0.5] * 22,
                "malicious" if i % 2 else "benign", f"s{i}") for i in range(8)))

    def test_forest_threshold_between_the_values(self):
        model = train("rf", self.data(), HyperParams(rf_trees=20), seed=3)
        stack, thresholds = list(model.trees), []
        while stack:
            node = stack.pop()
            if "leaf" not in node:
                thresholds.append(node["threshold"])
                stack += [node["left"], node["right"]]
        assert thresholds and all(1.5e308 <= t < self.TOP for t in thresholds)
        assert model_from_json(model_to_json(model)).trees == model.trees

    @pytest.mark.parametrize("kind", ["logreg", "svm"])
    def test_linear_mean_overflow_is_a_data_error(self, kind):
        with pytest.raises(NonFiniteModelError):
            train(kind, self.data())

    @pytest.mark.parametrize("kind", ["logreg", "svm"])
    def test_linear_predict_far_outside_training_range(self, kind):
        model = train(kind, gaussian_dataset(random.Random(4), 20, 20))
        X = np.full((3, N_FEATURES), self.TOP)
        X[1] *= -1
        X[2, ::2] *= -1
        assert len(predict_many(model, X)) == 3

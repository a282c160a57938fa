"""From-scratch classifiers and evaluation: logistic regression, Pegasos
linear SVM, random forest, stratified k-fold CV, and the binary-rate report.

The positive class is "malicious" throughout. Ties predict benign.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import DataError, json_line
from .features import (FEATURE_NAMES, LABEL_BENIGN, LABEL_MALICIOUS,
                       N_FEATURES, FeatureVector)

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

KINDS = ("logreg", "svm", "rf")


class SingleClassError(DataError):
    def __init__(self, label: str):
        super().__init__(f"dataset contains only {label!r} samples")


class ClassTooSmallError(DataError):
    def __init__(self, label: str, size: int, k: int):
        super().__init__(f"class {label!r} has {size} samples, fewer than k={k}")


class EmptyDatasetError(DataError):
    def __init__(self):
        super().__init__("dataset has no labeled samples")


class AllZeroMatrixError(DataError):
    def __init__(self):
        super().__init__("confusion matrix is all zeros")


class NonFiniteModelError(DataError):
    def __init__(self, kind: str):
        super().__init__(f"{kind} model has a NaN or infinite parameter; "
                         "JSON cannot hold it")


class LabeledDataset:
    """Labeled feature rows as X (rows x N_FEATURES, float64) and y
    (1 = malicious, 0 = benign); a subset slices the arrays."""

    def __init__(self, vectors: tuple[FeatureVector, ...]):
        vectors = tuple(vectors)
        for v in vectors:
            if v.label is None:
                raise DataError(f"sample {v.sample_id!r} has no label")
        self.X = np.array([v.values for v in vectors], dtype=float).reshape(-1, N_FEATURES)
        self.y = np.array([v.label == LABEL_MALICIOUS for v in vectors], dtype=np.int64)

    @classmethod
    def from_arrays(cls, X: np.ndarray, y: np.ndarray) -> "LabeledDataset":
        """The dataset of X and y as read_labeled_table returns them."""
        data = cls.__new__(cls)
        data.X, data.y = X, y
        return data

    def subset(self, indices: list[int]) -> "LabeledDataset":
        return LabeledDataset.from_arrays(self.X[indices], self.y[indices])

    def __len__(self) -> int:
        return len(self.y)


@dataclass
class HyperParams:
    logreg_lr: float = 0.1
    logreg_l2: float = 1e-4
    logreg_epochs: int = 500
    svm_lambda: float = 1e-4
    svm_steps: int = 2000
    rf_trees: int = 100
    rf_min_leaf: int = 1
    rf_max_depth: int | None = None


@dataclass
class ModelParams:
    kind: str
    # linear models
    weights: np.ndarray | None = None
    bias: float = 0.0
    feat_mean: np.ndarray | None = None
    feat_std: np.ndarray | None = None
    constant_features: tuple[int, ...] = ()
    # random forest: nested {"feature", "threshold", "left", "right"} / {"leaf": p}
    trees: list[dict] = field(default_factory=list)

    @cached_property
    def flat_forest(self) -> tuple:
        """The trees as flat arrays, built on first use and then kept, so
        trees must not change after it; see _flat_forest."""
        return _flat_forest(self.trees)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: float
    fn: float
    fp: float
    tn: float

    @property
    def total(self) -> float:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricReport:
    """Six rates in percent; None where the defining ratio has denominator 0."""
    fnr: float | None
    fpr: float | None
    fdr: float | None
    for_: float | None
    f1: float | None
    ar: float | None


def compute_metrics(m: ConfusionMatrix) -> MetricReport:
    if m.total == 0:
        raise AllZeroMatrixError()

    def rate(num: float, den: float) -> float | None:
        return None if den == 0 else 100.0 * num / den

    return MetricReport(
        fnr=rate(m.fn, m.fn + m.tp),
        fpr=rate(m.fp, m.fp + m.tn),
        fdr=rate(m.fp, m.fp + m.tp),
        for_=rate(m.fn, m.fn + m.tn),
        f1=rate(2 * m.tp, 2 * m.tp + m.fn + m.fp),
        ar=rate(m.tp + m.tn, m.total),
    )


def _standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = tuple(int(i) for i in np.flatnonzero(std == 0.0))
    std = np.where(std == 0.0, 1.0, std)
    return mean, std, constant


def _logreg_grad(
    w: np.ndarray, b: float, X: np.ndarray, yf: np.ndarray, l2: float, r: np.ndarray,
) -> tuple[np.ndarray, float]:
    """(grad_w, grad_b) of the mean L2-regularized log loss (bias
    unregularized). yf is y as floats; r, of len(yf), is scratch and ends
    up holding the residuals p - y."""
    np.matmul(X, w, out=r)
    r += b
    np.negative(r, out=r)
    np.exp(r, out=r)
    r += 1.0
    np.divide(1.0, r, out=r)
    r -= yf
    # np.add.reduce(r) / len(r) is the bits of r.mean()
    return X.T @ r / len(r) + l2 * w, float(np.add.reduce(r) / len(r))


def _fit_logreg(X: np.ndarray, y: np.ndarray, hyper: HyperParams) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent; no epoch computes the loss."""
    w = np.zeros(X.shape[1])
    b = 0.0
    yf, r = y.astype(float), np.empty(len(y))
    for _ in range(hyper.logreg_epochs):
        grad_w, grad_b = _logreg_grad(w, b, X, yf, hyper.logreg_l2, r)
        w -= hyper.logreg_lr * grad_w
        b = b - hyper.logreg_lr * grad_b
    return w, b


def _fit_svm(X: np.ndarray, y: np.ndarray, hyper: HyperParams, seed: int) -> tuple[np.ndarray, float]:
    """Pegasos stochastic subgradient on the hinge loss.

    Samples are visited in seeded-shuffled passes. The bias rides along as a
    constant-1 feature so it shares the step-size decay; the huge early
    steps (eta = 1/(lambda*t)) would otherwise leave it unbounded.
    """
    rng = np.random.default_rng(seed)
    n, d = X.shape
    rows = list(np.hstack([X, np.ones((n, 1))]))
    signed = np.where(y == 1, 1.0, -1.0).tolist()
    w = np.zeros(d + 1)
    lam = hyper.svm_lambda
    t = 0
    while t < hyper.svm_steps:
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            margin = signed[i] * (rows[i] @ w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * signed[i] * rows[i]
            if t >= hyper.svm_steps:
                break
    return w[:-1], float(w[-1])


# the bootstrap count of a packed prefix sum
_LOW = 0xFFFFFFFF
# where the low and the high 32 bits of an int64 lie in its two uint32 words
_LOW_WORD = 0 if sys.byteorder == "little" else 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and the high 32 bits of each int64 of a (C-contiguous last
    axis) as uint32 views, with no pass over a."""
    words = a.view(np.uint32)
    return words[..., _LOW_WORD::2], words[..., 1 - _LOW_WORD::2]


def _rank_keys(X: np.ndarray) -> np.ndarray:
    """Features x rows int64: each value's rank in its column, shifted 32
    bits up. Equal values share a rank (-0.0 and 0.0 too), so ranks order
    the rows as their values do, and so does any slice of the columns.
    _fit_forest ORs each row's number into the low 32 bits."""
    XT = X.T
    order = np.argsort(XT, axis=1)
    xs = np.take_along_axis(XT, order, axis=1)
    ranks = np.zeros(XT.shape, np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=ranks[:, 1:])
    keys = np.empty_like(ranks)
    np.put_along_axis(keys, order, ranks << 32, axis=1)
    return keys


def _best_split(
    XT: np.ndarray, keys: np.ndarray, counts: np.ndarray, rows: np.ndarray,
    feature_ids: np.ndarray, n: int, total_pos: float, min_leaf: int,
) -> tuple[int, float, np.ndarray, np.ndarray, int] | None:
    """Best (feature, threshold, left rows, right rows, left total) among
    the sampled features, or None.

    rows lists the node's distinct rows, in any order; keys are _rank_keys
    of XT's columns with each row's number in the low 32 bits, rank << 32 |
    row; counts packs each row's bootstrap multiplicity w in the low 32 bits
    and w * y above them, so one prefix sum counts both. Each sampled
    feature sorts its keys. A split can only fall where the rank changes,
    and there the prefix holds exactly the rows whose value is at most that
    value, however ties were ordered, so the weighted prefix sums equal the
    per-position counts over the expanded bootstrap sample and the
    impurities match a sort of that sample bit for bit. Every distinct row
    weighs at least 1, so at min_leaf 1 every rank change leaves each side
    a leaf and only rank changes are masked. The score is half the weighted
    gini, without its two factors 2: doubling scales every rounded step
    exactly, as no value here overflows or is subnormal, so each score is
    exactly half the gini and the first minimum lies at the same position.
    Threshold t splits into x <= t / x > t: the midpoint of the two values,
    or the lower value where the midpoint rounds up to the upper one
    (adjacent floats). Either lies in [lo, hi), so the children are the
    chosen feature's sorted prefix and suffix, and the left total is the
    packed prefix sum there.
    """
    key = keys[feature_ids[:, None], rows]
    key.sort(axis=1)
    sub, rank = _halves(key)
    left = counts.take(sub[:, :-1])
    left.cumsum(axis=1, out=left)
    ok = rank[:, 1:] != rank[:, :-1]
    if min_leaf > 1:
        left_n = left & _LOW
        ok &= (left_n >= min_leaf) & (left_n <= n - min_leaf)
    at = ok.ravel().nonzero()[0]
    if not len(at):
        return None
    left = left.ravel().take(at)
    left_n, left_pos = _halves(left)
    # (left_n * pl * (1 - pl) + right_n * pr * (1 - pr)) / n in that order,
    # with pl = left_pos / left_n and pr = (total_pos - left_pos) / right_n
    score = left_n.astype(float)
    pl = left_pos.astype(float)
    right_n = np.subtract(n, score)
    pr = np.subtract(total_pos, pl)
    pl /= score
    pr /= right_n
    score *= pl
    np.subtract(1, pl, out=pl)
    score *= pl
    right_n *= pr
    np.subtract(1, pr, out=pr)
    right_n *= pr
    score += right_n
    score /= n
    # the first minimum in row-major order: the first sampled feature keeps
    # ties, then its first position
    i = int(score.argmin())
    best, j = divmod(int(at[i]), ok.shape[1])
    f = int(feature_ids[best])
    lo, hi = float(XT[f, sub[best, j]]), float(XT[f, sub[best, j + 1]])
    # near the ends of the float range the sum overflows where the halves do not
    t = (lo + hi) / 2 if math.isfinite(lo + hi) else lo / 2 + hi / 2
    return f, t if t < hi else lo, sub[best, :j + 1], sub[best, j + 1:], int(left[i])


def _grow_tree(
    XT: np.ndarray, keys: np.ndarray, counts: np.ndarray, rows: np.ndarray, total: int,
    rng: np.random.Generator, hyper: HyperParams, k: int, depth: int,
) -> dict:
    """The subtree of rows, whose counts sum to the packed total."""
    n, pos = total & _LOW, float(total >> 32)
    if pos == 0 or pos == n or n < 2 * hyper.rf_min_leaf or \
            (hyper.rf_max_depth is not None and depth >= hyper.rf_max_depth):
        return {"leaf": pos / n}
    feature_ids = rng.choice(len(XT), size=k, replace=False)
    split = _best_split(XT, keys, counts, rows, feature_ids, n, pos, hyper.rf_min_leaf)
    if split is None:
        return {"leaf": pos / n}
    f, threshold, left, right, left_total = split
    return {
        "feature": f,
        "threshold": threshold,
        "left": _grow_tree(XT, keys, counts, left, left_total, rng, hyper, k, depth + 1),
        "right": _grow_tree(XT, keys, counts, right, total - left_total, rng, hyper, k,
                            depth + 1),
    }


def _fit_forest(X: np.ndarray, y: np.ndarray, hyper: HyperParams, seed: int,
                keys: np.ndarray | None = None) -> list[dict]:
    """Breiman's forest, each node sorting its own rows.

    A tree's bootstrap sample becomes row weights, and its root holds the
    distinct rows drawn. Each split samples ceil(sqrt(d)) features. keys
    are X's _rank_keys, or the columns of a superset's that X's rows keep,
    in an array of the caller's that no one else reads: each row's number
    is ORed into its keys in place, once per fit, for _best_split.
    """
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    keys = _rank_keys(X) if keys is None else keys
    keys |= np.arange(n)
    k = min(d, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    trees = []
    for ti in range(hyper.rf_trees):
        rng = np.random.default_rng(seed + ti)
        w = np.bincount(rng.integers(0, n, size=n), minlength=n)
        counts = w | (w * y) << 32
        trees.append(_grow_tree(XT, keys, counts, np.flatnonzero(w), int(counts.sum()), rng,
                                hyper, k, depth=0))
    return trees


def _warn_constant(columns) -> None:
    if columns:
        log.warning("constant feature column(s): %s",
                    ", ".join(FEATURE_NAMES[i] for i in sorted(columns)))


def train(kind: str, data: LabeledDataset, hyper: HyperParams | None = None,
          seed: int = 42) -> ModelParams:
    """Fit one classifier; deterministic given (data order, hyper, seed).
    A logreg or svm fit logs the feature columns that are constant in data,
    once; a forest's model keeps no constant_features, so rf logs none."""
    model = _fit(kind, data, hyper, seed)
    _warn_constant(model.constant_features)
    return model


def _fit(kind: str, data: LabeledDataset, hyper: HyperParams | None,
         seed: int, keys: np.ndarray | None = None) -> ModelParams:
    if kind not in KINDS:
        raise DataError(f"unknown classifier kind {kind!r}")
    if not len(data):
        raise EmptyDatasetError()
    hyper = hyper or HyperParams()
    X, y = data.X, data.y
    if y.min() == y.max():
        raise SingleClassError(LABEL_MALICIOUS if y[0] == 1 else LABEL_BENIGN)
    if kind == "rf":
        return ModelParams(kind="rf", trees=_fit_forest(X, y, hyper, seed, keys))
    # a step size too large, or features near the ends of the float range,
    # overflow; the result is checked below instead of warned about on the way
    with np.errstate(all="ignore"):
        mean, std, constant = _standardize_fit(X)
        Xs = (X - mean) / std
        if kind == "logreg":
            w, b = _fit_logreg(Xs, y, hyper)
        else:
            w, b = _fit_svm(Xs, y, hyper, seed)
    if not all(np.isfinite(v).all() for v in (w, b, mean, std)):
        raise NonFiniteModelError(kind)
    return ModelParams(kind=kind, weights=w, bias=b, feat_mean=mean,
                       feat_std=std, constant_features=constant)


def predict_many(model: ModelParams, X: np.ndarray) -> list[str]:
    """Classify each row of X (rows x N_FEATURES); score ties go to benign."""
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise DataError(f"expected rows of {N_FEATURES} features, got shape {X.shape}")
    if model.kind == "rf":
        feature, threshold, left, right, leaf, roots, depth = model.flat_forest
        # every row steps down every tree, one level a step; a leaf is its own child
        node = np.tile(roots, (len(X), 1))
        rows = np.arange(len(X))[:, None]
        for _ in range(depth):
            node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
        # rows x trees, C order: each row's mean is the same pairwise sum
        # as np.mean over that row's list of tree probabilities
        return [LABEL_MALICIOUS if p > 0.5 else LABEL_BENIGN for p in leaf[node].mean(axis=1)]
    # one dot per row: a matrix-vector product may round z differently; a row
    # far outside the training range may overflow z to inf or NaN (benign)
    with np.errstate(all="ignore"):
        Xs = (X - model.feat_mean) / model.feat_std
        return [LABEL_MALICIOUS if row @ model.weights + model.bias > 0 else LABEL_BENIGN
                for row in Xs]


def predict(model: ModelParams, x: FeatureVector) -> str:
    """Classify one sample; score ties go to benign."""
    return predict_many(model, np.array([x.values], dtype=float))[0]


def stratified_kfold(data: LabeledDataset, k: int = 10, seed: int = 42,
                     ) -> list[tuple[list[int], list[int]]]:
    """Per-class seeded shuffle, then round-robin deal into k folds; each
    split is (train, test), both ascending."""
    classes = [np.flatnonzero(data.y == value) for value in (1, 0)]
    # checked before anything of size k is allocated
    for label, indices in zip((LABEL_MALICIOUS, LABEL_BENIGN), classes):
        if len(indices) < k:
            raise ClassTooSmallError(label, len(indices), k)
    rng = np.random.default_rng(seed)
    # one deal across both classes, malicious first, so the per-class
    # remainders spread over different folds and totals stay within 1
    dealt = np.concatenate([indices[rng.permutation(len(indices))] for indices in classes])
    fold = np.empty(len(dealt), np.intp)
    fold[dealt] = np.arange(len(dealt)) % k
    return [(np.flatnonzero(fold != j).tolist(), np.flatnonzero(fold == j).tolist())
            for j in range(k)]


def cross_validate(kind: str, data: LabeledDataset, hyper: HyperParams | None = None,
                   k: int = 10, seed: int = 42) -> tuple[ConfusionMatrix, MetricReport]:
    """k-fold CV; returns the fold-averaged confusion matrix and the rates
    computed from the summed (pre-averaging) counts. For logreg and svm,
    logs the feature columns that are constant in any fold's training set,
    once; a forest's model keeps no constant_features, so rf logs none."""
    if not len(data):
        raise EmptyDatasetError()
    hyper = hyper or HyperParams()
    splits = stratified_kfold(data, k=k, seed=seed)
    # tp, fn, fp, tn: 2 x (actually benign) + (predicted benign)
    counts = np.zeros(4, np.int64)
    constant: set[int] = set()
    # ranked once; a fold's rows keep their order in the sliced columns
    keys = _rank_keys(data.X) if kind == "rf" else None
    for fold, (train_idx, test_idx) in enumerate(splits):
        model = _fit(kind, data.subset(train_idx), hyper, seed + fold,
                     None if keys is None else keys[:, train_idx])
        constant.update(model.constant_features)
        benign = [label == LABEL_BENIGN for label in predict_many(model, data.X[test_idx])]
        counts += np.bincount(2 - 2 * data.y[test_idx] + benign, minlength=4)
    _warn_constant(constant)
    tp, fn, fp, tn = counts.tolist()
    summed = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    averaged = ConfusionMatrix(tp=tp / k, fn=fn / k, fp=fp / k, tn=tn / k)
    return averaged, compute_metrics(summed)


def model_to_json(model: ModelParams) -> bytes:
    payload: dict = {"version": MODEL_FORMAT_VERSION, "kind": model.kind}
    if model.kind == "rf":
        payload["trees"] = model.trees
    else:
        payload["weights"] = list(model.weights)
        payload["bias"] = model.bias
        payload["feat_mean"] = list(model.feat_mean)
        payload["feat_std"] = list(model.feat_std)
        payload["constant_features"] = list(model.constant_features)
    try:
        return json_line(payload)
    except DataError:
        raise NonFiniteModelError(model.kind) from None


def _finite(value) -> bool:
    """A JSON number, not a bool, that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _feature_index(value) -> bool:
    return type(value) is int and 0 <= value < N_FEATURES


def _flat_forest(trees) -> tuple:
    """The forest in pre-order as arrays feature, threshold, left, right
    and leaf, one entry a node, then the roots' nodes and the greatest leaf
    depth; a leaf is its own left and right child. Raises a DataError
    unless every node of every tree is a leaf with a probability, or a split
    on a feature index with a finite threshold and two children. An
    explicit stack, so a deep tree cannot exhaust the recursion limit."""
    if not isinstance(trees, list) or not trees:
        raise DataError("rf model needs a non-empty list of trees")
    nodes, roots, depth = [], [], 0
    # (node, its depth, its parent's row if it is a right child)
    stack = [(tree, 0, None) for tree in reversed(trees)]
    while stack:
        node, d, parent = stack.pop()
        i = len(nodes)
        if not isinstance(node, dict):
            raise DataError("rf tree node is not an object")
        if d == 0:
            roots.append(i)
        elif parent is not None:
            nodes[parent][3] = i
        # floats, most of the values, skip _finite's call; a float in [0, 1] is finite
        if "leaf" in node:
            v = node["leaf"]
            if not ((type(v) is float or _finite(v)) and 0 <= v <= 1):
                raise DataError(f"rf leaf value {v!r} is not a number in [0, 1]")
            nodes.append([0, 0.0, i, i, float(v)])
            depth = max(depth, d)
            continue
        f, t = node.get("feature"), node.get("threshold")
        if not _feature_index(f):
            raise DataError(f"rf split feature {f!r} is not an index below {N_FEATURES}")
        if not (math.isfinite(t) if type(t) is float else _finite(t)):
            raise DataError(f"rf split threshold {t!r} is not finite")
        try:
            left, right = node["left"], node["right"]
        except KeyError as e:
            raise DataError(f"rf split node has no {e.args[0]!r} child") from None
        # x <= t for a float x exactly when x <= the greatest float not above t
        ft = float(t)
        # in pre-order the left child is the next row; the right one sets its own
        nodes.append([f, ft if ft <= t else math.nextafter(ft, -math.inf), i + 1, -1, 0.0])
        stack += [(right, d + 1, i), (left, d + 1, None)]
    feature, threshold, left, right, leaf = np.array(nodes, dtype=float).T
    feature, left, right = (a.astype(np.intp) for a in (feature, left, right))
    return feature, threshold, left, right, leaf, roots, depth


def model_from_json(data: bytes) -> ModelParams:
    """Read a model_to_json payload; anything predict could not use raises
    a DataError."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"model is not UTF-8 JSON: {e}") from None
    except RecursionError:
        raise DataError("model JSON is nested too deeply") from None
    if not isinstance(raw, dict):
        raise DataError("model is not a JSON object")
    if raw.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model version {raw.get('version')!r}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise DataError(f"unknown classifier kind {kind!r}")

    def field(name: str):
        if name not in raw:
            raise DataError(f"{kind} model is missing field {name!r}")
        return raw[name]

    if kind == "rf":
        model = ModelParams(kind="rf", trees=field("trees"))
        model.flat_forest  # validates, and is kept for predict
        return model
    fields = {name: field(name) for name in
              ("weights", "bias", "feat_mean", "feat_std", "constant_features")}
    for name in ("weights", "feat_mean", "feat_std"):
        values = fields[name]
        if not (isinstance(values, list) and len(values) == N_FEATURES
                and all(_finite(v) for v in values)):
            raise DataError(f"{kind} model field {name!r} is not {N_FEATURES} finite numbers")
    if not all(v > 0 for v in fields["feat_std"]):
        raise DataError(f"{kind} model field 'feat_std' has a value <= 0")
    if not _finite(fields["bias"]):
        raise DataError(f"{kind} model field 'bias' is not a finite number")
    constant = fields["constant_features"]
    if not (isinstance(constant, list) and all(_feature_index(i) for i in constant)):
        raise DataError(f"{kind} model field 'constant_features' is not a list of "
                        f"indices below {N_FEATURES}")
    return ModelParams(
        kind=kind,
        weights=np.array(fields["weights"], dtype=float),
        bias=float(fields["bias"]),
        feat_mean=np.array(fields["feat_mean"], dtype=float),
        feat_std=np.array(fields["feat_std"], dtype=float),
        constant_features=tuple(constant),
    )

"""From-scratch classifiers and evaluation: logistic regression, Pegasos
linear SVM, random forest, stratified k-fold CV, and the binary-rate report.

The positive class is "malicious" throughout. Ties predict benign.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .features import (FEATURE_NAMES, LABEL_BENIGN, LABEL_MALICIOUS,
                       N_FEATURES, FeatureVector)

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

KINDS = ("logreg", "svm", "rf")


class LearnError(ValueError):
    pass


class SingleClassError(LearnError):
    def __init__(self, label: str):
        super().__init__(f"dataset contains only {label!r} samples")


class ClassTooSmallError(LearnError):
    def __init__(self, label: str, size: int, k: int):
        super().__init__(f"class {label!r} has {size} samples, fewer than k={k}")


class SchemaMismatchError(LearnError):
    pass


class EmptyDatasetError(LearnError):
    def __init__(self):
        super().__init__("dataset has no labeled samples")


class AllZeroMatrixError(LearnError):
    def __init__(self):
        super().__init__("confusion matrix is all zeros")


class NonFiniteModelError(LearnError):
    def __init__(self, kind: str):
        super().__init__(f"{kind} model has a NaN or infinite parameter; "
                         "JSON cannot hold it")


class LabeledDataset:
    """Labeled feature rows, with X (rows x N_FEATURES, float64) and y
    (1 = malicious, 0 = benign) built once; a subset slices the arrays."""

    def __init__(self, vectors: tuple[FeatureVector, ...]):
        self.vectors = tuple(vectors)
        for v in self.vectors:
            if v.label is None:
                raise LearnError(f"sample {v.sample_id!r} has no label")
        self.X = np.array([v.values for v in self.vectors],
                          dtype=float).reshape(-1, N_FEATURES)
        self.y = np.array([1 if v.label == LABEL_MALICIOUS else 0 for v in self.vectors],
                          dtype=np.int64)

    def subset(self, indices: list[int]) -> "LabeledDataset":
        part = LabeledDataset.__new__(LabeledDataset)
        part.vectors = tuple(self.vectors[i] for i in indices)
        part.X = self.X[indices]
        part.y = self.y[indices]
        return part

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
    if constant:
        log.warning("constant feature column(s): %s",
                    ", ".join(FEATURE_NAMES[i] for i in constant))
    std = np.where(std == 0.0, 1.0, std)
    return mean, std, constant


def _logreg_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(z, grad_w, grad_b) of the mean L2-regularized log loss (bias unregularized)."""
    z = X @ w + b
    p = 1.0 / (1.0 + np.exp(-z))
    residual = p - y
    grad_w = X.T @ residual / len(y) + l2 * w
    grad_b = float(residual.mean())
    return z, grad_w, grad_b


def logreg_loss_and_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean L2-regularized log loss with its gradient (bias unregularized)."""
    z, grad_w, grad_b = _logreg_grad(w, b, X, y, l2)
    # stable log(1 + e^-|z|) formulation
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * w @ w)
    return loss, grad_w, grad_b


def _fit_logreg(X: np.ndarray, y: np.ndarray, hyper: HyperParams) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent; no epoch computes the loss."""
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(hyper.logreg_epochs):
        _, grad_w, grad_b = _logreg_grad(w, b, X, y, hyper.logreg_l2)
        w = w - hyper.logreg_lr * grad_w
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
    Xa = np.hstack([X, np.ones((n, 1))])
    signed = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(d + 1)
    lam = hyper.svm_lambda
    t = 0
    while t < hyper.svm_steps:
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            margin = signed[i] * (Xa[i] @ w)
            w = (1.0 - eta * lam) * w
            if margin < 1.0:
                w = w + eta * signed[i] * Xa[i]
            if t >= hyper.svm_steps:
                break
    return w[:-1], float(w[-1])


def _best_split(
    XT: np.ndarray, w: np.ndarray, wy: np.ndarray, idx: np.ndarray,
    feature_ids: np.ndarray, n: int, total_pos: float, min_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) among the sampled features, or None.

    Row j of idx lists the node's distinct rows in ascending order of
    feature j; w holds bootstrap multiplicities and wy = w * y. A split
    can only fall where the value changes, and there the weighted prefix
    sums equal the per-position counts over the expanded bootstrap sample,
    so the impurities match a sort of that sample bit for bit. Threshold t
    splits into x <= t / x > t and is the midpoint of the two values.
    """
    sub = idx[feature_ids]
    xs = XT[feature_ids[:, None], sub]
    left_n = np.cumsum(w[sub], axis=1)[:, :-1].astype(float)
    left_pos = np.cumsum(wy[sub], axis=1)[:, :-1]
    right_n = n - left_n
    right_pos = total_pos - left_pos
    ok = (xs[:, 1:] != xs[:, :-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    pl = left_pos / left_n
    pr = right_pos / right_n
    gini = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
    gini = np.where(ok, gini, np.inf)
    cols = np.argmin(gini, axis=1)
    scores = gini[np.arange(len(feature_ids)), cols]
    best = None
    # draw order, strictly smaller wins: the first sampled feature keeps ties
    for r in range(len(feature_ids)):
        if scores[r] < np.inf and (best is None or scores[r] < scores[best]):
            best = r
    if best is None:
        return None
    j = cols[best]
    return int(feature_ids[best]), float((xs[best, j] + xs[best, j + 1]) / 2.0)


def _grow_tree(
    XT: np.ndarray, w: np.ndarray, wy: np.ndarray, idx: np.ndarray,
    rng: np.random.Generator, hyper: HyperParams, depth: int,
) -> dict:
    rows = idx[0]
    n = int(w[rows].sum())
    pos = float(wy[rows].sum())
    if pos == 0 or pos == n or n < 2 * hyper.rf_min_leaf or \
            (hyper.rf_max_depth is not None and depth >= hyper.rf_max_depth):
        return {"leaf": pos / n}
    d = XT.shape[0]
    k = min(d, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    feature_ids = rng.choice(d, size=k, replace=False)
    split = _best_split(XT, w, wy, idx, feature_ids, n, pos, hyper.rf_min_leaf)
    if split is None:
        return {"leaf": pos / n}
    f, threshold = split
    # a stable partition keeps every row of idx in value order
    goes_left = (XT[f] <= threshold)[idx]
    return {
        "feature": f,
        "threshold": threshold,
        "left": _grow_tree(XT, w, wy, idx[goes_left].reshape(d, -1),
                           rng, hyper, depth + 1),
        "right": _grow_tree(XT, w, wy, idx[~goes_left].reshape(d, -1),
                            rng, hyper, depth + 1),
    }


def _fit_forest(X: np.ndarray, y: np.ndarray, hyper: HyperParams, seed: int) -> list[dict]:
    """Breiman's forest grown on presorted columns (SLIQ-style).

    Each column is sorted once per fit. A tree's bootstrap sample becomes
    row weights, and its nodes partition the sorted index lists instead
    of sorting again.
    """
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1)
    trees = []
    for ti in range(hyper.rf_trees):
        rng = np.random.default_rng(seed + ti)
        sample = rng.integers(0, n, size=n)
        w = np.bincount(sample, minlength=n)
        idx = order[w[order] > 0].reshape(d, -1)
        trees.append(_grow_tree(XT, w, w * y, idx, rng, hyper, depth=0))
    return trees


def _tree_prob(tree: dict, x: list[float]) -> float:
    node = tree
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def train(kind: str, data: LabeledDataset, hyper: HyperParams | None = None,
          seed: int = 42) -> ModelParams:
    """Fit one classifier; deterministic given (data order, hyper, seed)."""
    if kind not in KINDS:
        raise LearnError(f"unknown classifier kind {kind!r}")
    if not len(data):
        raise EmptyDatasetError()
    hyper = hyper or HyperParams()
    X, y = data.X, data.y
    if y.min() == y.max():
        raise SingleClassError(LABEL_MALICIOUS if y[0] == 1 else LABEL_BENIGN)
    if kind == "rf":
        return ModelParams(kind="rf", trees=_fit_forest(X, y, hyper, seed))
    mean, std, constant = _standardize_fit(X)
    Xs = (X - mean) / std
    # a step size too large overflows the weights; the result is checked
    # below instead of warned about on the way
    with np.errstate(all="ignore"):
        if kind == "logreg":
            w, b = _fit_logreg(Xs, y, hyper)
        else:
            w, b = _fit_svm(Xs, y, hyper, seed)
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise NonFiniteModelError(kind)
    return ModelParams(kind=kind, weights=w, bias=b, feat_mean=mean,
                       feat_std=std, constant_features=constant)


def predict_many(model: ModelParams, X: np.ndarray) -> list[str]:
    """Classify each row of X (rows x N_FEATURES); score ties go to benign."""
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise SchemaMismatchError(f"expected rows of {N_FEATURES} features, got shape {X.shape}")
    if model.kind == "rf":
        # rows x trees, C order: each row's mean is the same pairwise sum
        # as np.mean over that row's list of tree probabilities
        probs = np.array([[_tree_prob(t, row) for t in model.trees] for row in X.tolist()],
                         dtype=float).reshape(len(X), len(model.trees))
        return [LABEL_MALICIOUS if p > 0.5 else LABEL_BENIGN for p in probs.mean(axis=1)]
    Xs = (X - model.feat_mean) / model.feat_std
    # one dot per row: a matrix-vector product may round z differently
    return [LABEL_MALICIOUS if row @ model.weights + model.bias > 0 else LABEL_BENIGN
            for row in Xs]


def predict(model: ModelParams, x: FeatureVector) -> str:
    """Classify one sample; score ties go to benign."""
    if len(x.values) != N_FEATURES:
        raise SchemaMismatchError(f"expected {N_FEATURES} features, got {len(x.values)}")
    return predict_many(model, np.array([x.values], dtype=float))[0]


def stratified_kfold(data: LabeledDataset, k: int = 10, seed: int = 42,
                     ) -> list[tuple[list[int], list[int]]]:
    """Per-class seeded shuffle, then round-robin deal into k folds."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    # one dealing position carried across classes, so the per-class
    # remainders spread over different folds and totals stay within 1
    pos = 0
    for label, value in ((LABEL_MALICIOUS, 1), (LABEL_BENIGN, 0)):
        indices = np.flatnonzero(data.y == value).tolist()
        if len(indices) < k:
            raise ClassTooSmallError(label, len(indices), k)
        shuffled = [indices[j] for j in rng.permutation(len(indices))]
        for idx in shuffled:
            folds[pos % k].append(idx)
            pos += 1
    splits = []
    for j in range(k):
        test = sorted(folds[j])
        train_idx = sorted(i for jj in range(k) if jj != j for i in folds[jj])
        splits.append((train_idx, test))
    return splits


def cross_validate(kind: str, data: LabeledDataset, hyper: HyperParams | None = None,
                   k: int = 10, seed: int = 42) -> tuple[ConfusionMatrix, MetricReport]:
    """k-fold CV; returns the fold-averaged confusion matrix and the rates
    computed from the summed (pre-averaging) counts."""
    if not len(data):
        raise EmptyDatasetError()
    hyper = hyper or HyperParams()
    splits = stratified_kfold(data, k=k, seed=seed)
    tp = fn = fp = tn = 0
    for fold, (train_idx, test_idx) in enumerate(splits):
        model = train(kind, data.subset(train_idx), hyper, seed=seed + fold)
        predicted = predict_many(model, data.X[test_idx])
        for actual, label in zip(data.y[test_idx].tolist(), predicted):
            if actual == 1:
                if label == LABEL_MALICIOUS:
                    tp += 1
                else:
                    fn += 1
            else:
                if label == LABEL_MALICIOUS:
                    fp += 1
                else:
                    tn += 1
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
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise NonFiniteModelError(model.kind) from None
    return (text + "\n").encode("utf-8")


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


def _check_forest(trees) -> None:
    """Every node of every tree is a leaf with a probability, or a split on
    a feature index with a finite threshold and two children. An explicit
    stack, so a deep tree cannot exhaust the recursion limit."""
    if not isinstance(trees, list) or not trees:
        raise LearnError("rf model needs a non-empty list of trees")
    stack = list(trees)
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            raise LearnError("rf tree node is not an object")
        if "leaf" in node:
            if not (_finite(node["leaf"]) and 0 <= node["leaf"] <= 1):
                raise LearnError(f"rf leaf value {node['leaf']!r} is not a number in [0, 1]")
            continue
        if not _feature_index(node.get("feature")):
            raise LearnError(f"rf split feature {node.get('feature')!r} is not an index "
                             f"below {N_FEATURES}")
        if not _finite(node.get("threshold")):
            raise LearnError(f"rf split threshold {node.get('threshold')!r} is not finite")
        for side in ("left", "right"):
            if side not in node:
                raise LearnError(f"rf split node has no {side!r} child")
            stack.append(node[side])


def model_from_json(data: bytes) -> ModelParams:
    """Read a model_to_json payload; anything predict could not use raises
    a LearnError."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise LearnError(f"model is not UTF-8 JSON: {e}") from None
    except RecursionError:
        raise LearnError("model JSON is nested too deeply") from None
    if not isinstance(raw, dict):
        raise LearnError("model is not a JSON object")
    if raw.get("version") != MODEL_FORMAT_VERSION:
        raise LearnError(f"unsupported model version {raw.get('version')!r}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise LearnError(f"unknown classifier kind {kind!r}")

    def field(name: str):
        if name not in raw:
            raise LearnError(f"{kind} model is missing field {name!r}")
        return raw[name]

    if kind == "rf":
        trees = field("trees")
        _check_forest(trees)
        return ModelParams(kind="rf", trees=trees)
    fields = {name: field(name) for name in
              ("weights", "bias", "feat_mean", "feat_std", "constant_features")}
    for name in ("weights", "feat_mean", "feat_std"):
        values = fields[name]
        if not (isinstance(values, list) and len(values) == N_FEATURES
                and all(_finite(v) for v in values)):
            raise LearnError(f"{kind} model field {name!r} is not {N_FEATURES} finite numbers")
    if not all(v > 0 for v in fields["feat_std"]):
        raise LearnError(f"{kind} model field 'feat_std' has a value <= 0")
    if not _finite(fields["bias"]):
        raise LearnError(f"{kind} model field 'bias' is not a finite number")
    constant = fields["constant_features"]
    if not (isinstance(constant, list) and all(_feature_index(i) for i in constant)):
        raise LearnError(f"{kind} model field 'constant_features' is not a list of "
                         f"indices below {N_FEATURES}")
    return ModelParams(
        kind=kind,
        weights=np.array(fields["weights"], dtype=float),
        bias=float(fields["bias"]),
        feat_mean=np.array(fields["feat_mean"], dtype=float),
        feat_std=np.array(fields["feat_std"], dtype=float),
        constant_features=tuple(constant),
    )

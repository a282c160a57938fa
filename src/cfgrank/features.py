"""The 23-dimensional per-CFG feature vector and its CSV table format.

Layout (frozen): five summary statistics (min, max, mean, median, std) for
each of betweenness, closeness, degree centrality, and shortest-path length,
all over the largest weak component, followed by density, node count, and
edge count of the full graph.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import InputError, metrics
from .graph import Cfg, Components, largest_components

_STATS = ("min", "max", "mean", "median", "std")
_FAMILIES = ("betweenness", "closeness", "degree", "shortest_path")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{family}_{stat}" for family in _FAMILIES for stat in _STATS
) + ("density", "node_count", "edge_count")

N_FEATURES = len(FEATURE_NAMES)

LABEL_MALICIOUS = "malicious"
LABEL_BENIGN = "benign"


class BadValueError(InputError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: bad value {reprlib.repr(value)}")
        self.row = row
        self.column = column


class NonFiniteValueError(InputError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: non-finite value {reprlib.repr(value)}")
        self.row = row
        self.column = column


@dataclass(frozen=True)
class FeatureVector:
    sample_id: str
    values: tuple[float, ...]
    label: str | None = None

    def __post_init__(self):
        if len(self.values) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} values, got {len(self.values)}")
        if self.label not in (None, LABEL_MALICIOUS, LABEL_BENIGN):
            raise ValueError(f"bad label {self.label!r}")


def extract_features(g: Cfg, stats: Sequence[float] | None = None) -> FeatureVector:
    """Compute the frozen 23-entry descriptor of one CFG.

    stats are the 20 centrality and path statistics of its largest
    component, in FEATURE_NAMES order, computed here unless the caller
    already has them.
    """
    if stats is None:
        [stats] = _statistics(largest_components([g]))
    return FeatureVector(g.sample_id, (*stats, metrics.density(g), float(g.node_count),
                                       float(g.edge_count)))


def extract_features_many(graphs: Sequence[Cfg]) -> list[FeatureVector]:
    """extract_features of each CFG, in input order, from one
    largest_components call over the corpus."""
    return [extract_features(g, stats)
            for g, stats in zip(graphs, _statistics(largest_components(graphs)))]


def _statistics(components: Components) -> list[list[float]]:
    """The 20 centrality and path statistics of each component, in
    FEATURE_NAMES order, from one metrics.sweep_many call over their union;
    all 0 for a component of one node. The components of each size n are
    summarized together, one row a component: a (components x 3 x n) array
    of betweenness, closeness and degree scores, and the hop histograms."""
    raw, closeness, hops = metrics.sweep_many(components)
    degree = metrics.degree_scores(components)
    sizes = components.sizes
    first = np.cumsum(sizes) - sizes
    stats = np.zeros((len(sizes), 20))
    for n in sorted(set(sizes.tolist()) - {1}):
        members = np.flatnonzero(sizes == n)
        nodes = first[members, None] + np.arange(n)
        # normalized to [0, 1], endpoints excluded: nothing lies between
        # the pairs of two nodes
        scores = np.stack((raw[nodes] / max((n - 1) * (n - 2), 1), closeness[nodes],
                           degree[nodes]), axis=1)
        stats[members, :15] = metrics.summary_rows(scores).reshape(len(members), 15)
        stats[members, 15:] = metrics.path_rows(hops[nodes[:, 1:]])
    return stats.tolist()


def _header() -> list[str]:
    return ["sample_id", *FEATURE_NAMES, "label"]


def write_feature_table(rows: list[FeatureVector]) -> bytes:
    """CSV with the frozen schema; reals carry 17 significant digits. A
    sample_id that holds a comma, a quote, "\r" or "\n" is quoted and its
    quotes doubled, as csv.writer with "\r\n" line ends quotes it."""
    buf = io.StringIO()
    buf.write(",".join(_header()) + "\n")
    for row in rows:
        sample_id = row.sample_id
        if not _QUOTED.isdisjoint(sample_id):
            sample_id = '"' + sample_id.replace('"', '""') + '"'
        buf.write(f"{sample_id},{_VALUES % row.values},{row.label or ''}\n")
    return buf.getvalue().encode("utf-8")


# a row's reals, formatted in one step
_VALUES = ",".join(["%.17g"] * N_FEATURES)
# the characters that make a field quoted; "\r" too, which Python 3.11's
# csv.writer leaves bare with lineterminator="\n", and csv.reader then
# refuses outside quotes
_QUOTED = frozenset(',"\r\n')


_LABELS = ("", LABEL_MALICIOUS, LABEL_BENIGN)


def _records(text: str) -> Iterator[list[str]]:
    """csv.reader's records of text; a csv.Error, such as a field longer
    than csv.field_size_limit(), is an InputError naming its line. Text with
    no quote, carriage return or NUL and no line longer than that limit is
    split on its newlines and commas, which gives the same records."""
    if not ('"' in text or "\r" in text or "\0" in text):
        lines = text.split("\n")
        if max(map(len, lines)) <= csv.field_size_limit():
            if not lines[-1]:
                lines.pop()
            yield from (line.split(",") if line else [] for line in lines)
            return
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as e:
        raise InputError(f"line {reader.line_num}: {e}") from None


def _read_table(data: bytes) -> tuple[list[tuple[str, str]], np.ndarray]:
    """The sample_id and label ("" for none) of each non-empty row of a
    feature CSV, and the rows' values (rows x N_FEATURES, float64). Every
    check of the table is made here: bad input raises the error of its first
    offender in file order, with rows numbered from 1 after the header,
    empty ones counted."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"not valid UTF-8 at byte {e.start}") from None
    records = _records(text)
    header = next(records, None)
    if header != _header():
        raise InputError("empty file" if header is None else
                         f"unexpected header {reprlib.repr(header)}")
    rows: list[tuple[str, str]] = []

    def values():
        for fields in filter(None, records):
            if len(fields) != N_FEATURES + 2 or fields[-1] not in _LABELS:
                raise ValueError
            rows.append((fields[0], fields[-1]))
            yield fields[1:-1]

    try:
        X = np.fromiter(map(float, chain.from_iterable(values())), float)
        if not np.isfinite(X).all():
            raise ValueError
    except (ValueError, InputError):
        # some check failed: walk the table again field by field (width,
        # values, then label), which raises the first offender's error;
        # row 0 is the header
        for rownum, fields in enumerate(_records(text)):
            if not (rownum and fields):
                continue
            if len(fields) != N_FEATURES + 2:
                raise BadValueError(rownum, "<row>", f"{len(fields)} fields")
            for name, raw in zip(FEATURE_NAMES, fields[1:-1]):
                try:
                    v = float(raw)
                except ValueError:
                    raise BadValueError(rownum, name, raw) from None
                if not math.isfinite(v):
                    raise NonFiniteValueError(rownum, name, raw)
            if fields[-1] not in _LABELS:
                raise BadValueError(rownum, "label", fields[-1])
        raise AssertionError("a table that failed a check passed the walk") from None
    return rows, X.reshape(-1, N_FEATURES)


def parse_feature_table(data: bytes) -> list[FeatureVector]:
    """Parse and validate a feature CSV written by write_feature_table."""
    rows, X = _read_table(data)
    return [FeatureVector(sample_id, tuple(values), label or None)
            for (sample_id, label), values in zip(rows, X.tolist())]


def read_labeled_table(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """X (rows x N_FEATURES, float64) and y (int64, 1 = malicious, 0 =
    benign) of the labeled rows of a feature CSV, read without a row object;
    bad input raises what parse_feature_table raises."""
    rows, X = _read_table(data)
    code = np.array([_LABELS.index(label) for _, label in rows], dtype=np.int64)
    if not code.all():  # code 0: no label
        X, code = X[code > 0], code[code > 0]
    return X, (code == _LABELS.index(LABEL_MALICIOUS)).astype(np.int64)

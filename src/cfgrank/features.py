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
from .graph import Cfg, Component, largest_component, largest_components

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


def _stat_tuple(s: metrics.PathStats) -> tuple[float, ...]:
    return (s.min, s.max, s.mean, s.median, s.std)


def extract_features(g: Cfg, component: Component | None = None,
                     swept: metrics.Sweep | None = None) -> FeatureVector:
    """Compute the frozen 23-entry descriptor of one CFG.

    component is largest_component(g) and swept is the metrics.sweep_many
    Sweep of its CSR; each is computed here unless the caller already has it.
    """
    component = component or largest_component(g)
    swept = swept or metrics.sweep_many([(component.indptr, component.indices)])[0]
    values: list[float] = []
    for scores in (swept.betweenness(), swept.closeness,
                   metrics.degree_scores(component.indptr, component.loops)):
        values.extend(_stat_tuple(metrics.summary_stats(scores)))
    values.extend(_stat_tuple(swept.path_stats()))
    values.append(metrics.density(g))
    values.append(float(g.node_count))
    values.append(float(g.edge_count))
    return FeatureVector(sample_id=g.sample_id, values=tuple(values))


def extract_features_many(graphs: Sequence[Cfg]) -> list[FeatureVector]:
    """extract_features of each CFG, in input order, from one
    largest_components call and one metrics.sweep_many call over its CSRs."""
    components = largest_components(graphs)
    swept = metrics.sweep_many((c.indptr, c.indices) for c in components)
    return [extract_features(g, c, s) for g, c, s in zip(graphs, components, swept)]


def _header() -> list[str]:
    return ["sample_id", *FEATURE_NAMES, "label"]


def write_feature_table(rows: list[FeatureVector]) -> bytes:
    """CSV with the frozen schema; reals carry 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_header())
    for row in rows:
        writer.writerow([row.sample_id,
                         *(f"{v:.17g}" for v in row.values),
                         row.label or ""])
    return buf.getvalue().encode("utf-8")


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

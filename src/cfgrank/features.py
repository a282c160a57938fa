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
from collections.abc import Sequence
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


_HEADER_LINE = ",".join(_header())


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


def _csv_rows(text: str):
    """csv.reader over text; a record that it rejects, such as one with a
    field longer than csv.field_size_limit(), is an InputError naming its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as e:
        raise InputError(f"line {reader.line_num}: {e}") from None


def parse_feature_table(data: bytes) -> list[FeatureVector]:
    """Parse and validate a feature CSV written by write_feature_table."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"not valid UTF-8 at byte {e.start}") from None
    reader = _csv_rows(text)
    header = next(reader, None)
    if header is None:
        raise InputError("empty file")
    if header != _header():
        raise InputError(f"unexpected header {reprlib.repr(header)}")
    rows: list[FeatureVector] = []
    for rownum, fields in enumerate(reader, start=1):
        if not fields:
            continue
        if len(fields) != N_FEATURES + 2:
            raise BadValueError(rownum, "<row>", f"{len(fields)} fields")
        sample_id = fields[0]
        values = []
        for name, raw in zip(FEATURE_NAMES, fields[1:-1]):
            try:
                v = float(raw)
            except ValueError:
                raise BadValueError(rownum, name, raw) from None
            if not math.isfinite(v):
                raise NonFiniteValueError(rownum, name, raw)
            values.append(v)
        label_raw = fields[-1]
        if label_raw == "":
            label = None
        elif label_raw in (LABEL_MALICIOUS, LABEL_BENIGN):
            label = label_raw
        else:
            raise BadValueError(rownum, "label", label_raw)
        rows.append(FeatureVector(sample_id=sample_id, values=tuple(values), label=label))
    return rows


def labeled_arrays(rows: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    """X (rows x N_FEATURES, float64) and y (int64, 1 = malicious, 0 =
    benign) of rows that all carry a label."""
    X = np.array([r.values for r in rows], dtype=float).reshape(-1, N_FEATURES)
    y = np.array([r.label == LABEL_MALICIOUS for r in rows], dtype=np.int64)
    return X, y


def _plain_arrays(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """labeled_arrays of the labeled rows of a plain table, which csv.reader
    would split on its commas alone and parse_feature_table would take
    without a word: UTF-8 with no quote, carriage return or NUL (which the
    csv module of Python 3.10 rejects), the exact header, on every line 25
    fields, none longer than csv.field_size_limit(), and a known label, and
    every value one that float() reads as finite. None for any other table.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    header, _, body = text.partition("\n")
    lines = [line for line in body.split("\n") if line]
    labels = [line[line.rfind(",") + 1:] for line in lines]
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text or "\0" in text or header != _HEADER_LINE or \
            not set(labels) <= {"", LABEL_MALICIOUS, LABEL_BENIGN} or \
            any(line.count(",") != N_FEATURES + 1 or len(line) > limit for line in lines):
        return None
    try:
        X = np.fromiter(map(float, chain.from_iterable(line.split(",")[1:-1] for line in lines)),
                        float, len(lines) * N_FEATURES).reshape(-1, N_FEATURES)
    except ValueError:
        return None
    if not np.isfinite(X).all():
        return None
    y = np.array([label == LABEL_MALICIOUS for label in labels], dtype=np.int64)
    if "" in labels:
        labeled = np.array([label != "" for label in labels])
        X, y = X[labeled], y[labeled]
    return X, y


def read_labeled_table(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """labeled_arrays of the labeled rows of parse_feature_table(data); bad
    input raises what parse_feature_table raises. A plain table
    (_plain_arrays) streams its values through float() into one array and
    makes no FeatureVector; any other goes through parse_feature_table."""
    plain = _plain_arrays(data)
    if plain is not None:
        return plain
    return labeled_arrays([r for r in parse_feature_table(data) if r.label is not None])

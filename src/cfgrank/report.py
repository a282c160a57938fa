"""Corpus-level descriptive statistics: per-sample rows, empirical CDFs of
node/edge counts, average closeness and component counts, and single-threshold
corpus comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metrics
from .graph import Cfg, largest_components

CDF_METRICS = ("node_count", "edge_count", "avg_closeness", "component_count")


class ReportError(ValueError):
    pass


class UnknownMetricError(ReportError):
    def __init__(self, name: str):
        super().__init__(f"unknown metric {name!r}; expected one of {CDF_METRICS}")
        self.name = name


@dataclass(frozen=True)
class SampleRow:
    sample_id: str
    node_count: int
    edge_count: int
    avg_closeness: float
    component_count: int
    file_size: int | None = None


@dataclass(frozen=True)
class CorpusStats:
    corpus_name: str
    per_sample: tuple[SampleRow, ...]
    cdfs: dict[str, list[tuple[float, float]]]


@dataclass(frozen=True)
class ComparisonSummary:
    metric: str
    threshold: float
    fraction_a_below: float
    fraction_b_below: float
    rule_accuracy: float


def empirical_cdf(values: list[float]) -> list[tuple[float, float]]:
    """Distinct sorted values with cumulative fractions; ends at exactly 1."""
    if not values:
        raise ReportError("empirical_cdf needs at least one value")
    n = len(values)
    ordered = sorted(values)
    points: list[tuple[float, float]] = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue
        points.append((v, (i + 1) / n))
    return points


def corpus_stats(graphs: list[Cfg], name: str,
                 file_sizes: dict[str, int] | None = None) -> CorpusStats:
    """Per-sample rows and CDFs; avg_closeness is the mean closeness over
    each graph's largest weak component, 0 for a singleton."""
    if not graphs:
        raise ReportError("corpus must contain at least one graph")
    components = largest_components(graphs)
    closeness = metrics.closeness_many((c.indptr, c.indices) for c in components)
    rows = [
        SampleRow(
            sample_id=g.sample_id,
            node_count=g.node_count,
            edge_count=g.edge_count,
            avg_closeness=sum(scores) / len(scores),
            component_count=c.count,
            file_size=(file_sizes or {}).get(g.sample_id),
        )
        for g, scores, c in zip(graphs, closeness, components)
    ]
    cdfs = {
        metric_name: empirical_cdf([float(getattr(r, metric_name)) for r in rows])
        for metric_name in CDF_METRICS
    }
    return CorpusStats(corpus_name=name, per_sample=tuple(rows), cdfs=cdfs)


def _metric_values(stats: CorpusStats, metric_name: str) -> list[float]:
    if metric_name not in CDF_METRICS:
        raise UnknownMetricError(metric_name)
    return [float(getattr(r, metric_name)) for r in stats.per_sample]


def compare(a: CorpusStats, b: CorpusStats, threshold_metric: str,
            threshold: float) -> ComparisonSummary:
    """Single-threshold rule between two corpora.

    Reports each corpus's fraction strictly below the threshold and the
    accuracy of the better-oriented rule "value < threshold means corpus a"
    (or its flip), so identical corpora score no better than the class prior.
    """
    va = _metric_values(a, threshold_metric)
    vb = _metric_values(b, threshold_metric)
    a_below = sum(1 for v in va if v < threshold)
    b_below = sum(1 for v in vb if v < threshold)
    total = len(va) + len(vb)
    acc_a_low = (a_below + (len(vb) - b_below)) / total
    acc_b_low = (b_below + (len(va) - a_below)) / total
    return ComparisonSummary(
        metric=threshold_metric,
        threshold=threshold,
        fraction_a_below=a_below / len(va),
        fraction_b_below=b_below / len(vb),
        rule_accuracy=max(acc_a_low, acc_b_low),
    )


def stats_to_dict(stats: CorpusStats) -> dict:
    """JSON-ready form of one corpus report."""
    return {
        "corpus": stats.corpus_name,
        "samples": [
            {
                "sample_id": r.sample_id,
                "node_count": r.node_count,
                "edge_count": r.edge_count,
                "avg_closeness": r.avg_closeness,
                "component_count": r.component_count,
                **({"file_size": r.file_size} if r.file_size is not None else {}),
            }
            for r in stats.per_sample
        ],
        "cdfs": {name: [[v, f] for v, f in pts] for name, pts in stats.cdfs.items()},
    }


def cdf_csv(stats: CorpusStats) -> bytes:
    """CDF points as CSV for external plotting."""
    lines = ["metric,value,fraction"]
    for name in CDF_METRICS:
        for v, f in stats.cdfs[name]:
            lines.append(f"{name},{v:.17g},{f:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")

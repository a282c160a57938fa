"""Corpus-level descriptive statistics: per-sample rows, empirical CDFs of
node/edge counts, average closeness and component counts, and single-threshold
corpus comparison on average closeness.

The records are the JSON report's schema: each field of CorpusStats,
SampleRow and ComparisonSummary is a key of `payload`'s output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import DataError, metrics
from .graph import Cfg, largest_components

CDF_METRICS = ("node_count", "edge_count", "avg_closeness", "component_count")


@dataclass(frozen=True)
class SampleRow:
    sample_id: str
    node_count: int
    edge_count: int
    avg_closeness: float
    component_count: int


@dataclass(frozen=True)
class CorpusStats:
    corpus: str
    samples: tuple[SampleRow, ...]
    cdfs: dict[str, list[tuple[float, float]]]


@dataclass(frozen=True)
class ComparisonSummary:
    corpus_a: str
    corpus_b: str
    threshold: float
    fraction_a_below: float
    fraction_b_below: float
    rule_accuracy: float
    metric: str = "avg_closeness"


def empirical_cdf(values: list[float]) -> list[tuple[float, float]]:
    """Distinct sorted values with cumulative fractions; ends at exactly 1."""
    if not values:
        raise DataError("empirical_cdf needs at least one value")
    n = len(values)
    ordered = sorted(values)
    points: list[tuple[float, float]] = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue
        points.append((v, (i + 1) / n))
    return points


def corpus_stats(graphs: list[Cfg], name: str) -> CorpusStats:
    """Per-sample rows and CDFs; avg_closeness is the mean closeness over
    each graph's largest weak component, 0 for a singleton."""
    if not graphs:
        raise DataError("corpus must contain at least one graph")
    components = largest_components(graphs)
    closeness = metrics.closeness_many(components)
    sizes = components.sizes
    first = np.cumsum(sizes) - sizes
    average = np.empty(len(sizes))
    for n in set(sizes.tolist()):
        members = np.flatnonzero(sizes == n)
        average[members] = metrics.row_sums(closeness[first[members, None] + np.arange(n)]) / n
    rows = [
        SampleRow(
            sample_id=g.sample_id,
            node_count=g.node_count,
            edge_count=g.edge_count,
            avg_closeness=avg,
            component_count=count,
        )
        for g, avg, count in zip(graphs, average.tolist(), components.counts.tolist())
    ]
    cdfs = {
        metric_name: empirical_cdf([float(getattr(r, metric_name)) for r in rows])
        for metric_name in CDF_METRICS
    }
    return CorpusStats(corpus=name, samples=tuple(rows), cdfs=cdfs)


def compare(a: CorpusStats, b: CorpusStats, threshold: float) -> ComparisonSummary:
    """Single-threshold rule on avg_closeness between two corpora.

    Reports each corpus's fraction strictly below the threshold and the
    accuracy of the better-oriented rule "value < threshold means corpus a"
    (or its flip), so identical corpora score no better than the class prior.
    """
    a_below = sum(1 for r in a.samples if r.avg_closeness < threshold)
    b_below = sum(1 for r in b.samples if r.avg_closeness < threshold)
    na, nb = len(a.samples), len(b.samples)
    return ComparisonSummary(
        corpus_a=a.corpus,
        corpus_b=b.corpus,
        threshold=threshold,
        fraction_a_below=a_below / na,
        fraction_b_below=b_below / nb,
        rule_accuracy=max(a_below + nb - b_below, b_below + na - a_below) / (na + nb),
    )


def payload(corpora: list[CorpusStats], threshold: float) -> dict:
    """analyze's JSON report: every corpus, then the rule for every pair
    of corpora in input order."""
    return {
        "corpora": [{**vars(c), "samples": [vars(r) for r in c.samples]} for c in corpora],
        "comparisons": [vars(compare(a, b, threshold)) for a, b in combinations(corpora, 2)],
    }

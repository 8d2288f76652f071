"""Figure 1: per-benchmark slowdown next to lbm (raw co-location).

Regenerates the paper's Figure 1 and checks its shape: a suite mean
near 17%, several benchmarks beyond 30%, the paper's sensitive and
insensitive groups separated, and per-benchmark agreement in rank with
the digitised published bars.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments import figure1, rank_correlation
from repro.experiments.paperdata import (
    FIGURE1_SLOWDOWN,
    LEAST_SENSITIVE,
    MOST_SENSITIVE,
)


def bench_figure1(benchmark, campaign):
    table = benchmark.pedantic(
        figure1, args=(campaign,), rounds=1, iterations=1
    )
    emit(table.render())
    emit(table.render_bars("slowdown", baseline=1.0))

    measured = table.column("slowdown")
    names = table.row_names

    # Headline shape: mean penalty ~17%, several bars beyond 30%.
    assert 0.08 <= table.mean("slowdown") - 1.0 <= 0.30
    assert sum(1 for s in measured if s >= 1.25) >= 4

    # Group separation: every "most sensitive" benchmark must be slowed
    # more than every "least sensitive" one.
    by_name = dict(zip(names, measured))
    worst_insensitive = max(by_name[n] for n in LEAST_SENSITIVE)
    best_sensitive = min(by_name[n] for n in MOST_SENSITIVE)
    assert best_sensitive > worst_insensitive

    # Per-benchmark rank agreement with the published bars.
    paper = [FIGURE1_SLOWDOWN[n] for n in names]
    assert rank_correlation(measured, paper) > 0.7

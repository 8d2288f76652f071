"""Full-length evaluation on the statistical engine.

The trace engine runs the campaign at reduced lengths for tractability;
the statistical engine is cheap enough to run every benchmark at the
*full* run length (``length=1.0``, ~500-1000 probe periods per run) and
check that the headline story survives: a substantial mean raw penalty,
cut to low single digits by rule-based CAER, with the sensitive and
insensitive groups cleanly separated.
"""

from __future__ import annotations

from conftest import emit

from repro.caer.metrics import slowdown, utilization_gained
from repro.caer.runtime import CaerConfig, caer_factory
from repro.config import MachineConfig
from repro.experiments.paperdata import LEAST_SENSITIVE, MOST_SENSITIVE
from repro.experiments.reporting import FigureTable
from repro.sim import run_colocated, run_solo
from repro.workloads import benchmark, benchmark_names

MACHINE = MachineConfig.scaled_nehalem()
L3 = MACHINE.l3.capacity_lines


def full_length_campaign() -> FigureTable:
    """Every benchmark at length 1.0: raw and rule-based CAER."""
    rows = list(benchmark_names())
    lbm = benchmark("470.lbm", L3, length=1.0)
    table = FigureTable(
        title="Statistical engine: full-length campaign (length=1.0)",
        row_names=rows,
    )
    raw_column: list[float] = []
    caer_column: list[float] = []
    util_column: list[float] = []
    for name in rows:
        spec = benchmark(name, L3, length=1.0)
        solo = run_solo(spec, MACHINE, backend="statistical")
        raw = run_colocated(spec, lbm, MACHINE, backend="statistical")
        managed = run_colocated(
            spec, lbm, MACHINE,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            backend="statistical",
        )
        raw_column.append(slowdown(raw, solo))
        caer_column.append(slowdown(managed, solo))
        util_column.append(utilization_gained(managed))
    table.add_column("raw", raw_column)
    table.add_column("caer_rule", caer_column)
    table.add_column("caer_util", util_column)
    return table


def bench_statistical_full_length(benchmark):
    table = benchmark.pedantic(
        full_length_campaign, rounds=1, iterations=1
    )
    emit(table.render())

    by_name_raw = dict(zip(table.row_names, table.column("raw")))
    # Headline story at full length (the statistical model estimates
    # penalties conservatively — no inclusion victims, no set
    # conflicts — so bands are looser than the trace engine's).
    assert table.mean("raw") - 1.0 > 0.03
    assert table.mean("caer_rule") < table.mean("raw")
    # Group separation survives in the means.
    sensitive = [by_name_raw[n] for n in MOST_SENSITIVE]
    insensitive = [by_name_raw[n] for n in LEAST_SENSITIVE]
    assert (
        sum(sensitive) / len(sensitive)
        > sum(insensitive) / len(insensitive) + 0.03
    )
    # Utilization is reclaimed where it is safe.
    by_name_util = dict(
        zip(table.row_names, table.column("caer_util"))
    )
    for name in LEAST_SENSITIVE:
        assert by_name_util[name] > 0.5

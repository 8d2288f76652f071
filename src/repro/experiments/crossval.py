"""Cross-validation: independent models against the trace simulator.

Two comparisons live here, both over *identical* run descriptions:

* :func:`analytic_figure1` — the closed-form predictor
  (:mod:`repro.analytic`) against the simulator's Figure 1 slowdowns;
* :func:`backend_crossval` — the two execution backends against each
  other: every spec is executed once on ``"sim"`` and once on
  ``"statistical"``, with only the spec's ``backend`` field differing,
  so any disagreement is attributable to the engines alone.

A predictor (or cheap engine) is useful exactly to the degree it ranks
the benchmarks the same way and lands in the same bands.
"""

from __future__ import annotations

from ..analytic.predictor import predict_colocation_phased
from ..workloads import benchmark, benchmark_names
from .campaign import BATCH_BENCHMARK, Campaign
from .reporting import FigureTable

#: The victims the backend comparison measures (a sensitivity spread).
CROSSVAL_VICTIMS = ("429.mcf", "462.libquantum", "473.astar", "444.namd")


def rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (ties broken by input order)."""

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        for rank, i in enumerate(order):
            out[i] = float(rank)
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mean = (n - 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var = sum((a - mean) ** 2 for a in rx)
    return cov / var if var else 0.0


def analytic_figure1(campaign: Campaign) -> FigureTable:
    """Predicted vs. simulated slowdown next to lbm, per benchmark."""
    machine = campaign.settings.machine()
    l3 = machine.l3.capacity_lines
    contender = benchmark(BATCH_BENCHMARK, l3)
    rows = list(benchmark_names())
    table = FigureTable(
        title="Cross-validation: analytic vs. simulated slowdown "
              "(next to lbm)",
        row_names=rows,
    )
    predicted = [
        predict_colocation_phased(
            benchmark(name, l3), contender, machine
        )
        for name in rows
    ]
    simulated = [campaign.slowdown(name, "raw") for name in rows]
    table.add_column("predicted", predicted)
    table.add_column("simulated", simulated)
    table.add_column(
        "error",
        [p / s - 1.0 for p, s in zip(predicted, simulated)],
    )
    table.notes.append(
        f"spearman rank correlation: "
        f"{rank_correlation(predicted, simulated):.2f}"
    )
    return table


def backend_crossval(
    campaign: Campaign | None = None,
    victims: tuple[str, ...] = CROSSVAL_VICTIMS,
) -> FigureTable:
    """Sim vs. statistical slowdown next to lbm, over identical specs.

    For every victim, the solo and raw-co-location specs are built once
    and read through the campaign's store on both backends via
    :meth:`~repro.runspec.RunSpec.with_backend` — the digests differ
    *only* in the backend field, making this a pure engine comparison.
    """
    campaign = campaign or Campaign()
    settings = campaign.settings

    base_specs = []
    for victim in victims:
        base_specs.append(settings.run_spec(victim, "solo"))
        base_specs.append(settings.run_spec(victim, "raw"))
    specs = [
        spec.with_backend(backend)
        for spec in base_specs
        for backend in ("sim", "statistical")
    ]
    outcomes = campaign.outcomes(specs)

    def slowdown(victim_index: int, backend_index: int) -> float:
        # Layout: per base spec, [sim, statistical]; per victim,
        # [solo, raw] — so victim v's solo on backend b sits at
        # 4 * v + b and its raw run at 4 * v + 2 + b.
        solo = outcomes[4 * victim_index + backend_index]
        raw = outcomes[4 * victim_index + 2 + backend_index]
        return raw.completion_periods / solo.completion_periods

    sim = [slowdown(v, 0) for v in range(len(victims))]
    stat = [slowdown(v, 1) for v in range(len(victims))]
    table = FigureTable(
        title="Cross-validation: sim vs. statistical backend "
              "(slowdown next to lbm)",
        row_names=list(victims),
    )
    table.add_column("sim_slowdown", sim)
    table.add_column("stat_slowdown", stat)
    table.add_column(
        "error", [s / m - 1.0 for s, m in zip(stat, sim)]
    )
    table.notes.append(
        f"spearman rank correlation: "
        f"{rank_correlation(sim, stat):.2f}"
    )
    return table

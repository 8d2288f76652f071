"""Tuning-space ablations (§6.2's reserved future work).

Each bench sweeps one of the knobs DESIGN.md calls out and checks the
direction the design rationale predicts, on one sensitive victim
(429.mcf) and one insensitive victim (444.namd).

These run shorter scenarios than the figure benches; set
``REPRO_LENGTH`` to lengthen them.
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.experiments.ablations import ABLATIONS, AblationRunner
from repro.experiments.campaign import Campaign, CampaignSettings


@pytest.fixture(scope="module")
def runner() -> AblationRunner:
    settings = CampaignSettings.from_env()
    short = CampaignSettings(
        length=min(settings.length, 0.08), seed=settings.seed
    )
    return AblationRunner(Campaign(short))


def bench_impact_factor(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["impact-factor"], args=(runner,), rounds=1, iterations=1
    )
    emit(table.render())
    # Less sensitive detection => more batch utilization for mcf.
    utils = table.column("mcf_util")
    assert utils[-1] >= utils[0]
    # namd is insensitive at every setting.
    assert max(table.column("namd_penalty")) < 0.08


def bench_shutter_geometry(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["shutter-geometry"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    # Longer shutters cost utilization even for the insensitive victim
    # (the shutter phases themselves pause the batch).
    utils = table.column("namd_util")
    assert utils[0] > utils[-1]


def bench_usage_threshold(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["usage-threshold"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    # A liberal-enough threshold stops seeing contention: utilization
    # recovers, penalty returns.
    utils = table.column("mcf_util")
    assert utils[-1] > utils[0]


def bench_response_length(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["response-length"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    # For the consistently-contending victim, longer red lights mean
    # the batch spends a larger share of each cycle paused.
    utils = table.column("mcf_util")
    assert utils[-1] < utils[0]
    # The insensitive victim stays protected at every length.
    assert max(table.column("namd_penalty")) < 0.08


def bench_adaptive_response(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["adaptive-response"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    by_row = dict(zip(table.row_names, table.column("namd_util")))
    # Consistently-negative verdicts let the adaptive variant grow its
    # green light, recovering utilization for the insensitive victim.
    assert by_row["adaptive"] >= by_row["fixed"] - 0.02


def bench_window_size(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["window-size"], args=(runner,), rounds=1, iterations=1
    )
    emit(table.render())
    # The rule-based heuristic keeps protecting mcf at every window.
    assert max(table.column("mcf_penalty")) < 0.20


def bench_shutter_mode(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["shutter-mode"], args=(runner,), rounds=1, iterations=1
    )
    emit(table.render())
    by_row = dict(zip(table.row_names, table.column("mcf_penalty")))
    # The paper-literal spike test under-detects on this substrate
    # (see DESIGN.md): it leaves more of the penalty in place.
    assert by_row["spike-only"] >= by_row["two-sided"] - 0.02


def bench_response_mechanism(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["response-mechanism"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    by_row_p = dict(zip(table.row_names, table.column("mcf_penalty")))
    # Gentler DVFS scales trade protection for batch progress: the
    # deepest throttle must protect mcf at least as well as the
    # shallowest.
    assert by_row_p["dvfs x0.125"] <= by_row_p["dvfs x0.5"] + 0.03


def bench_probe_overhead(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["probe-overhead"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    # §3.2's claim: realistic probing (the 20-cycle default) is free.
    by_row = dict(zip(table.row_names, table.column("mcf_penalty")))
    assert by_row["20 cycles/probe"] < 0.02
    # Only an absurd probe cost (10% of the period) registers.
    assert by_row["4000 cycles/probe"] > 0.05


def bench_probe_period(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["probe-period"], args=(runner,), rounds=1,
        iterations=1,
    )
    emit(table.render())
    # The rule-based heuristic protects mcf at every temporal
    # resolution (thresholds rescale with the period automatically).
    assert max(table.column("mcf_penalty")) < 0.20
    assert max(table.column("namd_penalty")) < 0.08


def bench_prefetch(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["prefetch"], args=(runner,), rounds=1, iterations=1
    )
    emit(table.render())
    # CAER keeps protecting under every prefetch configuration.
    assert max(table.column("mcf_penalty")) < 0.25


def bench_writebacks(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["writebacks"], args=(runner,), rounds=1, iterations=1
    )
    emit(table.render())
    # Writeback traffic can only add pressure, and CAER keeps managing
    # the contention either way.
    assert max(table.column("mcf_penalty")) < 0.25
    assert max(table.column("namd_penalty")) < 0.08


def bench_detector(benchmark, runner):
    table = benchmark.pedantic(
        ABLATIONS["detector"], args=(runner,), rounds=1, iterations=1
    )
    emit(table.render())
    by_row = dict(zip(table.row_names, table.column("mcf_penalty")))
    # The offline oracle bounds what online detection can achieve; the
    # rule-based heuristic must come close for the always-hot victim.
    assert by_row["rule-based"] <= by_row["profile-oracle"] + 0.05
    # Both beat the coin-flip baseline on protection.
    assert by_row["rule-based"] < by_row["random"]

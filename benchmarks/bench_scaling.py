"""Extension: scaling to the paper's Figure 4 multi-batch vision.

Not a published figure — the prototype hosts one batch app — but the
architecture section is explicit that several batch layers share the
directives.  This bench quantifies what the quad-core vision buys:
raw interference grows with each added lbm, CAER's group throttle holds
the latency-sensitive penalty down at every count.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.scaling import scaling_study


def bench_scaling(benchmark):
    settings = CampaignSettings.from_env()
    short = CampaignSettings(
        length=min(settings.length, 0.08), seed=settings.seed
    )
    table = benchmark.pedantic(
        scaling_study, args=(Campaign(short),), rounds=1, iterations=1
    )
    emit(table.render())

    raw = table.column("raw_penalty")
    caer = table.column("caer_penalty")
    # Monotone growth of raw interference with contender count.
    assert raw[0] < raw[-1]
    # CAER keeps the penalty below half of raw at every count.
    for r, c in zip(raw, caer):
        assert c < 0.5 * r

"""Property-based CAER runtime invariants under arbitrary sample feeds."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.pmu import PMUSample
from repro.caer.runtime import CaerConfig, CaerRuntime
from repro.config import MachineConfig
from repro.obs import NULL_TRACER
from repro.sim.process import AppClass


class StubProcess:
    def __init__(self, name, core_id, app_class):
        self.name = name
        self.core_id = core_id
        self.app_class = app_class


class StubEngine:
    """Just enough engine surface for the runtime: processes + sinks."""

    def __init__(self):
        self.machine = MachineConfig.scaled_nehalem()
        self.tracer = NULL_TRACER
        self.metrics = None
        self.processes = {
            "ls": StubProcess("ls", 0, AppClass.LATENCY_SENSITIVE),
            "batch": StubProcess("batch", 1, AppClass.BATCH),
        }
        self.pauses: list[tuple[str, bool]] = []
        self.speeds: list[tuple[str, float]] = []
        self.quotas: list[tuple[str, float | None]] = []
        self.log: list[dict] = []

    def set_paused(self, name, paused):
        self.pauses.append((name, paused))

    def set_speed(self, name, factor):
        self.speeds.append((name, factor))

    def set_l3_quota(self, name, fraction):
        self.quotas.append((name, fraction))

    def log_decision(self, record):
        self.log.append(record)


def sample(misses: int) -> PMUSample:
    return PMUSample(1000.0, 500.0, misses, misses, 0, 0, 0, 0)


CONFIGS = [
    CaerConfig.shutter(),
    CaerConfig.rule_based(),
    CaerConfig.random_baseline(),
    CaerConfig.dvfs(),
    CaerConfig.partition(),
]


@given(
    config_index=st.integers(0, len(CONFIGS) - 1),
    miss_feed=st.lists(
        st.tuples(st.integers(0, 2000), st.integers(0, 2000)),
        min_size=1,
        max_size=80,
    ),
)
@settings(max_examples=60, deadline=None)
def test_runtime_state_machine_invariants(config_index, miss_feed):
    """Whatever the counters say, the runtime stays well-formed."""
    engine = StubEngine()
    runtime = CaerRuntime(engine, CONFIGS[config_index])
    for period, (ls_misses, batch_misses) in enumerate(miss_feed):
        runtime(
            engine,
            period,
            {"ls": sample(ls_misses), "batch": sample(batch_misses)},
        )
    periods = len(miss_feed)
    # One decision record and one directive set per period.
    assert len(engine.log) == periods
    assert len(engine.pauses) == periods
    assert len(engine.speeds) == periods
    assert len(engine.quotas) == periods
    # Directives only ever target the batch process.
    assert all(name == "batch" for name, _ in engine.pauses)
    # The Figure 5 state machine never leaves its two states.
    assert runtime._state in ("detect", "respond")
    # Log records are complete and well-typed.
    for record in engine.log:
        assert record["state"] in (
            "detect", "respond", "c-positive", "c-negative",
        )
        assert isinstance(record["pause"], bool)
        assert 0.0 < record["speed"] <= 1.0
        assert record["assertion"] in (True, False, None)


@given(
    miss_feed=st.lists(st.integers(0, 2000), min_size=21, max_size=60),
)
@settings(max_examples=30, deadline=None)
def test_shutter_issues_verdicts_on_schedule(miss_feed):
    """Each shutter cycle (plus its response) yields exactly one verdict."""
    engine = StubEngine()
    runtime = CaerRuntime(engine, CaerConfig.shutter())
    for period, misses in enumerate(miss_feed):
        runtime(
            engine, period, {"ls": sample(misses), "batch": sample(0)}
        )
    verdicts = [
        r for r in engine.log if r["assertion"] is not None
    ]
    # A full settle+shutter+burst cycle is 11 periods, the response up
    # to 10 more: at least one verdict in any 21+-period feed.
    assert len(verdicts) >= len(miss_feed) // 21

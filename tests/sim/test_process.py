"""Process lifecycle and scheduling state."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.errors import SchedulingError, WorkloadError
from repro.experiments.campaign import CampaignSettings
from repro.runspec import execute
from repro.sim import process
from repro.sim.process import (
    LINE_WINDOW,
    AppClass,
    ProcessState,
    SimProcess,
    line_base,
)
from repro.workloads import synthetic
from repro.workloads.base import PhaseSpec, WorkloadSpec
from repro.workloads.patterns import SequentialStreamSpec, StridedScanSpec


def make_process(**kwargs) -> SimProcess:
    spec = synthetic.compute_bound(instructions=100.0)
    return SimProcess(spec, core_id=0, **kwargs)


class TestLifecycle:
    def test_starts_waiting(self):
        proc = make_process()
        assert proc.state is ProcessState.WAITING
        assert not proc.runnable

    def test_launch(self):
        proc = make_process()
        proc.launch()
        assert proc.state is ProcessState.RUNNING
        assert proc.runnable

    def test_double_launch_rejected(self):
        proc = make_process()
        proc.launch()
        with pytest.raises(SchedulingError):
            proc.launch()

    def test_pause_resume(self):
        proc = make_process()
        proc.launch()
        proc.set_paused(True)
        assert proc.state is ProcessState.PAUSED
        assert not proc.runnable
        proc.set_paused(False)
        assert proc.state is ProcessState.RUNNING

    def test_pause_is_idempotent(self):
        proc = make_process()
        proc.launch()
        proc.set_paused(False)  # not paused: no-op
        assert proc.state is ProcessState.RUNNING
        proc.set_paused(True)
        proc.set_paused(True)
        assert proc.state is ProcessState.PAUSED


class TestCompletion:
    def test_completion_without_relaunch_finishes(self):
        proc = make_process()
        proc.launch()
        proc.note_completion(period=5)
        assert proc.state is ProcessState.FINISHED
        assert proc.completions == 1
        assert proc.first_completion_period == 5

    def test_relaunch_restarts_workload(self):
        proc = make_process(relaunch=True)
        proc.launch()
        old = proc.workload
        proc.note_completion(period=5)
        assert proc.state is ProcessState.RUNNING
        assert proc.workload is not old
        assert not proc.workload.finished

    def test_first_completion_recorded_once(self):
        proc = make_process(relaunch=True)
        proc.launch()
        proc.note_completion(period=5)
        proc.note_completion(period=9)
        assert proc.first_completion_period == 5
        assert proc.completions == 2

    def test_pause_after_finish_is_noop(self):
        proc = make_process()
        proc.launch()
        proc.note_completion(period=1)
        proc.set_paused(True)
        assert proc.state is ProcessState.FINISHED


class TestValidation:
    def test_negative_core_rejected(self):
        with pytest.raises(SchedulingError):
            SimProcess(synthetic.compute_bound(), core_id=-1)

    def test_negative_launch_period_rejected(self):
        with pytest.raises(SchedulingError):
            make_process(launch_period=-1)

    def test_default_class_and_name(self):
        proc = make_process()
        assert proc.app_class is AppClass.LATENCY_SENSITIVE
        assert proc.name == proc.spec.name

    def test_disjoint_address_bases(self):
        a = SimProcess(synthetic.compute_bound(), core_id=0)
        b = SimProcess(synthetic.compute_bound(), core_id=1)
        assert a.workload.base != b.workload.base


def _spanning(lines: int) -> WorkloadSpec:
    """A workload whose phases span ``lines`` and ``lines // 2``."""
    return WorkloadSpec(
        name="wide",
        phases=(
            PhaseSpec(SequentialStreamSpec(lines=lines // 2), 1e6),
            PhaseSpec(StridedScanSpec(lines=lines, stride=64), 1e6),
        ),
        total_instructions=1e6,
    )


class TestAddressWindow:
    def test_default_machine_serves_one_digit_addresses(self):
        """Every core's slice of the default machine ends below 2^30,
        where CPython keeps an int in one digit."""
        cores = MachineConfig.scaled_nehalem().num_cores
        for core in range(cores):
            assert line_base(core) + LINE_WINDOW - 1 < 2**30
        assert line_base(14) + LINE_WINDOW - 1 < 2**30 <= line_base(15)

    def test_span_wider_than_the_window_is_refused(self):
        SimProcess(_spanning(LINE_WINDOW), core_id=0)
        with pytest.raises(WorkloadError) as caught:
            SimProcess(_spanning(LINE_WINDOW + 2), core_id=0)
        message = str(caught.value)
        assert str(LINE_WINDOW + 2) in message
        assert str(LINE_WINDOW) in message

    @pytest.mark.parametrize(
        "victim, config",
        [("429.mcf", "raw"), ("462.libquantum", "shutter")],
    )
    def test_results_do_not_depend_on_the_window(
        self, monkeypatch, victim, config
    ):
        """The window moves every address but no set index and no
        order between cores, so a 2^34-line window gives the same run."""
        spec = CampaignSettings(length=0.05, seed=0).run_spec(
            victim, config
        )
        default = execute(spec)
        monkeypatch.setattr(process, "LINE_WINDOW", 1 << 34)
        assert line_base(1) == 2 << 34
        assert execute(spec) == default

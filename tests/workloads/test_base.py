"""Workload specs, phases, and instance accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.base import PhaseSpec, WorkloadSpec
from repro.workloads.patterns import (
    SequentialStreamSpec,
    UniformRandomSpec,
)


def two_phase_spec(
    d1=100.0, d2=50.0, total=1000.0, mem1=0.5, mem2=0.25
) -> WorkloadSpec:
    return WorkloadSpec(
        name="t",
        phases=(
            PhaseSpec(
                pattern=SequentialStreamSpec(lines=8, line_repeats=1),
                duration_instructions=d1,
                mem_ratio=mem1,
            ),
            PhaseSpec(
                pattern=UniformRandomSpec(lines=8),
                duration_instructions=d2,
                mem_ratio=mem2,
            ),
        ),
        total_instructions=total,
    )


class TestValidation:
    def test_phase_rejects_bad_mem_ratio(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(
                pattern=UniformRandomSpec(lines=4),
                duration_instructions=10.0,
                mem_ratio=0.0,
            )
        with pytest.raises(WorkloadError):
            PhaseSpec(
                pattern=UniformRandomSpec(lines=4),
                duration_instructions=10.0,
                mem_ratio=1.5,
            )

    def test_phase_rejects_bad_overlap(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(
                pattern=UniformRandomSpec(lines=4),
                duration_instructions=10.0,
                overlap=0.5,
            )

    def test_workload_needs_phases(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", phases=(), total_instructions=10.0)

    def test_workload_needs_budget(self):
        phase = PhaseSpec(
            pattern=UniformRandomSpec(lines=4),
            duration_instructions=10.0,
        )
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", phases=(phase,), total_instructions=0.0)


class TestInstance:
    def test_derived_per_access_constants(self):
        instance = two_phase_spec().instantiate()
        phase = instance.current_phase()
        assert phase.instructions_per_access == pytest.approx(2.0)
        assert phase.compute_cycles_per_access == pytest.approx(1.0)

    def test_phase_rotation(self):
        instance = two_phase_spec(d1=100.0, d2=50.0).instantiate()
        # Phase 1 is 100 instructions = 50 accesses at mem_ratio .5.
        instance.account(50)
        assert instance.current_phase().spec.mem_ratio == 0.25
        # Phase 2 is 50 instructions = 12.5 accesses at mem_ratio .25.
        instance.account(13)
        assert instance.current_phase().spec.mem_ratio == 0.5

    def test_finishes_at_budget(self):
        instance = two_phase_spec(total=100.0).instantiate()
        instance.account(50)  # exactly 100 instructions
        assert instance.finished
        assert instance.progress == pytest.approx(1.0)

    def test_account_zero_is_noop(self):
        instance = two_phase_spec().instantiate()
        instance.account(0)
        assert instance.instructions_retired == 0.0

    def test_account_negative_rejected(self):
        instance = two_phase_spec().instantiate()
        with pytest.raises(WorkloadError):
            instance.account(-1)

    def test_accesses_left_is_positive_until_finished(self):
        instance = two_phase_spec(total=100.0).instantiate()
        while not instance.finished:
            left = instance.accesses_left_in_phase()
            assert left >= 1
            instance.account(min(left, 7))
        assert instance.accesses_left_in_phase() == 0

    def test_patterns_persist_across_phase_revisits(self):
        instance = two_phase_spec(d1=2.0, d2=2.0, total=1000.0).instantiate()
        first = instance.current_phase().pattern
        instance.account(1)  # finish phase 1 (2 instructions)
        instance.account(8)  # finish phase 2
        assert instance.current_phase().pattern is first

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=200),
        st.floats(50.0, 5000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_retired_instructions_monotone_and_bounded(
        self, chunks, total
    ):
        instance = two_phase_spec(total=total).instantiate()
        last = 0.0
        for chunk in chunks:
            if instance.finished:
                break
            instance.account(chunk)
            assert instance.instructions_retired >= last
            last = instance.instructions_retired
        if instance.finished:
            # May overshoot by at most one chunk of instructions.
            assert instance.instructions_retired >= total - 1e-6

    def test_footprint_is_max_over_phases(self):
        assert two_phase_spec().footprint_lines() == 8

    def test_generators_are_built_on_first_use(self):
        instance = two_phase_spec().instantiate()
        instance.account(3)
        assert instance._phases is None
        instance.current_phase()
        assert instance._phases is not None

    def test_lazy_generators_match_eager_ones_across_phase_boundaries(self):
        """On the sim path, 429.mcf's lazily built generators yield the
        addresses of generators built eagerly, in phase order, from the
        same seed — through a boundary into each phase and back."""
        import numpy as np

        from repro.config import MachineConfig
        from repro.sim.process import SimProcess
        from repro.workloads import benchmark

        machine = MachineConfig.scaled_nehalem()
        spec = benchmark("429.mcf", machine.l3.capacity_lines, length=0.1)
        assert len(spec.phases) == 2
        seed, core = 7, 1
        workload = SimProcess(spec, core, seed=seed).workload
        rng = np.random.default_rng(seed)
        eager = [
            phase.pattern.instantiate(rng, workload.base)
            for phase in spec.phases
        ]
        visited = []
        for _ in range(3):
            index = workload._phase_index
            visited.append(index)
            n = workload.accesses_left_in_phase()
            got = workload.current_phase().take_addresses(n)
            assert got == eager[index].next_addresses(n)
            workload.account(n)
        assert visited == [0, 1, 0]


class TestRuntimePhaseBatching:
    """take_addresses / push_back must preserve the scalar stream."""

    def _phase(self, seed=0):
        from repro.workloads.base import RuntimePhase

        spec = PhaseSpec(
            pattern=SequentialStreamSpec(lines=11, line_repeats=2),
            duration_instructions=1e6,
        )
        import numpy as np

        return RuntimePhase(
            spec, spec.pattern.instantiate(np.random.default_rng(seed), 0)
        )

    def _reference(self, n, seed=0):
        phase = self._phase(seed)
        return phase.take_addresses(n)

    def test_push_back_resumes_exactly(self):
        expected = self._reference(60)
        phase = self._phase()
        batch = phase.take_addresses(20)
        # Consume only 7, return the rest.
        phase.push_back(batch, 7)
        got = batch[:7]
        got += phase.take_addresses(13)
        got += phase.take_addresses(40)
        assert got == expected

    def test_push_back_of_pending_window_rewinds_cursor(self):
        expected = self._reference(30)
        phase = self._phase()
        first = phase.take_addresses(25)
        phase.push_back(first, 5)  # 20 pending
        second = phase.take_addresses(8)  # window into pending
        phase.push_back(second, 3)  # rewind 5 of them
        got = first[:5] + second[:3]
        got += phase.take_addresses(30 - len(got))
        assert got == expected

    def test_push_back_of_fully_consumed_batch_is_noop(self):
        expected = self._reference(20)
        phase = self._phase()
        batch = phase.take_addresses(10)
        phase.push_back(batch, 10)
        assert batch + phase.take_addresses(10) == expected

    def test_take_spanning_pending_and_fresh(self):
        expected = self._reference(50)
        phase = self._phase()
        batch = phase.take_addresses(10)
        phase.push_back(batch, 4)
        # 6 pending + 44 fresh in one draw.
        assert batch[:4] + phase.take_addresses(46) == expected

"""A statistical (analytic-resolution) twin of the trace-driven engine.

The trace engine simulates every memory access; this engine advances
whole probe periods in closed form using the same models the analytic
package cross-validates: per-phase miss-rate curves, a proportional
LRU occupancy state that evolves period by period, and the M/D/1 memory
channel.  Only that step is its own: the period loop around it —
launches, the run record, per-period trace events and metrics, period
hooks and their directives — is :class:`repro.sim.engine.PeriodEngine`,
shared with the trace engine, so the unmodified
:class:`repro.caer.runtime.CaerRuntime` runs on top of it — at two to
three orders of magnitude less cost per simulated period.

Use it for what statistics are good at — long-horizon screening, wide
parameter sweeps, full-length (``length=1.0``) campaigns — and the
trace engine for anything where per-access effects matter (set
conflicts, inclusion victims, exact interleavings).  Select it
with ``backend="statistical"``, on a :class:`~repro.runspec.RunSpec`
or on the :mod:`repro.sim.scenario` helpers.  The test-suite
cross-validates the two on slowdowns and on CAER's end-to-end
behaviour.
"""

from .engine import StatisticalEngine

__all__ = ["StatisticalEngine"]

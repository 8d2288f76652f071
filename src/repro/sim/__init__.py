"""Quantum-driven execution: the period loop and the trace engine.

:class:`PeriodEngine` advances a run one CAER probe period at a time.
At every period boundary it plays the role of the paper's 1 ms timer
interrupt: it records each process's PMU sample for the period and
hands the samples to registered period hooks — the CAER runtime is
such a hook, and reacts by pausing/resuming batch processes.  How a
period executes is the backend's: :class:`SimulationEngine` advances a
simulated chip, interleaving runnable processes at sub-period *slice*
granularity so their accesses contend fairly in the shared L3, and
probes each core's PMU through a perfmon session;
:class:`repro.statistical.StatisticalEngine` steps the period in
closed form.
"""

from .engine import PeriodEngine, SimulationEngine
from .process import AppClass, ProcessState, SimProcess
from .results import ProcessResult, RunResult
from .scenario import run_colocated, run_multi_colocated, run_solo

__all__ = [
    "PeriodEngine",
    "SimulationEngine",
    "AppClass",
    "ProcessState",
    "SimProcess",
    "ProcessResult",
    "RunResult",
    "run_solo",
    "run_colocated",
    "run_multi_colocated",
]

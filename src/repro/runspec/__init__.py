"""Declarative run specifications and pluggable execution backends.

The package splits *what to run* from *how to run it*:

* :mod:`repro.runspec.spec` — :class:`RunSpec`, a frozen, hashable
  description of one run (victim, contenders, machine, CAER policy,
  seed, length, backend id) with a canonical JSON form and a
  content-addressed SHA-256 digest that doubles as the campaign cache
  key;
* :mod:`repro.runspec.backends` — :func:`execute`, which runs a spec
  on the engine its backend id names, and :func:`execute_run`, the
  single spec-in/outcome-out entry point every experiment driver fans
  out over.

A backend is an engine builder registered by name
(:func:`register_backend`; ``"sim"`` → trace-driven engine,
``"statistical"`` → closed-form engine), and
:func:`repro.sim.scenario.build_engine` is the one place a run's engine
is built.  Because a spec and a hand-built scenario go through the same
process list and the same builder, the same spec is bit-identical to
the equivalent hand-built scenario, and the same spec on two backends
is a pure engine comparison (:mod:`repro.experiments.crossval`).
"""

from ..sim.scenario import backend_names, get_backend, register_backend
from .backends import RunOutcome, derive_telemetry, execute, execute_run
from .spec import (
    BATCH_BENCHMARK,
    COMPATIBLE_VERSIONS,
    CONFIGS,
    SPEC_VERSION,
    ContenderSpec,
    RunSpec,
    paper_run_spec,
    resolve_caer_config,
)

__all__ = [
    "RunSpec",
    "ContenderSpec",
    "SPEC_VERSION",
    "COMPATIBLE_VERSIONS",
    "BATCH_BENCHMARK",
    "CONFIGS",
    "paper_run_spec",
    "resolve_caer_config",
    "register_backend",
    "get_backend",
    "backend_names",
    "execute",
    "execute_run",
    "derive_telemetry",
    "RunOutcome",
]

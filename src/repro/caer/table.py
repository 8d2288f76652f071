"""The shared-memory communication table (§3.2, Figure 4).

Every CAER virtual layer — the lightweight CAER-M monitors under
latency-sensitive applications and the main engines under batch
applications — publishes its per-period PMU samples into this table and
reads its neighbours' rows from it.  Reaction directives are recorded
here too, and "all batch processes must adhere to the reaction
directives".

In the real prototype this is a shared-memory segment; here it is an
ordinary object shared by the runtime layers of one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.pmu import PMUSample
from ..errors import ConfigError
from ..sim.process import AppClass
from .window import SampleWindow

DEFAULT_WINDOW_SIZE = 20

_last = SampleWindow.last
_mean = SampleWindow.mean


@dataclass
class TableRow:
    """One application's published state."""

    name: str
    app_class: AppClass
    llc_misses: SampleWindow
    instructions: SampleWindow
    last_sample: PMUSample | None = None
    samples_published: int = 0


@dataclass
class Directives:
    """The reaction directives all batch layers must follow."""

    pause_batch: bool = False
    #: DVFS-style frequency fraction for the batch cores (1.0 = full)
    batch_speed: float = 1.0
    #: why the current directive holds, for the decision log
    reason: str = "init"


class CommunicationTable:
    """Shared rows of per-application sample windows plus directives."""

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE):
        if window_size < 1:
            raise ConfigError(f"window_size must be >= 1: {window_size}")
        self.window_size = window_size
        self.rows: dict[str, TableRow] = {}
        self.directives = Directives()
        # Each class's LLC-miss windows in registration order, kept by
        # register(): the per-period aggregates read only these.
        self._ls_windows: list[SampleWindow] = []
        self._batch_windows: list[SampleWindow] = []

    def register(self, name: str, app_class: AppClass) -> TableRow:
        """Add an application's row; a name registers once (a second
        registration raises :class:`ConfigError`)."""
        if name in self.rows:
            raise ConfigError(f"application {name!r} already registered")
        row = TableRow(
            name=name,
            app_class=app_class,
            llc_misses=SampleWindow(self.window_size),
            instructions=SampleWindow(self.window_size),
        )
        self.rows[name] = row
        if app_class is AppClass.LATENCY_SENSITIVE:
            self._ls_windows.append(row.llc_misses)
        elif app_class is AppClass.BATCH:
            self._batch_windows.append(row.llc_misses)
        return row

    def publish(self, name: str, sample: PMUSample) -> None:
        """Record one period's sample for ``name``."""
        row = self.rows.get(name) or self.row(name)
        row.llc_misses.push(float(sample.llc_misses))
        row.instructions.push(sample.instructions)
        row.last_sample = sample
        row.samples_published += 1

    def row(self, name: str) -> TableRow:
        """Look up an application's row."""
        try:
            return self.rows[name]
        except KeyError:
            raise ConfigError(
                f"application {name!r} not registered "
                f"(have: {', '.join(self.rows)})"
            ) from None

    def rows_by_class(self, app_class: AppClass) -> list[TableRow]:
        """All rows of one application class."""
        return [r for r in self.rows.values() if r.app_class is app_class]

    def latency_sensitive_misses(self) -> float:
        """Combined LLC misses of latency-sensitive apps, last period.

        The paper's prototype has a single latency-sensitive neighbour;
        with several, their miss counts add because they press on the
        same shared cache.
        """
        return sum(map(_last, self._ls_windows))

    def latency_sensitive_mean(self) -> float:
        """Combined windowed mean of latency-sensitive LLC misses."""
        return sum(map(_mean, self._ls_windows))

    def batch_misses(self) -> float:
        """Combined LLC misses of batch apps, last period."""
        return sum(map(_last, self._batch_windows))

    def batch_mean(self) -> float:
        """Combined windowed mean of batch LLC misses."""
        return sum(map(_mean, self._batch_windows))

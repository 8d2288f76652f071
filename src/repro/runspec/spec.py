"""The declarative run specification.

The paper's experimental unit (§6.1) is always the same shape: one
latency-sensitive victim, a group of relaunching batch contenders, a
machine, an optional CAER policy, a seed, and a run length.  Every
experiment driver used to rebuild that shape from positional tuple
fields; :class:`RunSpec` writes it down once as a frozen, hashable
value object with

* a **canonical JSON form** (:meth:`RunSpec.to_json`) — sorted keys,
  no incidental whitespace, an explicit version tag — that round-trips
  through :meth:`RunSpec.from_json`, and
* a **content-addressed digest** (:attr:`RunSpec.digest`) — the SHA-256
  of the canonical form — used as the campaign cache key, stamped on
  trace events, and carried in run telemetry.

Because the digest hashes *every* field (machine geometry included,
via :meth:`repro.config.MachineConfig.to_dict`; the full CAER policy
via :meth:`repro.caer.runtime.CaerConfig.to_dict`), any knob that can
change a result is in the cache key by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field

from ..caer.runtime import CaerConfig
from ..config import MachineConfig
from ..errors import ConfigError, ExperimentError
from ..faults import FaultPlan
from ..sim.scenario import DEFAULT_LAUNCH_STAGGER

#: Version tag of the canonical JSON form.  Bump on incompatible
#: payload changes; :meth:`RunSpec.from_dict` rejects versions outside
#: :data:`COMPATIBLE_VERSIONS`.  (2: optional ``faults`` plan.
#: 3: CAER plugin-parameter mappings.)
SPEC_VERSION = 3

#: Payload versions :meth:`RunSpec.from_dict` still accepts.  Version 1
#: predates the fault plan; its payloads simply have no ``faults`` key
#: and deserialise with ``faults=None``.  Version 2 predates the CAER
#: plugin registries; its ``caer`` payloads lack the
#: ``detector_params``/``response_params`` keys and deserialise with
#: empty mappings.
COMPATIBLE_VERSIONS = (1, 2, 3)

#: The contender used throughout the paper's experiments (§6.1).
BATCH_BENCHMARK = "470.lbm"

#: The co-location configuration tags of the paper's evaluation.
CONFIGS = ("raw", "shutter", "rule", "random")


def resolve_caer_config(config: str) -> CaerConfig | None:
    """Map a config tag to a CAER setup.

    The paper's tags (:data:`CONFIGS`) resolve to their exact §6
    setups.  Beyond those, any detector in the
    :mod:`repro.caer.registry` is addressable as ``"<detector>"`` or
    ``"<detector>+<response>"`` (response defaulting to ``soft-lock``),
    so registered plugins reach the CLI and experiment drivers without
    edits here.  Unknown tags raise listing every accepted choice.
    """
    if config == "raw":
        return None
    if config == "shutter":
        return CaerConfig.shutter()
    if config == "rule":
        return CaerConfig.rule_based()
    if config == "random":
        return CaerConfig.random_baseline()
    from ..caer import registry

    detector, _, response = config.partition("+")
    if detector in registry.detector_names():
        response = response or "soft-lock"
        if response not in registry.response_names():
            raise ExperimentError(
                f"unknown response {response!r} in config {config!r} "
                f"(registered responses: "
                f"{', '.join(registry.response_names())})"
            )
        return CaerConfig(detector=detector, response=response)
    choices = ", ".join(
        dict.fromkeys(CONFIGS + registry.detector_names())
    )
    raise ExperimentError(
        f"unknown co-location config {config!r} "
        f"(accepted: {choices}, optionally '<detector>+<response>')"
    )


@dataclass(frozen=True)
class ContenderSpec:
    """One batch contender: which benchmark, and its launch behaviour.

    ``relaunch`` reproduces §6.1's "restarted whenever it finishes"
    batch semantics; ``launch_period`` delays the contender's first
    launch (0 = launched before the victim, as the paper scripts it).
    """

    bench: str
    relaunch: bool = True
    launch_period: int = 0

    def __post_init__(self) -> None:
        if not self.bench:
            raise ConfigError("contender bench name must be non-empty")
        if self.launch_period < 0:
            raise ConfigError(
                f"launch_period must be >= 0, got {self.launch_period}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ContenderSpec":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(
                f"bad contender payload {data!r}: {exc}"
            ) from None


@dataclass(frozen=True)
class RunSpec:
    """A complete, declarative description of one simulated run.

    Frozen and hashable: usable as a dict key, picklable across the
    executor's process pool, and equal exactly when every
    result-affecting knob is equal.  ``backend`` names the execution
    engine in the :mod:`repro.sim.scenario` registry (``"sim"`` is
    the trace-driven engine, ``"statistical"`` the closed-form twin);
    it participates in the digest so cached results from different
    engines can never be confused.  ``faults``, when present, is the
    :class:`~repro.faults.FaultPlan` the engines apply to the PMU
    signal path; it too is digest-visible (even a null plan), so
    faulty and clean runs can never share a cache entry.
    """

    victim: str
    contenders: tuple[ContenderSpec, ...] = ()
    machine: MachineConfig = field(
        default_factory=MachineConfig.scaled_nehalem
    )
    caer: CaerConfig | None = None
    seed: int = 0
    length: float = 0.2
    slices_per_period: int = 8
    launch_stagger: int = DEFAULT_LAUNCH_STAGGER
    backend: str = "sim"
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not self.victim:
            raise ConfigError("victim bench name must be non-empty")
        if not isinstance(self.contenders, tuple):
            # Accept any iterable for convenience; store a tuple so the
            # spec stays hashable.
            object.__setattr__(
                self, "contenders", tuple(self.contenders)
            )
        if self.caer is not None and not self.contenders:
            raise ConfigError(
                "a CAER policy needs at least one batch contender"
            )
        if self.length <= 0:
            raise ConfigError(f"length must be > 0, got {self.length}")
        if self.slices_per_period < 1:
            raise ConfigError(
                f"slices_per_period must be >= 1, "
                f"got {self.slices_per_period}"
            )
        if self.launch_stagger < 0:
            raise ConfigError(
                f"launch_stagger must be >= 0, got {self.launch_stagger}"
            )
        if not self.backend:
            raise ConfigError("backend id must be non-empty")

    # -- canonical serialization -----------------------------------------

    def to_dict(self) -> dict:
        """Complete JSON-serialisable payload, version tag included."""
        return {
            "version": SPEC_VERSION,
            "victim": self.victim,
            "contenders": [c.to_dict() for c in self.contenders],
            "machine": self.machine.to_dict(),
            "caer": None if self.caer is None else self.caer.to_dict(),
            "seed": self.seed,
            "length": self.length,
            "slices_per_period": self.slices_per_period,
            "launch_stagger": self.launch_stagger,
            "backend": self.backend,
            "faults": (
                None if self.faults is None else self.faults.to_dict()
            ),
        }

    def to_json(self) -> str:
        """The canonical form: sorted keys, minimal separators."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (validating)."""
        payload = dict(data)
        version = payload.pop("version", SPEC_VERSION)
        if version not in COMPATIBLE_VERSIONS:
            raise ConfigError(
                f"unsupported spec version {version!r} "
                f"(this library speaks {COMPATIBLE_VERSIONS})"
            )
        try:
            payload["contenders"] = tuple(
                ContenderSpec.from_dict(c)
                for c in payload.get("contenders", ())
            )
            payload["machine"] = MachineConfig.from_dict(
                payload["machine"]
            )
            caer = payload.get("caer")
            payload["caer"] = (
                None if caer is None else CaerConfig.from_dict(caer)
            )
            faults = payload.get("faults")
            payload["faults"] = (
                None if faults is None else FaultPlan.from_dict(faults)
            )
            return cls(**payload)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad run spec payload: {exc!r}") from None

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from its JSON form."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"run spec is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(
                f"run spec must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    # -- identity ---------------------------------------------------------

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 content digest of the canonical JSON form.

        Computed once per spec object: every field, nested configs
        included, is immutable, so the first answer stays right.  A
        pickled copy carries it; ``dataclasses.replace`` builds a new
        object, which computes its own.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @property
    def config_tag(self) -> str:
        """Short human label: ``solo``, a paper tag, or the CAER label.

        Purely cosmetic — never part of the cache key — so two drivers
        describing the same run with different words still collide on
        the digest.
        """
        if not self.contenders:
            return "solo"
        if self.caer is None:
            return "raw"
        for tag in CONFIGS:
            if resolve_caer_config(tag) == self.caer:
                return tag
        return self.caer.label

    def describe(self) -> str:
        """Failure/progress identity, e.g. ``(429.mcf, rule)``, or
        ``(429.mcf, rule+faults(drop=0.15,...,seed=0))`` under a fault
        plan."""
        tag = self.config_tag
        if len(self.contenders) > 1:
            tag = f"{tag} x{len(self.contenders)}"
        if self.faults is not None:
            tag = f"{tag}+{self.faults.describe()}"
        return f"({self.victim}, {tag})"

    def with_backend(self, backend: str) -> "RunSpec":
        """The same physical run description on another engine."""
        return dataclasses.replace(self, backend=backend)

    def with_faults(self, faults: FaultPlan | None) -> "RunSpec":
        """The same run description under a (possibly null) fault plan."""
        return dataclasses.replace(self, faults=faults)


def paper_run_spec(
    bench: str,
    config: str,
    machine: MachineConfig,
    seed: int = 0,
    length: float = 0.2,
    slices_per_period: int = 8,
    backend: str = "sim",
    contender: str = BATCH_BENCHMARK,
) -> RunSpec:
    """Build the §6.1 spec for a (benchmark, config-tag) pair.

    ``config`` is ``"solo"`` (the benchmark alone) or one of
    :data:`CONFIGS` (co-located with ``contender`` under no runtime /
    shutter / rule-based / random).  This is the single translation
    point between the campaign's tag vocabulary and declarative specs.
    """
    if config == "solo":
        contenders: tuple[ContenderSpec, ...] = ()
        caer = None
    else:
        contenders = (ContenderSpec(contender),)
        caer = resolve_caer_config(config)
    return RunSpec(
        victim=bench,
        contenders=contenders,
        machine=machine,
        caer=caer,
        seed=seed,
        length=length,
        slices_per_period=slices_per_period,
        backend=backend,
    )

"""Simulation configuration: machine + prefetcher selection.

``SimulationConfig`` bundles the core and hierarchy parameters (whose
defaults are the paper's Table 1) with a prefetcher factory.  Factories
— rather than instances — are used throughout so that every run gets a
cold prefetcher, and so configurations are picklable/hashable for the
sweep cache.

``PREFETCHERS`` is the registry of named factories used by the CLI,
the benches, and the examples: ``none``, ``tcp-8k``, ``tcp-8m``,
``dbcp-2m``, ``hybrid-8k``, ``stride``, ``stream``, ``markov``,
``nextline``, ``tcp-stride``, ``tcp-multi2``, ``tcp-conf``, ``tcp-look2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.core import (
    ConfidenceFilteredTCP,
    LookaheadTCP,
    MultiTargetTCP,
    StrideFilteredTCP,
    hybrid_8k,
    tcp_8k,
    tcp_8m,
)
from repro.cpu import CoreParams
from repro.memory import HierarchyParams
from repro.prefetchers import (
    DeadBlockCorrelatingPrefetcher,
    MarkovPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    Prefetcher,
    StreamBufferPrefetcher,
    StridePrefetcher,
)

__all__ = ["PREFETCHERS", "SimulationConfig", "prefetcher_factory"]

PrefetcherFactory = Callable[[], Prefetcher]

PREFETCHERS: Dict[str, PrefetcherFactory] = {
    "none": NullPrefetcher,
    "nextline": NextLinePrefetcher,
    "stride": StridePrefetcher,
    "stream": StreamBufferPrefetcher,
    "markov": MarkovPrefetcher,
    "dbcp-2m": DeadBlockCorrelatingPrefetcher,
    "tcp-8k": tcp_8k,
    "tcp-8m": tcp_8m,
    "hybrid-8k": hybrid_8k,
    "tcp-stride": StrideFilteredTCP,
    "tcp-multi2": MultiTargetTCP,
    "tcp-conf": ConfidenceFilteredTCP,
    "tcp-look2": LookaheadTCP,
}


def prefetcher_factory(name: str) -> PrefetcherFactory:
    """Resolve a registry name to its factory (KeyError lists options)."""
    try:
        return PREFETCHERS[name]
    except KeyError:
        raise KeyError(
            f"unknown prefetcher {name!r}; choose from {sorted(PREFETCHERS)}"
        ) from None


def register_prefetcher(name: str, factory: PrefetcherFactory) -> str:
    """Add (or replace) a named prefetcher factory.

    Experiments that sweep prefetcher parameters (e.g. the Figure 13
    PHT sizes) register one factory per design point; the name keeps
    :class:`SimulationConfig` hashable for the result cache.  Returns
    the name for chaining.
    """
    PREFETCHERS[name] = factory
    return name


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation."""

    prefetcher: str = "none"
    core: CoreParams = field(default_factory=CoreParams)
    hierarchy: HierarchyParams = field(default_factory=HierarchyParams)
    #: label used in result tables; defaults to the prefetcher name.
    label: Optional[str] = None
    #: runtime invariant-checking tier ("off" | "cheap" | "full");
    #: None defers to the ``REPRO_SANITIZE`` environment variable.
    #: Checking never changes simulated results, so this field is
    #: excluded from the store's config fingerprint.
    sanitize: Optional[str] = None
    #: simulation backend ("python" | "native"); None defers to the
    #: ``REPRO_BACKEND`` environment variable (default "python").
    #: Backends are required to be bit-identical, so the field is
    #: ``repr=False``: it stays out of ``repr()``-derived store
    #: fingerprints and golden-corpus filenames — results computed by
    #: either backend are interchangeable checkpoints.  Equality and
    #: hashing still include it, so the in-process result cache keys
    #: runs per backend (the differential tests rely on that).
    backend: Optional[str] = field(default=None, repr=False)
    #: number of cores sharing the L2/bus/DRAM; 1 = the classic
    #: single-core machine.  ``repr=False`` plus the custom
    #: ``__repr__`` below keep single-core fingerprints byte-identical
    #: to what they were before the multicore dimension existed —
    #: the dimension only enters ``repr()`` (and hence store/golden
    #: fingerprints) when a mix is actually configured.
    cores: int = field(default=1, repr=False)
    #: benchmark per core (``mix[i]`` runs on core ``i``); None for
    #: single-core runs.  Fingerprinted via the custom ``__repr__``.
    mix: Optional[Tuple[str, ...]] = field(default=None, repr=False)
    #: share one PHT across all cores' prefetchers (private per-core
    #: PHTs otherwise).  Only meaningful with a mix.
    shared_pht: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.sanitize is not None and self.sanitize not in ("off", "cheap", "full"):
            raise ValueError(
                f"sanitize must be off, cheap, or full, got {self.sanitize!r}"
            )
        if self.backend is not None and not isinstance(self.backend, str):
            raise ValueError(f"backend must be a name or None, got {self.backend!r}")
        if self.mix is not None and not isinstance(self.mix, tuple):
            # JSON wire round-trips deliver lists; keep the config
            # hashable by coercing through the frozen-dataclass wall.
            object.__setattr__(self, "mix", tuple(self.mix))
        if not isinstance(self.cores, int) or self.cores < 1:
            raise ValueError(f"cores must be a positive int, got {self.cores!r}")
        if self.mix is not None and len(self.mix) != self.cores:
            raise ValueError(
                f"mix has {len(self.mix)} benchmarks but cores={self.cores}"
            )
        if self.mix is None and self.cores != 1:
            raise ValueError("cores > 1 requires a mix (one benchmark per core)")
        if self.shared_pht and self.mix is None:
            raise ValueError("shared_pht is only meaningful with a mix")

    def __repr__(self) -> str:
        # Reproduce the pre-multicore auto-repr byte-for-byte for
        # single-core configs: store fingerprints and golden-corpus
        # filenames are repr-derived, and every existing checkpoint
        # must keep its key.  The multicore dimension is appended only
        # when actually in use.
        base = (
            f"{self.__class__.__name__}("
            f"prefetcher={self.prefetcher!r}, core={self.core!r}, "
            f"hierarchy={self.hierarchy!r}, label={self.label!r}, "
            f"sanitize={self.sanitize!r})"
        )
        if self.mix is None and self.cores == 1 and not self.shared_pht:
            return base
        return (
            base[:-1]
            + f", cores={self.cores!r}, mix={self.mix!r}, "
            + f"shared_pht={self.shared_pht!r})"
        )

    def resolved_label(self) -> str:
        return self.label if self.label is not None else self.prefetcher

    def build_prefetcher(self) -> Prefetcher:
        """Instantiate a cold prefetcher for one run."""
        return prefetcher_factory(self.prefetcher)()

    def with_hierarchy(self, **overrides: object) -> "SimulationConfig":
        """Copy with hierarchy parameter overrides."""
        return replace(self, hierarchy=replace(self.hierarchy, **overrides))  # type: ignore[arg-type]

    @staticmethod
    def baseline() -> "SimulationConfig":
        """No prefetching, paper's Table 1 machine."""
        return SimulationConfig(prefetcher="none", label="base")

    @staticmethod
    def ideal_l2() -> "SimulationConfig":
        """The Figure 1 machine: every L2 data access hits."""
        config = SimulationConfig(prefetcher="none", label="ideal-l2")
        return config.with_hierarchy(ideal_l2=True)

    @staticmethod
    def for_prefetcher(name: str) -> "SimulationConfig":
        """Standard machine with the named prefetcher attached.

        The hybrid gets the dedicated L1/L2 prefetch bus the paper adds
        in Section 5.2.2; everything else uses the shared bus.
        """
        config = SimulationConfig(prefetcher=name)
        if name.startswith("hybrid"):
            config = config.with_hierarchy(dedicated_prefetch_bus=True)
        return config

"""Fleet frames: the population as column rows, Processors on demand.

A materialized :class:`~repro.cpu.processor.Processor` costs kilobytes
once bitflip patterns and core multipliers are attached.  At paper
scale (>1M CPUs, dense ``failure_rate_scale``) holding every faulty one
would dominate campaign RSS.  :func:`generate_fleet` therefore keeps a
:class:`FleetFrame`: the ~45-byte :data:`~.population.ROW_SCHEMA` row
that *determines* each processor, and rebuilds real Processor objects
on demand, one window at a time.

The pipeline engines only ever touch ``population.faulty[start:stop]``
(range lowering) or ``population.faulty[i]`` (replay), so
:class:`LazyFaultyList` services exactly those two access patterns with
a single cached window: peak resident Processors = max(window size,
largest range requested by the driver), and a campaign requests one
shard at a time.

Frames also round-trip through the :mod:`repro.colstore` container
(one ``.npy`` per column, CRC-checked manifest), which is what lets a
spilled population be memory-mapped back without regeneration.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from ..colstore import read_columns, write_columns
from ..cpu.processor import Processor
from ..errors import ConfigurationError
from .population import (
    DEFAULT_CHUNK_SIZE,
    ROW_SCHEMA,
    FleetChunk,
    FleetPopulation,
    FleetSpec,
    OnsetMixture,
    fleet_arch_counts,
    iter_fleet_chunks,
)

__all__ = [
    "FleetFrame",
    "LazyFaultyList",
    "generate_fleet",
    "spec_to_dict",
    "spec_from_dict",
]


def spec_to_dict(spec: FleetSpec) -> Dict[str, object]:
    """JSON-safe dict for a :class:`FleetSpec` (round-trips exactly)."""
    data = asdict(spec)
    data["onset"] = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(spec.onset).items()
    }
    return data


def spec_from_dict(data: Dict[str, object]) -> FleetSpec:
    """Inverse of :func:`spec_to_dict`."""
    data = dict(data)
    onset = dict(data.pop("onset"))
    for key, value in onset.items():
        if isinstance(value, list):
            onset[key] = tuple(value)
    shares = data.get("arch_shares")
    if shares is not None:
        data["arch_shares"] = dict(shares)
    return FleetSpec(onset=OnsetMixture(**onset), **data)


class FleetFrame:
    """A whole fleet's faulty CPUs in struct-of-arrays form.

    Columns may be owned in-memory arrays or read-only memory maps
    (after :meth:`load`); every consumer treats them as immutable.
    """

    def __init__(
        self,
        spec: FleetSpec,
        arch_names: Tuple[str, ...],
        arch_counts: Dict[str, int],
        columns: Dict[str, np.ndarray],
    ):
        missing = [name for name in ROW_SCHEMA if name not in columns]
        if missing:
            raise ConfigurationError(f"fleet frame missing columns: {missing}")
        lengths = {name: len(columns[name]) for name in ROW_SCHEMA}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(
                f"fleet frame columns disagree on length: {lengths}"
            )
        self.spec = spec
        self.arch_names = tuple(arch_names)
        self.arch_counts = dict(arch_counts)
        self.columns = {name: columns[name] for name in ROW_SCHEMA}

    def __len__(self) -> int:
        return len(self.columns["arch_code"])

    def materialize(self, start: int, stop: int) -> List[Processor]:
        """Rebuild rows [start, stop) as Processors, through a zero-copy
        :class:`FleetChunk` view."""
        return FleetChunk(
            start=start,
            arch_names=self.arch_names,
            columns={
                name: column[start:stop]
                for name, column in self.columns.items()
            },
        ).materialize()

    # -- persistence --------------------------------------------------------

    def save(self, directory, obs=None) -> int:
        """Spill this frame through :mod:`repro.colstore`; bytes written."""
        meta = {
            "kind": "fleet-frame",
            "spec": spec_to_dict(self.spec),
            "arch_names": list(self.arch_names),
            "arch_counts": dict(self.arch_counts),
        }
        return write_columns(directory, self.columns, meta=meta, obs=obs)

    @classmethod
    def load(cls, directory, mmap: bool = True, verify: bool = False) -> "FleetFrame":
        """Map a spilled frame back; columns stay on disk when ``mmap``."""
        columns, meta = read_columns(directory, mmap=mmap, verify=verify)
        return cls(
            spec=spec_from_dict(meta["spec"]),
            arch_names=tuple(meta["arch_names"]),
            arch_counts={k: int(v) for k, v in meta["arch_counts"].items()},
            columns=columns,
        )


class LazyFaultyList(Sequence):
    """Sequence of faulty Processors materialized a window at a time.

    Exactly one materialized window is cached.  Slicing materializes
    (and caches) precisely the requested range — the engines' range
    lowering path; integer access materializes the window-aligned block
    around the index — the replay path, which walks CPUs in order
    within a shard and therefore hits the cache after the first touch.
    Processors rebuilt by different windows are equal, not identical.
    """

    def __init__(self, frame: FleetFrame, window: int = DEFAULT_CHUNK_SIZE, obs=None):
        if window <= 0:
            raise ConfigurationError("window must be positive")
        self._frame = frame
        self._window = window
        self._cache_range: Optional[Tuple[int, int]] = None
        self._cache: List[Processor] = []
        #: How many windows were rebuilt — the out-of-core tests assert
        #: on this to prove access locality, and obs mirrors it.
        self.materializations = 0
        self.obs = obs

    @property
    def frame(self) -> FleetFrame:
        return self._frame

    @property
    def window(self) -> int:
        return self._window

    def __len__(self) -> int:
        return len(self._frame)

    def _materialize(self, start: int, stop: int) -> List[Processor]:
        if self._cache_range != (start, stop):
            self._cache = self._frame.materialize(start, stop)
            self._cache_range = (start, stop)
            self.materializations += 1
            if self.obs is not None:
                self.obs.inc("repro_frame_materializations_total")
        return self._cache

    @overload
    def __getitem__(self, index: int) -> Processor: ...

    @overload
    def __getitem__(self, index: slice) -> List[Processor]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Processor, List[Processor]]:
        n = len(self._frame)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                return [
                    self[i] for i in range(start, stop, step)
                ]
            if start >= stop:
                return []
            return list(self._materialize(start, stop))
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("faulty index out of range")
        start = (index // self._window) * self._window
        stop = min(start + self._window, n)
        if self._cache_range is not None:
            lo, hi = self._cache_range
            if lo <= index < hi:
                return self._cache[index - lo]
        return self._materialize(start, stop)[index - start]

    def __iter__(self) -> Iterator[Processor]:
        for start in range(0, len(self), self._window):
            stop = min(start + self._window, len(self))
            yield from self._materialize(start, stop)


def generate_fleet(spec: Optional[FleetSpec] = None, obs=None) -> FleetPopulation:
    """Generate the fleet: arch counts plus the faulty CPUs.

    Streams :func:`~.population.iter_fleet_chunks` into one
    :class:`FleetFrame`; ``population.faulty`` is a
    :class:`LazyFaultyList` over it (the frame is
    ``population.faulty.frame``), so no more than one window of
    Processor objects is ever resident.
    """
    spec = spec or FleetSpec()
    chunks = []
    for chunk in iter_fleet_chunks(spec):
        chunks.append(chunk)
        if obs is not None:
            obs.inc("repro_fleet_chunks_total")
    arch_counts = fleet_arch_counts(spec)
    frame = FleetFrame(
        spec=spec,
        arch_names=tuple(sorted(arch_counts)),
        arch_counts=arch_counts,
        columns={
            # The empty head keeps the dtype when no CPU is faulty.
            name: np.concatenate(
                [np.empty(0, dtype)] + [chunk.columns[name] for chunk in chunks]
            )
            for name, dtype in ROW_SCHEMA.items()
        },
    )
    return FleetPopulation(
        spec=spec,
        arch_counts=arch_counts,
        faulty=LazyFaultyList(frame, obs=obs),
    )

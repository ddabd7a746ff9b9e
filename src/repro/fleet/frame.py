"""Out-of-core fleet frames: SoA faulty populations with lazy windows.

Eager generation holds every faulty :class:`~repro.cpu.processor
.Processor` resident — kilobytes apiece once bitflip patterns and core
multipliers are attached.  At paper scale (>1M CPUs, dense
``failure_rate_scale``) that dominates campaign RSS.  A
:class:`FleetFrame` instead keeps the ~45-byte struct-of-arrays row
that *determines* each processor (the :func:`~.population
._sample_defect_params` tuple plus onset/escape) and rebuilds real
Processor objects on demand, one window at a time, bit-identical to
what :func:`~.population.generate_fleet` would have produced.

The pipeline engines only ever touch ``population.faulty[start:stop]``
(range lowering) or ``population.faulty[i]`` (replay), so
:class:`LazyFaultyList` services exactly those two access patterns with
a single cached window: peak resident Processors = max(window size,
largest range requested by the driver), which the campaign layer
bounds via its shard size.

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
    "FrameFleetPopulation",
    "generate_fleet_frame",
    "spec_to_dict",
    "spec_from_dict",
]

#: Column names of a fleet frame, in canonical order (mirrors
#: :class:`~.population.FleetChunk`'s row layout).
FRAME_COLUMNS: Tuple[str, ...] = (
    "arch_code",
    "arch_index",
    "onset_days",
    "escapes",
    "consistency",
    "combo",
    "pool_index",
    "core_id",
    "tmin",
    "log10_f0",
    "slope",
    "pattern_prob",
)

#: Column dtypes (fixed by :class:`~.population.FleetChunk`'s layout);
#: used to shape empty frames when a spec yields zero faulty CPUs.
FRAME_DTYPES: Dict[str, np.dtype] = {
    "arch_code": np.dtype(np.int16),
    "arch_index": np.dtype(np.int32),
    "onset_days": np.dtype(np.float64),
    "escapes": np.dtype(np.bool_),
    "consistency": np.dtype(np.bool_),
    "combo": np.dtype(np.int8),
    "pool_index": np.dtype(np.int32),
    "core_id": np.dtype(np.int32),
    "tmin": np.dtype(np.float64),
    "log10_f0": np.dtype(np.float64),
    "slope": np.dtype(np.float64),
    "pattern_prob": np.dtype(np.float64),
}


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
        missing = [name for name in FRAME_COLUMNS if name not in columns]
        if missing:
            raise ConfigurationError(f"fleet frame missing columns: {missing}")
        lengths = {name: len(columns[name]) for name in FRAME_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(
                f"fleet frame columns disagree on length: {lengths}"
            )
        self.spec = spec
        self.arch_names = tuple(arch_names)
        self.arch_counts = dict(arch_counts)
        self.columns = {name: columns[name] for name in FRAME_COLUMNS}

    def __len__(self) -> int:
        return len(self.columns["arch_code"])

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.columns.values())

    def chunk(self, start: int, stop: int) -> FleetChunk:
        """A zero-copy :class:`FleetChunk` view of rows [start, stop)."""
        return FleetChunk(
            start=start,
            arch_names=self.arch_names,
            **{name: self.columns[name][start:stop] for name in FRAME_COLUMNS},
        )

    def materialize(self, start: int, stop: int) -> List[Processor]:
        """Rebuild rows [start, stop) as Processors (eager-parity)."""
        return self.chunk(start, stop).materialize()

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
    Pickling drops the cache, so a pickled population costs only the
    SoA columns.
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

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache_range"] = None
        state["_cache"] = []
        state["obs"] = None
        return state


class FrameFleetPopulation(FleetPopulation):
    """A :class:`FleetPopulation` whose faulty list is frame-backed.

    Drop-in for every engine (they only slice/index ``faulty``), but
    peak resident Processors stay bounded by the window.  The frame is
    exposed so a campaign can spill it to a column store.
    """

    def __init__(self, frame: FleetFrame, window: int = DEFAULT_CHUNK_SIZE, obs=None):
        super().__init__(
            spec=frame.spec,
            arch_counts=dict(frame.arch_counts),
            faulty=LazyFaultyList(frame, window=window, obs=obs),
        )
        self.frame = frame

    def faulty_by_arch(self) -> Dict[str, List[Processor]]:
        grouped: Dict[str, List[Processor]] = {
            name: [] for name in self.arch_counts
        }
        codes = self.frame.columns["arch_code"]
        names = self.frame.arch_names
        for row in range(len(codes)):
            # Group by the SoA arch column; only rows of interest get
            # materialized (still all of them here, but window-bounded).
            grouped[names[int(codes[row])]].append(self.faulty[row])
        return grouped

    def detectable_faulty(self) -> List[Processor]:
        escapes = self.frame.columns["escapes"]
        return [self.faulty[row] for row in np.flatnonzero(~np.asarray(escapes))]


def generate_fleet_frame(
    spec: Optional[FleetSpec] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    window: Optional[int] = None,
    obs=None,
) -> FrameFleetPopulation:
    """Stream-generate a frame-backed population (bounded memory).

    Consumes :func:`~.population.iter_fleet_chunks`, so the resulting
    population's faulty sequence is bit-identical to
    :func:`~.population.generate_fleet` — the unit suite asserts it —
    while never holding more than one chunk of Processor state plus the
    compact SoA columns.
    """
    spec = spec or FleetSpec()
    parts: Dict[str, List[np.ndarray]] = {name: [] for name in FRAME_COLUMNS}
    arch_names: Tuple[str, ...] = ()
    chunks = 0
    for chunk in iter_fleet_chunks(spec, chunk_size=chunk_size):
        arch_names = chunk.arch_names
        for name in FRAME_COLUMNS:
            parts[name].append(getattr(chunk, name))
        chunks += 1
        if obs is not None:
            obs.inc("repro_fleet_chunks_total")
    if not arch_names:
        arch_names = tuple(sorted(fleet_arch_counts(spec)))
    columns = {
        name: (
            np.concatenate(parts[name])
            if parts[name]
            else np.empty(0, dtype=FRAME_DTYPES[name])
        )
        for name in FRAME_COLUMNS
    }
    frame = FleetFrame(
        spec=spec,
        arch_names=arch_names,
        arch_counts=fleet_arch_counts(spec),
        columns=columns,
    )
    return FrameFleetPopulation(
        frame, window=window or chunk_size, obs=obs
    )

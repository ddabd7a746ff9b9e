"""Fleet frames: the population as column rows, Processors on demand.

A materialized :class:`~repro.cpu.processor.Processor` costs kilobytes
once bitflip patterns and core multipliers are attached.  At paper
scale (>1M CPUs, dense ``failure_rate_scale``) holding every faulty one
would dominate campaign RSS.  :func:`generate_fleet` therefore keeps a
:class:`FleetFrame`: the ~45-byte :data:`~.population.ROW_SCHEMA` row
that *determines* each processor.  The frame is the population's
``faulty`` sequence, and every access rebuilds exactly the Processors
it names and keeps none of them, so resident Processors are whatever
the caller holds.  The vectorized campaign engine reads
:attr:`FleetFrame.columns` directly and builds none; the scalar oracle,
a shard degraded to it, and callers that iterate ``faulty`` build them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from ..cpu.catalog import ARCHITECTURES
from ..cpu.processor import Processor
from ..errors import ConfigurationError
from .population import (
    ROW_SCHEMA,
    FleetPopulation,
    FleetSpec,
    _build_fleet_defect,
    draw_fleet_columns,
    fleet_arch_counts,
    fleet_cpu_name,
)

__all__ = [
    "FleetFrame",
    "generate_fleet",
]

#: Rows rebuilt per block while a whole frame is iterated, so a full
#: pass never holds more than one block of Processors at a time.
_ITER_BLOCK = 8192


class FleetFrame(Sequence):
    """A whole fleet's faulty CPUs in struct-of-arrays form.

    An integer index or a slice (of any step) rebuilds exactly the rows
    it names, in order, through the row→defect mapping of
    :mod:`~.population`; nothing is cached, so Processors rebuilt by
    different accesses are equal, not identical.  The vectorized engine
    lowers ``columns`` through the same mapping without building any.
    Every consumer treats the columns as immutable.
    """

    def __init__(
        self,
        arch_names: Tuple[str, ...],
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
        self.arch_names = tuple(arch_names)
        self.columns = {name: columns[name] for name in ROW_SCHEMA}

    def __len__(self) -> int:
        return len(self.columns["arch_code"])

    def _build(self, rows: slice) -> List[Processor]:
        """Rebuild the rows ``rows`` selects as Processors, in order."""
        values = zip(*(self.columns[name][rows].tolist() for name in ROW_SCHEMA))
        processors = []
        for arch_code, arch_index, onset, escapes, *params in values:
            name = self.arch_names[arch_code]
            arch = ARCHITECTURES[name]
            cpu_name = fleet_cpu_name(name, arch_index)
            defect = _build_fleet_defect(
                cpu_name, arch, tuple(params), onset, escapes
            )
            processors.append(Processor(
                processor_id=cpu_name,
                arch=arch,
                defects=(defect,),
                age_years=0.0,
            ))
        return processors

    @overload
    def __getitem__(self, index: int) -> Processor: ...

    @overload
    def __getitem__(self, index: slice) -> List[Processor]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Processor, List[Processor]]:
        if isinstance(index, slice):
            return self._build(index)
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("faulty index out of range")
        return self._build(slice(index, index + 1))[0]

    def __iter__(self) -> Iterator[Processor]:
        for start in range(0, len(self), _ITER_BLOCK):
            yield from self._build(slice(start, start + _ITER_BLOCK))


def generate_fleet(spec: Optional[FleetSpec] = None) -> FleetPopulation:
    """Generate the fleet: arch counts plus the faulty CPUs.

    ``population.faulty`` is the :class:`FleetFrame` of
    :func:`~.population.draw_fleet_columns`' rows.
    """
    spec = spec or FleetSpec()
    arch_counts = fleet_arch_counts(spec)
    return FleetPopulation(
        spec=spec,
        arch_counts=arch_counts,
        faulty=FleetFrame(
            arch_names=tuple(sorted(arch_counts)),
            columns=draw_fleet_columns(spec),
        ),
    )

"""Fleet simulation: population, topology, staged test pipeline, stats."""

from .population import (
    FleetChunk,
    FleetPopulation,
    FleetSpec,
    OnsetMixture,
    fleet_arch_counts,
    generate_fleet,
    iter_fleet_chunks,
)
from .frame import (
    FleetFrame,
    FrameFleetPopulation,
    LazyFaultyList,
    generate_fleet_frame,
)
from .machine import (
    Cluster,
    Datacenter,
    FleetTopology,
    Machine,
    build_topology,
)
from .pipeline import (
    Detection,
    FleetStudyResult,
    PipelineConfig,
    StageConfig,
    TestPipeline,
)
from .salvage import SalvageReport, salvage_study
from .vectorized import VectorizedTestPipeline
from . import stats

__all__ = [
    "FleetChunk",
    "FleetPopulation",
    "FleetSpec",
    "OnsetMixture",
    "fleet_arch_counts",
    "generate_fleet",
    "iter_fleet_chunks",
    "FleetFrame",
    "FrameFleetPopulation",
    "LazyFaultyList",
    "generate_fleet_frame",
    "Cluster",
    "Datacenter",
    "FleetTopology",
    "Machine",
    "build_topology",
    "Detection",
    "FleetStudyResult",
    "PipelineConfig",
    "StageConfig",
    "TestPipeline",
    "VectorizedTestPipeline",
    "SalvageReport",
    "salvage_study",
    "stats",
]

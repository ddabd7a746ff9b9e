"""Fleet simulation: population, topology, staged test pipeline, stats."""

from .population import (
    ROW_SCHEMA,
    FleetChunk,
    FleetPopulation,
    FleetSpec,
    OnsetMixture,
    fleet_arch_counts,
    iter_fleet_chunks,
)
from .frame import FleetFrame, LazyFaultyList, generate_fleet
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
    "ROW_SCHEMA",
    "FleetChunk",
    "FleetPopulation",
    "FleetSpec",
    "OnsetMixture",
    "fleet_arch_counts",
    "generate_fleet",
    "iter_fleet_chunks",
    "FleetFrame",
    "LazyFaultyList",
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

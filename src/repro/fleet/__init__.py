"""Fleet simulation: population, topology, staged test pipeline, stats."""

from .population import (
    ROW_SCHEMA,
    FleetPopulation,
    FleetSpec,
    OnsetMixture,
    fleet_arch_counts,
)
from .frame import FleetFrame, generate_fleet
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
    "FleetPopulation",
    "FleetSpec",
    "OnsetMixture",
    "fleet_arch_counts",
    "generate_fleet",
    "FleetFrame",
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

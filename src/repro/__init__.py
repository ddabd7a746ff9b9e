"""Reproduction of "Understanding Silent Data Corruptions in a Large
Production CPU Population" (SOSP 2023).

The package rebuilds the paper's whole stack as a calibrated simulation
substrate plus a real implementation of its mitigation system:

* :mod:`repro.cpu` — simulated processors: ISA, defects, the 27-CPU
  study catalog, MESI coherence and transactional-memory simulators;
* :mod:`repro.thermal` — package/core RC thermal model, cooling, the
  stress-tool equivalent, temperature monitoring;
* :mod:`repro.faults` — bitflip models, the temperature/usage trigger
  law, and the fault injector;
* :mod:`repro.testing` — the 633-testcase toolchain, framework, and
  runners;
* :mod:`repro.fleet` — million-CPU population, topology, and the
  factory→datacenter→re-install→regular test pipeline;
* :mod:`repro.workloads` — the impacted production applications;
* :mod:`repro.detectors` — the fault-tolerance techniques §6 critiques;
* :mod:`repro.analysis` — the study's measurement machinery;
* :mod:`repro.core` — **Farron**, the paper's mitigation system, plus
  the Alibaba baseline and the §7.2 evaluation harness;
* :mod:`repro.resilience` — sharded, checkpointed campaigns that
  resume bit-identically after a process death or a damaged snapshot,
  for month-scale campaigns.

Quickstart::

    from repro import catalog_processor, build_library, Farron

    cpu = catalog_processor("MIX1")
    library = build_library()
    farron = Farron(library)
    outcome = farron.pre_production_test(cpu)
    print(outcome.status, outcome.newly_masked_cores)
"""

from .errors import (
    ConfigurationError,
    DataTypeError,
    DecommissionError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from .cpu import (
    ARCHITECTURES,
    DataType,
    Defect,
    Feature,
    Processor,
    SDCType,
    catalog_processor,
    full_catalog,
)
from .faults import FaultInjector, TriggerModel
from .testing import (
    RecordStore,
    SDCRecord,
    TestFramework,
    Testcase,
    TestcaseLibrary,
    ToolchainRunner,
    build_library,
)
from .fleet import FleetSpec, TestPipeline, generate_fleet
from .resilience import (
    CampaignHealthReport,
    CampaignSpec,
    CheckpointStore,
    ResilientCampaign,
)
from .core import (
    AlibabaBaseline,
    ApplicationProfile,
    Farron,
    coverage_experiment,
    simulate_online,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DataTypeError",
    "DecommissionError",
    "SchedulingError",
    "SimulationError",
    "ARCHITECTURES",
    "DataType",
    "Defect",
    "Feature",
    "Processor",
    "SDCType",
    "catalog_processor",
    "full_catalog",
    "FaultInjector",
    "TriggerModel",
    "RecordStore",
    "SDCRecord",
    "TestFramework",
    "Testcase",
    "TestcaseLibrary",
    "ToolchainRunner",
    "build_library",
    "FleetSpec",
    "TestPipeline",
    "generate_fleet",
    "CampaignHealthReport",
    "CampaignSpec",
    "CheckpointStore",
    "ResilientCampaign",
    "AlibabaBaseline",
    "ApplicationProfile",
    "Farron",
    "coverage_experiment",
    "simulate_online",
    "__version__",
]

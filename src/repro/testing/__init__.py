"""SDC testing toolchain: testcases, library, framework, runner."""

from .testcase import Complexity, ConsistencyKind, Testcase
from .library import (
    FEATURE_QUOTAS,
    TOOLCHAIN_SIZE,
    TestcaseLibrary,
    build_library,
)
from .alttoolchain import ALT_TOOLCHAIN_SIZE, build_open_library
from .records import ConsistencyRecord, RecordStore, SDCRecord, SettingKey
from .runner import HEAT_THROTTLE, TestcaseRun, ToolchainRunner
from .framework import PlanEntry, TestFramework, TestPlan, ToolchainReport
from .batch import BatchScreeningEngine, screening_record_frame
from .multithread import (
    CoherenceTestResult,
    TxMemTestResult,
    run_coherence_test,
    run_txmem_test,
)

__all__ = [
    "Complexity",
    "ConsistencyKind",
    "Testcase",
    "FEATURE_QUOTAS",
    "TOOLCHAIN_SIZE",
    "TestcaseLibrary",
    "build_library",
    "ALT_TOOLCHAIN_SIZE",
    "build_open_library",
    "ConsistencyRecord",
    "RecordStore",
    "SDCRecord",
    "SettingKey",
    "HEAT_THROTTLE",
    "TestcaseRun",
    "ToolchainRunner",
    "PlanEntry",
    "TestFramework",
    "TestPlan",
    "ToolchainReport",
    "BatchScreeningEngine",
    "screening_record_frame",
    "CoherenceTestResult",
    "TxMemTestResult",
    "run_coherence_test",
    "run_txmem_test",
]

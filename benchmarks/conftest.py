"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper,
printing the paper's published values beside the values measured from
the simulation.  Expensive artifacts (the million-CPU campaign, the
catalog SDC-record corpus) are built once per session.
"""

from pathlib import Path

import pytest

from repro.analysis.columnar import RecordFrame
from repro.analysis.corpus_cache import CorpusCache
from repro.cpu import full_catalog
from repro.fleet import FleetSpec, TestPipeline, generate_fleet
from repro.perf import deterministic_map
from repro.testing import RecordStore, TestFramework, ToolchainRunner, build_library

#: On-disk corpus memo shared across benchmark sessions: the corpus is
#: deterministic, so only its first materialization pays the toolchain
#: walk; the key fingerprints catalog+library+parameters and the file
#: is CRC-self-checked, so a stale or torn cache recomputes instead of
#: serving wrong records.
CORPUS_CACHE_DIR = Path(__file__).parent / ".corpus_cache"

#: The paper's population: "over one million processors".
FLEET_SIZE = 1_000_000


@pytest.fixture(scope="session")
def library():
    return build_library()


@pytest.fixture(scope="session")
def catalog():
    return full_catalog()


@pytest.fixture(scope="session")
def fleet():
    return generate_fleet(FleetSpec(total_processors=FLEET_SIZE, seed=1))


@pytest.fixture(scope="session")
def campaign(fleet, library):
    """The 32-month staged test campaign over the full fleet."""
    return TestPipeline(fleet, library, seed=1).run()


_CORPUS_CTX = {}


def _corpus_init():
    # Build the (deterministic) catalog and library once per worker
    # process instead of pickling 27 processors per task.
    _CORPUS_CTX["catalog"] = full_catalog()
    _CORPUS_CTX["library"] = build_library()


def _corpus_task(processor_name):
    processor = _CORPUS_CTX["catalog"][processor_name]
    library = _CORPUS_CTX["library"]
    store = RecordStore()
    runner = ToolchainRunner(processor)
    for testcase in library:
        if runner.can_ever_fail(testcase):
            runner.run_at_fixed_temperature(testcase, 78.0, 900.0, store=store)
    return store


def _build_corpus_parallel(catalog):
    partial_stores = deterministic_map(
        _corpus_task,
        list(catalog),
        initializer=_corpus_init,
    )
    store = RecordStore()
    for partial in partial_stores:
        store.extend(partial.records)
        store.extend_consistency(partial.consistency_records)
    return store


@pytest.fixture(scope="session")
def catalog_corpus(catalog, library):
    """SDC records from generous hot runs over all 27 study CPUs.

    This is the §2.4 corpus ("more than ten thousand SDC records")
    every §4-§5 figure is computed from.  Per-CPU campaigns are
    independent (each runner has its own substream), so they run
    process-parallel; merging in catalog order keeps the corpus
    identical to a serial run.  The result is memoized on disk under
    ``benchmarks/.corpus_cache`` keyed by the catalog/library
    fingerprint, so later sessions load it instead of rebuilding.
    """
    cache = CorpusCache(CORPUS_CACHE_DIR)
    return cache.catalog_corpus(
        catalog, library, builder=lambda: _build_corpus_parallel(catalog)
    )


@pytest.fixture(scope="session")
def catalog_frame(catalog_corpus):
    """The corpus as a struct-of-arrays frame for columnar kernels."""
    return RecordFrame.from_store(catalog_corpus)


@pytest.fixture(scope="session")
def framework(library):
    return TestFramework(library)


def run_once(benchmark, func):
    """Benchmark a whole-experiment regeneration exactly once."""
    return benchmark.pedantic(func, rounds=1, iterations=1)

"""Golden digests of the toolchain's SDC records.

Every field of every SDC and consistency record, every run's
temperatures and every runner's RNG end state are hashed for two inputs
and compared with ``tests/fixtures/golden/records.json``:

* the 27-CPU catalog corpus (every testcase that can fail, 78 °C for
  900 s, seed 1), as e2ebench ``study`` builds it;
* lot 3 of e2ebench ``farron``'s delivery fleet (60k CPUs, failure-rate
  scale 40, fleet seed 0): its five faulty lanes and one healthy lane
  screened together on the batch engine in Farron's adequate round
  (600 s per testcase, burn-in to 80 °C, seed 1), and its third faulty
  lane (3,976 records) screened alone on the scalar framework.

A change that keeps every output leaves the file byte-identical.  A
change to the specification rewrites it with ``PYTHONPATH=src python
tests/integration/test_golden_records.py`` and names each moved digest.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.cpu import full_catalog
from repro.fleet import FleetSpec, generate_fleet
from repro.testing import (
    BatchScreeningEngine,
    ConsistencyRecord,
    SDCRecord,
    TestFramework,
    ToolchainRunner,
    build_library,
)

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "golden" / "records.json"

SEED = 1
CORPUS_TEMP_C = 78.0
CORPUS_DURATION_S = 900.0
DELIVERY_FLEET = FleetSpec(
    total_processors=60_000, failure_rate_scale=40.0, seed=0
)
LOT = 3
FAULTY_LANES = 5
PER_TESTCASE_S = 600.0
PREHEAT_C = 80.0
SCALAR_LANE = 2

_SDC_FIELDS = tuple(f.name for f in dataclasses.fields(SDCRecord))
_CONSISTENCY_FIELDS = tuple(
    f.name for f in dataclasses.fields(ConsistencyRecord)
)


def _text(record, names) -> bytes:
    return "|".join(
        [repr(getattr(record, name)) for name in names]
    ).encode() + b"\n"


class _Digest:
    """SHA-256 over one text line per run, record and RNG state."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.counts = {"runs": 0, "records": 0, "consistency_records": 0}

    def _line(self, *values) -> None:
        self._hash.update("|".join(map(repr, values)).encode() + b"\n")

    def records(self, records, consistency_records) -> None:
        update = self._hash.update
        for record in records:
            update(_text(record, _SDC_FIELDS))
        # A consistency burst repeats one record object: encode it once.
        last = line = None
        for record in consistency_records:
            if record is not last:
                last, line = record, _text(record, _CONSISTENCY_FIELDS)
            update(line)

    def run(self, run) -> None:
        self._line(
            "run", run.processor_id, run.testcase_id, run.duration_s,
            run.start_temp_c, run.end_temp_c, run.max_core_temp_c,
        )
        self.records(run.records, run.consistency_records)
        self.counts["runs"] += 1
        self.counts["records"] += len(run.records)
        self.counts["consistency_records"] += len(run.consistency_records)

    def store(self, store) -> None:
        self._line("store", len(store.records), len(store.consistency_records))
        self.records(store.records, store.consistency_records)

    def rng(self, runner) -> None:
        self._line(
            "rng",
            json.dumps(runner._rng.bit_generator.state, sort_keys=True),
        )

    def result(self, **extra) -> dict:
        return {**extra, **self.counts, "sha256": self._hash.hexdigest()}


def catalog_corpus_digest(library, catalog) -> dict:
    from repro.testing import RecordStore

    digest = _Digest()
    store = RecordStore()
    for name, processor in catalog.items():
        runner = ToolchainRunner(processor, seed=SEED)
        for testcase in library:
            if runner.can_ever_fail(testcase):
                digest.run(runner.run_at_fixed_temperature(
                    testcase, CORPUS_TEMP_C, CORPUS_DURATION_S, store=store
                ))
        digest.rng(runner)
    digest.store(store)
    return digest.result(cpus=len(catalog))


def delivery_lot(fleet) -> list:
    """Lot 3's computation-defect CPUs plus one healthy unit, as
    e2ebench ``farron``'s ``delivery_batch`` builds them."""
    computation = [
        cpu for cpu in fleet.faulty
        if not any(defect.is_consistency for defect in cpu.defects)
    ]
    faulty = computation[LOT * FAULTY_LANES:(LOT + 1) * FAULTY_LANES]
    healthy = dataclasses.replace(
        faulty[0], processor_id=f"H-{LOT:04d}-000", defects=()
    )
    return faulty + [healthy]


def _report_digest(digest, report) -> None:
    digest._line("report", report.processor_id, report.total_duration_s)
    for run in report.runs:
        digest.run(run)
    digest.store(report.store)


def delivery_lot_digests(library) -> dict:
    processors = delivery_lot(generate_fleet(DELIVERY_FLEET))
    framework = TestFramework(library, seed=SEED)
    plan = framework.equal_allocation_plan(PER_TESTCASE_S)
    plan.preheat_to_c = PREHEAT_C

    engine = BatchScreeningEngine(processors, plan, library, seed=SEED)
    batch = _Digest()
    for report, runner in zip(engine.run(), engine.runners):
        _report_digest(batch, report)
        batch.rng(runner)

    scalar = _Digest()
    lane = processors[SCALAR_LANE]
    runner = framework.runner_for(lane)
    _report_digest(scalar, framework.execute(plan, lane, runner))
    scalar.rng(runner)
    return {
        "farron_lot3_batch": batch.result(
            lanes=[p.processor_id for p in processors]
        ),
        "farron_lot3_scalar": scalar.result(lanes=[lane.processor_id]),
    }


def golden_text(library, catalog) -> str:
    document = {
        "catalog_corpus": catalog_corpus_digest(library, catalog),
        **delivery_lot_digests(library),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_record_digests_match_golden_file(library, catalog):
    assert golden_text(library, catalog) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(build_library(), full_catalog()))
    print(f"wrote {GOLDEN}")

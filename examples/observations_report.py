#!/usr/bin/env python3
"""One-call verification of the paper's observations.

Runs the fleet campaign and the catalog record corpus, then re-derives
Observations 1-11 programmatically and prints a verdict per claim
(Observation 12 is detector-level; see
``examples/detector_effectiveness.py``).
"""

import sys

from repro import build_library, full_catalog
from repro.analysis import build_catalog_corpus, check_all_observations
from repro.fleet import FleetSpec, TestPipeline, generate_fleet


def main(total: int = 300_000) -> int:
    library = build_library()
    catalog = full_catalog()
    print(f"generating fleet ({total:,} CPUs) and running the campaign ...")
    fleet = generate_fleet(FleetSpec(total_processors=total, seed=1))
    campaign = TestPipeline(fleet, library, seed=1).run()
    print("collecting the catalog SDC-record corpus ...")
    corpus = build_catalog_corpus(catalog, library)
    settings = {record.setting for record in corpus.records}
    settings.update(record.setting for record in corpus.consistency_records)
    print(f"  {len(corpus)} records from {len(settings)} settings\n")

    report = check_all_observations(
        fleet, campaign, catalog, library, corpus=corpus
    )
    for result in report:
        print(result.summary())
    holding = sum(1 for r in report if r.holds)
    print(f"\n{holding}/{len(report)} observations hold")
    return 0 if holding == len(report) else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 300_000))

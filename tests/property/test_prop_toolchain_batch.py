"""Property: batch screening is bit-identical to the scalar runner.

For random processor groups, random plans (testcase subsets, durations,
optional preheat, optional per-entry core pinning) and a random seed,
the struct-of-arrays engine must reproduce the scalar per-processor loop
exactly — every run field, every record, and each lane's RNG end state.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import full_catalog
from repro.testing import BatchScreeningEngine, TestFramework, TestPlan
from repro.testing.framework import PlanEntry


@pytest.fixture(scope="module")
def library():
    from repro.testing import build_library

    return build_library()


NAMES = sorted(full_catalog())


@st.composite
def screening_cases(draw):
    names = draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True)
    )
    plans = []
    for _ in names:
        entry_count = draw(st.integers(min_value=1, max_value=8))
        entries = []
        for _ in range(entry_count):
            index = draw(st.integers(min_value=0, max_value=632))
            duration = draw(
                st.floats(min_value=5.0, max_value=90.0, allow_nan=False)
            )
            cores = None
            if draw(st.booleans()):
                cores = tuple(
                    sorted(
                        draw(
                            st.sets(
                                st.integers(min_value=0, max_value=7),
                                min_size=1,
                                max_size=3,
                            )
                        )
                    )
                )
            entries.append((index, duration, cores))
        preheat = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=55.0, max_value=88.0, allow_nan=False),
            )
        )
        plans.append((entries, preheat))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return names, plans, seed


@settings(max_examples=12, deadline=None)
@given(case=screening_cases())
def test_random_plans_bit_identical(library, case):
    names, raw_plans, seed = case
    catalog = full_catalog()
    processors = [catalog[name] for name in names]
    ids = [tc.testcase_id for tc in library]
    plans = []
    for entries, preheat in raw_plans:
        plans.append(
            TestPlan(
                entries=[
                    PlanEntry(ids[index], duration, cores=cores)
                    for index, duration, cores in entries
                ],
                preheat_to_c=preheat,
            )
        )
    scalar_reports, scalar_states = [], []
    framework = TestFramework(library, seed=seed)
    for processor, plan in zip(processors, plans):
        runner = framework.runner_for(processor)
        scalar_reports.append(framework.execute(plan, processor, runner=runner))
        scalar_states.append(runner._rng.bit_generator.state)
    engine = BatchScreeningEngine(processors, plans, library, seed=seed)
    batch_reports = engine.run()
    for scalar, batch, runner, state in zip(
        scalar_reports, batch_reports, engine.runners, scalar_states
    ):
        assert scalar.total_duration_s == batch.total_duration_s
        assert [dataclasses.asdict(run) for run in scalar.runs] == [
            dataclasses.asdict(run) for run in batch.runs
        ]
        assert scalar.store.records == batch.store.records
        assert (
            scalar.store.consistency_records
            == batch.store.consistency_records
        )
        assert runner._rng.bit_generator.state == state

"""Property: the batch thermal model is bit-identical to the scalar model.

Lane by lane and bit for bit, :class:`BatchPackageThermalModel` must
track one :class:`PackageThermalModel` per lane: catalog architectures
with mixed core counts, a cooling factor other than 1, dt vectors with
idle lanes and with steps that are not multiples of the 2 s substep, a
vector repeated several times and then changed (the model reuses its
substep schedule while the vector stays the same), and powers that
change between calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import ARCHITECTURES
from repro.thermal import (
    BatchPackageThermalModel,
    PackageThermalModel,
    ThermalParams,
)

ARCHS = [ARCHITECTURES[name] for name in sorted(ARCHITECTURES)]
PARAMS = ThermalParams()
MAX_SUBSTEP = min(PARAMS.c_core * PARAMS.r_core, 2.0)

dt_values = st.one_of(
    st.sampled_from([0.0, 0.7, 2.0, 5.0, 7.5, 10.0]),
    st.floats(min_value=0.0, max_value=25.0),
)


def scalar_substeps(dt_s):
    """How many substeps ``PackageThermalModel.step(dt_s)`` takes."""
    count = 0
    while dt_s > 1e-12:
        dt_s -= min(dt_s, MAX_SUBSTEP)
        count += 1
    return count


@st.composite
def thermal_cases(draw):
    archs = draw(
        st.lists(st.sampled_from(ARCHS), min_size=2, max_size=5).filter(
            lambda archs: len({arch.physical_cores for arch in archs}) > 1
        )
    )
    cooling = draw(st.sampled_from([0.55, 0.8, 1.25, 1.7]))
    lanes = len(archs)
    vectors = draw(
        st.lists(
            st.one_of(
                st.tuples(*[dt_values] * lanes),
                dt_values.map(lambda dt: (dt,) * lanes),
            ),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    calls = []
    for index, vector in enumerate(vectors):
        # The first vector always repeats before the next one replaces it.
        repeats = draw(st.integers(2 if index == 0 else 1, 4))
        for _ in range(repeats):
            loads = []
            for arch in archs:
                utilization = draw(st.floats(min_value=0.0, max_value=1.0))
                heat = draw(st.floats(min_value=0.0, max_value=1.6))
                cores = draw(
                    st.sets(st.integers(0, arch.physical_cores - 1))
                )
                loads.append({core: (utilization, heat) for core in cores})
            calls.append((vector, loads))
    return archs, cooling, calls


@settings(max_examples=40, deadline=None)
@given(case=thermal_cases())
def test_batch_steps_match_scalar_models_bit_for_bit(case):
    archs, cooling, calls = case
    batch = BatchPackageThermalModel(archs, cooling_factor=cooling)
    scalars = [
        PackageThermalModel(arch, cooling_factor=cooling) for arch in archs
    ]
    for vector, loads in calls:
        powers = np.zeros((len(archs), batch.max_cores))
        for lane, (scalar, lane_loads) in enumerate(zip(scalars, loads)):
            for core, (utilization, heat) in lane_loads.items():
                powers[lane, core] = scalar._core_power(utilization, heat)
        before = batch.substeps
        if len(set(vector)) == 1 and vector[0] > 0.0:
            batch.step(vector[0], batch.drive(powers))
        else:
            batch.step_lanewise(np.array(vector), batch.drive(powers))
        assert batch.substeps - before == max(map(scalar_substeps, vector))
        for scalar, dt_s, lane_loads in zip(scalars, vector, loads):
            if dt_s > 0.0:
                scalar.step(dt_s, lane_loads)
        for (t_package, deltas), scalar in zip(batch.lane_states(), scalars):
            assert t_package == scalar.package_temp
            assert deltas == scalar._deltas

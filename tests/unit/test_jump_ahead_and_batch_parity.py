"""O(1) stream jump-ahead and the batch thermal / batch online
engines' bit parity with their scalar references.

``CountedStream.fast_forward``/``reset_to`` carry checkpoint restore and
shard retries; the batch models must match the scalar models bit for
bit.
"""

import numpy as np
import pytest

from repro.core import ApplicationProfile, simulate_online, simulate_online_batch
from repro.core.farron import Farron
from repro.cpu import Feature
from repro.errors import ConfigurationError
from repro.rng import CountedStream, substream
from repro.thermal import BatchPackageThermalModel, PackageThermalModel


# ---------------------------------------------------------------------------
# O(1) jump-ahead
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("skip", [0, 1, 5, 255, 256, 257, 1_000, 40_000])
def test_fast_forward_equals_replay(skip):
    jumped = CountedStream(5, "pipeline", block=256)
    replayed = CountedStream(5, "pipeline", block=256)
    for _ in range(7):  # leave both mid-buffer
        assert jumped.draw() == replayed.draw()
    jumped.fast_forward(skip)
    for _ in range(skip):
        replayed.draw()
    assert jumped.consumed == replayed.consumed == 7 + skip
    assert jumped.draw_many(300) == replayed.draw_many(300)


def test_fast_forward_is_constant_time_not_replay():
    """A jump far beyond any replayable horizon matches the closed form."""
    position = 10**15  # ~11 days of draws at 1e9/s: replay is impossible
    stream = CountedStream(3, "pipeline")
    stream.fast_forward(position)
    raw = substream(3, "pipeline")
    raw.bit_generator.advance(position)  # numpy's reference jump
    reference = raw.random()
    assert stream.draw() == reference
    # Jumps compose: ff(a); ff(b) lands where ff(a + b) does.
    split = CountedStream(3, "pipeline")
    split.fast_forward(position - 12_345)
    split.fast_forward(12_345)
    assert split.consumed == position
    assert split.draw() == reference


def test_reset_to_rewinds_and_replays_exactly():
    stream = CountedStream(8, "pipeline", block=128)
    first = stream.draw_many(500)
    stream.fast_forward(1_000)
    tail = stream.draw_many(50)
    stream.reset_to(200)
    assert stream.draw_many(300) == first[200:500]
    stream.reset_to(1_500)
    assert stream.draw_many(50) == tail


# ---------------------------------------------------------------------------
# batch thermal / batch online parity
# ---------------------------------------------------------------------------


def test_batch_thermal_bit_identical_to_scalar(catalog):
    processors = [catalog[name] for name in ("MIX1", "SIMD1", "FPU2", "CNST1")]
    archs = [p.arch for p in processors]
    batch = BatchPackageThermalModel(archs)
    scalars = [PackageThermalModel(arch) for arch in archs]
    utils = [0.2, 0.9, 0.55, 1.0]
    heats = [1.0, 1.6, 0.8, 1.2]
    for step in range(25):
        dt = 5.0 if step % 3 else 0.7  # exercise the substep loop
        powers = batch.core_powers(np.array(utils), np.array(heats))
        batch.step(dt, batch.drive(powers))
        for lane, scalar in enumerate(scalars):
            scalar.step(
                dt,
                {
                    c: (utils[lane], heats[lane])
                    for c in range(archs[lane].physical_cores)
                },
            )
        utils = [(u * 7919) % 1.0 for u in utils]  # vary the load
    temps = batch.core_temps()
    for lane, scalar in enumerate(scalars):
        assert batch.t_package[lane] == scalar.package_temp
        assert temps[lane, : archs[lane].physical_cores].tolist() == (
            scalar.core_temps()
        )


def _online_apps(processors):
    apps = []
    for i, processor in enumerate(processors):
        usage = {}
        for defect in processor.defects:
            for mnemonic in defect.instructions:
                usage[mnemonic] = 7.0e5 + 1.0e5 * (i % 3)
        apps.append(ApplicationProfile(
            name=f"lane{i}",
            features=frozenset({Feature.VECTOR, Feature.FPU}),
            instruction_usage=usage,
            heat_factor=1.0 + 0.3 * (i % 2),
            spike_period_s=900.0 if i % 2 else 0.0,
            spike_duration_s=60.0,
            consistency_ops_per_s=8.0e5 if i % 3 == 0 else 0.0,
        ))
    return apps


@pytest.mark.parametrize("protected", [True, False])
def test_simulate_online_batch_bit_identical(catalog, library, protected):
    names = ("MIX1", "MIX2", "SIMD1", "FPU1", "CNST1", "CNST2")
    processors = [catalog[name] for name in names]
    apps = _online_apps(processors)
    scalar = [
        simulate_online(
            p, a, hours=1.0, protected=protected, farron=Farron(library),
            dt_s=5.0, seed=3,
        )
        for p, a in zip(processors, apps)
    ]
    batch = simulate_online_batch(
        processors, apps, hours=1.0, protected=protected, library=library,
        dt_s=5.0, seed=3,
    )
    assert len(batch) == len(scalar)
    for s, b in zip(scalar, batch):
        assert (s.processor_id, s.app_name, s.protected, s.hours) == (
            b.processor_id, b.app_name, b.protected, b.hours
        )
        assert s.sdc_count == b.sdc_count
        assert s.backoff_seconds == b.backoff_seconds
        assert s.final_boundary_c == b.final_boundary_c
        assert s.max_temp_c == b.max_temp_c
    if protected:
        assert any(s.final_boundary_c > 50.0 for s in scalar), (
            "boundary adaptation must actually engage"
        )


def test_simulate_online_batch_cooling_falls_back_to_scalar(catalog, library):
    processors = [catalog["MIX1"], catalog["FPU2"]]
    apps = _online_apps(processors)
    batch = simulate_online_batch(
        processors, apps, hours=0.25, protected=True, library=library,
        dt_s=5.0, seed=1, control="cooling",
    )
    scalar = [
        simulate_online(
            p, a, hours=0.25, protected=True, farron=Farron(library),
            dt_s=5.0, seed=1, control="cooling",
        )
        for p, a in zip(processors, apps)
    ]
    for s, b in zip(scalar, batch):
        assert s.sdc_count == b.sdc_count
        assert s.max_temp_c == b.max_temp_c


def test_simulate_online_batch_validation(catalog, library):
    mix1 = catalog["MIX1"]
    (app,) = _online_apps([mix1])
    assert simulate_online_batch([], [], library=library) == []
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [], library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app], hours=-1.0, library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app], dt_s=0.0, library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app], control="magic", library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app])  # neither farron nor library

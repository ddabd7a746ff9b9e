"""Chaos acceptance: campaigns survive real harness faults.

The invariant under test: a campaign whose process dies, or whose
newest snapshots are torn or bit-rotted, produces a
:class:`FleetStudyResult` **bit-identical** to the fault-free run at
the same seed, and the health report names every snapshot it skipped
and every resume.  The tests damage snapshots on disk themselves,
between ``step()`` calls (:mod:`tests.chaos.damage`).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import CheckpointError, ConfigurationError
from repro.fleet import FleetSpec, TestPipeline, generate_fleet
from repro.resilience import (
    CampaignHealthReport,
    CampaignSpec,
    CheckpointStore,
    ResilientCampaign,
    read_checkpoint,
)

from .damage import damage, draw_schedule
from .killpoints import KILL_EXIT_CODE

REPO = Path(__file__).resolve().parents[2]

#: 10k-CPU acceptance fleet; the scale multiplier gives ~200 faulty
#: CPUs so shards, snapshots and damage all have something to chew on.
SPEC = CampaignSpec(
    total_processors=10_000,
    fleet_seed=7,
    pipeline_seed=11,
    failure_rate_scale=60.0,
    shard_size=32,
)


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetSpec(
            total_processors=SPEC.total_processors,
            seed=SPEC.fleet_seed,
            failure_rate_scale=SPEC.failure_rate_scale,
        )
    )


@pytest.fixture(scope="module")
def baseline(fleet, library):
    """The fault-free ground truth: one uninterrupted scalar run."""
    return TestPipeline(fleet, library, seed=SPEC.pipeline_seed).run()


def assert_bit_identical(result, baseline):
    assert result.detections == baseline.detections
    assert result.undetected_ids == baseline.undetected_ids
    assert result.population_total == baseline.population_total


def test_fault_free_campaign_matches_pipeline(fleet, library, baseline, tmp_path):
    store = CheckpointStore(tmp_path)
    campaign = ResilientCampaign(
        fleet, library, spec=SPEC, seed=SPEC.pipeline_seed,
        shard_size=SPEC.shard_size, checkpoint_store=store,
    )
    assert_bit_identical(campaign.run(), baseline)
    assert campaign.health.checkpoints_written >= 1
    assert campaign.health.count("checkpoint_fallback") == 0
    assert store.paths(), "snapshots must be on disk"


#: ``repro fleet-study`` arguments for a ~30-faulty-CPU study in 4-CPU
#: shards, and the spec the CLI builds from them.
STUDY_ARGS = ["--size", "100000", "--seed", "3", "--shard-size", "4"]
STUDY_SPEC = CampaignSpec(
    total_processors=100_000, fleet_seed=3, pipeline_seed=3, shard_size=4
)

#: A campaign process that snapshots after every shard, has its last
#: snapshot torn and then bit-rotted, and dies as SIGKILL leaves it:
#: no atexit handlers, no flushes.
CRASHING_CHILD = """
import json, os, sys
import numpy as np
from repro.resilience import CampaignSpec, CheckpointStore, ResilientCampaign
from repro.testing import build_library
from tests.chaos.damage import DAMAGE_KINDS, damage
from tests.chaos.killpoints import KILL_EXIT_CODE

directory, spec, shards = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = CheckpointStore(directory)
campaign = ResilientCampaign.from_spec(
    CampaignSpec.from_dict(json.loads(spec)), build_library(),
    checkpoint_store=store, checkpoint_every=1,
)
for _ in range(shards):
    assert campaign.step(), "the death must come mid-campaign"
rng = np.random.default_rng(5)
for kind in DAMAGE_KINDS:
    damage(store.paths()[-1], kind, rng)
os._exit(KILL_EXIT_CODE)
"""


def test_acceptance_chaos_campaign_bit_identical(tmp_path, capsys):
    """A real process death right after the newest snapshot was torn
    and bit-rotted: ``repro resume`` falls back past it and prints
    exactly the tables of an uninterrupted ``repro fleet-study``."""
    shards = 4
    child = subprocess.run(
        [
            sys.executable, "-c", CRASHING_CHILD, str(tmp_path),
            json.dumps(STUDY_SPEC.to_dict()), str(shards),
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == KILL_EXIT_CODE, child.stderr
    store = CheckpointStore(tmp_path)
    with pytest.raises(CheckpointError):
        read_checkpoint(store.paths()[-1])
    fallback = store.load_latest()
    assert fallback["cursor"] == (shards - 1) * STUDY_SPEC.shard_size

    assert main(["fleet-study", *STUDY_ARGS]) == 0
    uninterrupted = capsys.readouterr().out
    assert main(["resume", str(tmp_path)]) == 0
    resumed = capsys.readouterr().out
    assert "Table 1" in uninterrupted
    assert resumed == uninterrupted

    final = store.load_latest()
    assert final["spec"] == STUDY_SPEC.to_dict()
    health = CampaignHealthReport.from_dict(final["health"])
    assert health.count("checkpoint_fallback") == 1  # the damaged snapshot
    assert health.resumes == 1


@pytest.mark.parametrize("chaos_seed", [101, 202, 303])
def test_seeded_chaos_matrix(library, baseline, tmp_path, chaos_seed):
    """CI's fixed seed matrix: a seeded schedule tears and bit-rots
    snapshots, and the campaign dies right after each damaged one and
    halfway through.  Each time it is reopened from disk, as the daemon
    reopens a job, past the damaged snapshots or from scratch.  Each
    fault lands once, like a real one that does not recur when the
    reopened campaign re-runs its shard."""
    faulty = len(baseline.detections) + len(baseline.undetected_ids)
    shard_count = -(-faulty // SPEC.shard_size)
    schedule = draw_schedule(chaos_seed, shard_count, rate=0.3)
    deaths = set(schedule) | {shard_count // 2}
    rng = np.random.default_rng(chaos_seed)
    store = CheckpointStore(tmp_path)
    campaign = ResilientCampaign.from_spec(
        SPEC, library, checkpoint_store=store, checkpoint_every=1,
    )
    hit, damaged = set(), set()
    skipped = resumes = 0
    while not campaign.done:
        shard = campaign.cursor // SPEC.shard_size
        campaign.step()
        if shard in hit:
            continue
        hit.add(shard)
        for kind in schedule.get(shard, ()):
            damage(store.paths()[-1], kind, rng)
            damaged.add(store.paths()[-1].name)
        if shard not in deaths:
            continue
        retained = [path.name for path in reversed(store.paths())]
        unusable = 0
        while unusable < len(retained) and retained[unusable] in damaged:
            unusable += 1
        fallbacks = CampaignHealthReport()
        payload = store.load_latest(fallbacks)
        assert fallbacks.count("checkpoint_fallback") == unusable
        if payload is None:
            # Every retained snapshot is damaged: there is nothing to
            # resume, and the campaign starts over.
            assert unusable == len(retained)
            with pytest.raises(ConfigurationError, match="no usable"):
                ResilientCampaign.resume(store, library)
        skipped += unusable
        resumes += payload is not None
        campaign = ResilientCampaign.open(
            library, payload, fallbacks, spec=SPEC, checkpoint_store=store,
            checkpoint_every=1, health=campaign.health,
        )
    assert_bit_identical(campaign.result, baseline)
    assert hit == set(range(shard_count))
    assert skipped >= len(schedule) > 0
    assert campaign.health.count("checkpoint_fallback") == skipped
    assert campaign.health.resumes == resumes


def test_resume_requires_checkpoint(library, tmp_path):
    with pytest.raises(ConfigurationError, match="no usable checkpoint"):
        ResilientCampaign.resume(CheckpointStore(tmp_path), library)

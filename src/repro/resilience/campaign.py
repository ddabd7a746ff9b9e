"""Resilient fleet-campaign execution: shards and snapshots.

:class:`ResilientCampaign` runs the vectorized
:class:`~repro.fleet.vectorized.VectorizedTestPipeline` as a loop that
a production deployment could actually run for 32 months:

* the faulty population is processed in **shards** (contiguous CPU
  ranges), the granule a host interleaves with its own checks and the
  natural checkpoint boundary;
* after every ``checkpoint_every`` shards the full campaign state —
  stage cursor, partial detections, and the **exact draw position** of
  the pipeline's Bernoulli substream — is snapshotted through
  :mod:`repro.resilience.checkpoint`;
* every injected fault, snapshot, snapshot fallback and resume lands
  in a :class:`~repro.resilience.health.CampaignHealthReport`.

Because checkpoints record the counted stream's exact position, a
campaign whose process dies and which resumes from its newest usable
snapshot produces a :class:`~repro.fleet.pipeline.FleetStudyResult`
**bit-identical** to an uninterrupted run at the same seed — the
invariant the chaos suite (``tests/chaos/``) enforces.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import Dict, Optional

from ..obs.context import observed_sleep, span
from ..obs.procmem import record_memory
from ..errors import ConfigurationError
from ..fleet.frame import generate_fleet
from ..fleet.pipeline import Detection, FleetStudyResult, PipelineConfig
from ..fleet.population import FleetPopulation, FleetSpec
from ..fleet.vectorized import VectorizedTestPipeline
from ..testing.library import TestcaseLibrary
from .chaos import ChaosInjector
from .checkpoint import CheckpointStore
from .health import (
    KIND_CHECKPOINT,
    KIND_FAULT,
    KIND_RESUME,
    CampaignHealthReport,
)

__all__ = ["CampaignSpec", "ResilientCampaign"]


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to rebuild a campaign in a fresh process.

    Checkpoints embed this spec, so ``repro resume <dir>`` can
    regenerate the identical population and library without the caller
    re-supplying them.  The shard size is the checkpoint granule; a
    shard builds no Processor (see :class:`~repro.fleet.frame.FleetFrame`).
    """

    total_processors: int
    fleet_seed: int = 1
    pipeline_seed: int = 11
    failure_rate_scale: float = 1.0
    escape_fraction: float = 0.05
    shard_size: int = 256

    def __post_init__(self) -> None:
        if self.total_processors <= 0:
            raise ConfigurationError("total_processors must be positive")
        if self.shard_size <= 0:
            raise ConfigurationError("shard_size must be positive")

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_processors": self.total_processors,
            "fleet_seed": self.fleet_seed,
            "pipeline_seed": self.pipeline_seed,
            "failure_rate_scale": self.failure_rate_scale,
            "escape_fraction": self.escape_fraction,
            "shard_size": self.shard_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Build a spec from checkpoint data, tolerating older payloads.

        Fields absent from ``data`` fall back to their dataclass
        defaults, so checkpoints written before a field existed still
        resume (the default is, by construction, the behaviour those
        campaigns had).  Required fields stay required.  Retired keys
        are ignored: every campaign now starts on the vectorized engine
        over a frame-backed population, and the engines are
        bit-identical.  Any other unknown key is an error.
        """
        retired = {"engine", "max_resident_cpus"}
        names = {spec_field.name for spec_field in dataclass_fields(cls)}
        unknown = set(data) - names - retired
        if unknown:
            raise ConfigurationError(
                f"campaign spec has unknown fields: {sorted(unknown)}"
            )
        kwargs: Dict[str, object] = {}
        for spec_field in dataclass_fields(cls):
            if spec_field.name in data:
                kwargs[spec_field.name] = data[spec_field.name]
            elif (
                spec_field.default is MISSING
                and spec_field.default_factory is MISSING
            ):
                raise ConfigurationError(
                    f"campaign spec is missing field {spec_field.name!r}"
                )
        return cls(**kwargs)

    def build_population(self) -> FleetPopulation:
        return generate_fleet(
            FleetSpec(
                total_processors=self.total_processors,
                seed=self.fleet_seed,
                failure_rate_scale=self.failure_rate_scale,
                escape_fraction=self.escape_fraction,
            )
        )


class ResilientCampaign:
    """One sharded, checkpointed fleet campaign."""

    def __init__(
        self,
        population: FleetPopulation,
        library: TestcaseLibrary,
        *,
        spec: Optional[CampaignSpec] = None,
        config: Optional[PipelineConfig] = None,
        seed: int = 11,
        shard_size: int = 256,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 1,
        chaos: Optional[ChaosInjector] = None,
        health: Optional[CampaignHealthReport] = None,
        obs=None,
    ):
        if shard_size <= 0:
            raise ConfigurationError("shard_size must be positive")
        if checkpoint_every <= 0:
            raise ConfigurationError("checkpoint_every must be positive")
        self.population = population
        self.library = library
        self.spec = spec
        self.shard_size = shard_size
        self.store = checkpoint_store
        self.checkpoint_every = checkpoint_every
        self.chaos = chaos
        self.health = health if health is not None else CampaignHealthReport()
        self.obs = obs
        if obs is not None:
            # Bridge health into the telemetry stream: every event it
            # records, injected faults included, is counted and traced.
            self.health.observer = obs
        # The engine records each shard's range metrics itself.
        self._vectorized = VectorizedTestPipeline(
            population, library, config, None, seed, obs=obs
        )
        self._stream = self._vectorized._scalar._stream
        self._cursor = 0
        self._shards_since_checkpoint = 0
        self.result = FleetStudyResult(
            population_total=population.total,
            arch_counts=dict(population.arch_counts),
        )

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_spec(cls, spec: CampaignSpec, library: TestcaseLibrary, **kwargs):
        """A fresh campaign for ``spec`` (see :meth:`open`)."""
        return cls.open(library, None, None, spec=spec, **kwargs)

    @classmethod
    def resume(
        cls, store: CheckpointStore, library: TestcaseLibrary, **kwargs
    ) -> "ResilientCampaign":
        """Rebuild a campaign from the newest usable snapshot.

        The CLI path rebuilds everything from the embedded spec; see
        :meth:`open` for the keyword arguments.  Raises
        :class:`ConfigurationError` when no usable snapshot exists.
        """
        fallbacks = CampaignHealthReport()
        payload = store.load_latest(fallbacks)
        if payload is None:
            raise ConfigurationError(
                f"no usable checkpoint in {store.directory}"
            )
        return cls.open(
            library, payload, fallbacks, checkpoint_store=store, **kwargs
        )

    @classmethod
    def open(
        cls,
        library: TestcaseLibrary,
        payload: Optional[Dict[str, object]],
        fallbacks: Optional[CampaignHealthReport],
        *,
        spec: Optional[CampaignSpec] = None,
        population: Optional[FleetPopulation] = None,
        health: Optional[CampaignHealthReport] = None,
        **kwargs,
    ) -> "ResilientCampaign":
        """The one path from a spec or snapshot to a campaign: fresh when
        ``payload`` is None, else restored from that snapshot payload
        (``fallbacks`` holds the corrupt snapshots skipped to reach it).
        A host that resumes or starts a campaign passes the one
        ``CheckpointStore.load_latest`` result it already holds.

        The spec (given, or embedded in the snapshot) supplies shard
        size and pipeline seed unless ``kwargs`` name them, and
        the population unless the caller still holds it.  Without
        ``health``, a restored campaign continues the history the
        snapshot carries.
        """
        saved = payload.get("spec") if payload is not None else None
        if saved is not None:
            # Normalize through from_dict so a checkpoint written before
            # a (defaulted) spec field existed still compares equal to
            # the equivalent modern spec.
            saved_spec = CampaignSpec.from_dict(
                saved  # type: ignore[arg-type]
            )
            if spec is None:
                spec = saved_spec
            elif spec.to_dict() != saved_spec.to_dict():
                raise ConfigurationError(
                    "checkpoint was written by a campaign with a different "
                    f"spec: {saved_spec.to_dict()!r} != {spec.to_dict()!r}"
                )
        if payload is not None and health is None:
            health = CampaignHealthReport.from_dict(
                payload.get("health", {"events": []})  # type: ignore[arg-type]
            )
        if spec is not None:
            kwargs.setdefault("shard_size", spec.shard_size)
            kwargs.setdefault("seed", spec.pipeline_seed)
            if population is None:
                population = spec.build_population()
        elif population is None:
            raise ConfigurationError(
                "checkpoint embeds no spec; pass population= explicitly"
            )
        campaign = cls(population, library, spec=spec, health=health, **kwargs)
        if fallbacks is not None:
            # Skipped snapshots are recorded whether a usable one was
            # found or the campaign starts over because none was.
            for event in fallbacks.events:
                campaign.health.record(
                    event.kind, event.detail, shard=event.shard
                )
        if payload is not None:
            campaign._restore(payload)
        return campaign

    def _restore(self, payload: Dict[str, object]) -> None:
        faulty_count = len(self.population.faulty)
        cursor = payload.get("cursor")
        draws = payload.get("draws")
        if (
            not isinstance(cursor, int)
            or not isinstance(draws, int)
            or not 0 <= cursor <= faulty_count
            or draws < 0
        ):
            raise ConfigurationError(
                f"checkpoint cursor/draws {cursor!r}/{draws!r} do not fit a "
                f"population of {faulty_count} faulty CPUs"
            )
        if payload.get("population_total") != self.population.total:
            raise ConfigurationError(
                "checkpoint was written for a different population "
                f"({payload.get('population_total')!r} processors, have "
                f"{self.population.total})"
            )
        self._cursor = cursor
        self._stream.reset_to(draws)
        if self.obs is not None:
            self.obs.inc("repro_checkpoint_total", op="load")
        self.result.detections = [
            Detection.from_row(row) for row in payload.get("detections", [])
        ]
        self.result.undetected_ids = list(payload.get("undetected", []))
        self.health.record(
            KIND_RESUME,
            f"resumed at cursor {cursor} ({draws} draws consumed)",
            shard=cursor // self.shard_size,
        )

    # -- checkpointing ------------------------------------------------------

    def _payload(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "cursor": self._cursor,
            "draws": self._stream.consumed,
            "population_total": self.population.total,
            "arch_counts": dict(self.population.arch_counts),
            "detections": [d.to_row() for d in self.result.detections],
            "undetected": list(self.result.undetected_ids),
            "health": self.health.to_dict(),
        }

    def _checkpoint(self, shard: int) -> None:
        if self.store is None:
            return
        self.health.record(
            KIND_CHECKPOINT,
            f"cursor {self._cursor}, {self._stream.consumed} draws",
            shard=shard,
        )
        with span(
            self.obs, "checkpoint.save",
            shard=shard, cursor=self._cursor, draws=self._stream.consumed,
        ):
            path = self.store.save(self._payload())
        if self.obs is not None:
            self.obs.inc("repro_checkpoint_total", op="save")
        if self.chaos is not None:
            self.chaos.visit("checkpoint_done")
            for kind in ("torn_checkpoint", "corrupt_byte"):
                if self._injects(shard, kind):
                    self.chaos.damage(path, kind)

    def _injects(self, shard: int, kind: str) -> bool:
        """Whether the chaos schedule fires ``kind`` on ``shard`` now;
        the one place a fired fault is recorded."""
        if self.chaos is None or not self.chaos.fires(shard, kind):
            return False
        self.health.record(KIND_FAULT, f"injected {kind}", shard=shard)
        return True

    # -- execution ----------------------------------------------------------

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def done(self) -> bool:
        return self._cursor >= len(self.population.faulty)

    def _execute_shard(self, start: int, stop: int, shard: int) -> FleetStudyResult:
        """One shard on the vectorized engine, after any chaos delay."""
        shard_result = FleetStudyResult(
            population_total=self.population.total,
            arch_counts=dict(self.population.arch_counts),
        )
        with span(
            self.obs, "campaign.shard", shard=shard, start=start, stop=stop,
        ):
            if self._injects(shard, "delay"):
                observed_sleep(self.obs, self.chaos.delay_s, "chaos_delay")
            self._vectorized.run_range(start, stop, shard_result)
        return shard_result

    def step(self) -> bool:
        """Execute exactly one shard and apply the checkpoint policy;
        returns True while faulty CPUs remain.

        This is the granule a long-running host (the ``repro serve``
        scheduler) interleaves with drain checks: between any two steps
        the campaign can be checkpointed with :meth:`checkpoint_now`
        and abandoned, and a later resume is bit-identical.
        """
        faulty_count = len(self.population.faulty)
        if self._cursor >= faulty_count:
            return False
        start = self._cursor
        stop = min(start + self.shard_size, faulty_count)
        shard = start // self.shard_size
        shard_result = self._execute_shard(start, stop, shard)
        self.result.detections.extend(shard_result.detections)
        self.result.undetected_ids.extend(shard_result.undetected_ids)
        self._cursor = stop
        self._shards_since_checkpoint += 1
        if (
            self._shards_since_checkpoint >= self.checkpoint_every
            or self._cursor >= faulty_count
        ):
            self._checkpoint(shard)
            self._shards_since_checkpoint = 0
        if self.chaos is not None:
            self.chaos.visit("shard_done")
        return self._cursor < faulty_count

    def checkpoint_now(self) -> None:
        """Snapshot immediately if any shard landed since the last one.

        The graceful-drain path: a daemon stopping mid-campaign
        checkpoints the exact cursor/draw position so the next boot
        resumes without redoing (or double-counting) any shard.  A
        no-op when the newest snapshot is already current or no store
        is attached.
        """
        if self.store is None or self._shards_since_checkpoint == 0:
            return
        self._checkpoint(max(0, (self._cursor - 1) // self.shard_size))
        self._shards_since_checkpoint = 0

    def run(self) -> FleetStudyResult:
        """Run to completion, checkpointing; returns the study result.

        A process that dies mid-run leaves its snapshots behind, and
        ``repro resume`` (or :meth:`resume`) continues from the newest
        usable one.
        """
        with span(
            self.obs, "campaign.run",
            cursor=self._cursor, faulty=len(self.population.faulty),
        ):
            while self.step():
                pass
            # Final RSS stamp so one-shot CLI runs leave their peak on
            # record.  Under the daemon, /metrics also refreshes both
            # RSS gauges each time it is read.
            record_memory(self.obs)
        return self.result


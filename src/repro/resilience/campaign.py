"""Resilient fleet-campaign execution: shards, snapshots, degradation.

:class:`ResilientCampaign` wraps the scalar
:class:`~repro.fleet.pipeline.TestPipeline` and the vectorized
:class:`~repro.fleet.vectorized.VectorizedTestPipeline` behind one
supervised loop that a production deployment could actually run for 32
months:

* the faulty population is processed in **shards** (contiguous CPU
  ranges) so there is a natural retry/degradation/checkpoint boundary;
* after every ``checkpoint_every`` shards the full campaign state —
  stage cursor, partial detections, and the **exact draw position** of
  the pipeline's Bernoulli substream — is snapshotted through
  :mod:`repro.resilience.checkpoint`;
* every shard starts on the vectorized engine; a shard that fails
  transiently is retried with exponential backoff, and a shard whose
  parity check trips (the chaos ``parity_trip`` fault) is **degraded**
  to the scalar engine (whose output is the ground truth by
  construction);
* every fault, retry, degradation, and snapshot lands in a
  :class:`~repro.resilience.health.CampaignHealthReport`.

Because both engines consume the same counted stream and checkpoints
record its exact position, a campaign that crashes, resumes, retries,
and degrades produces a :class:`~repro.fleet.pipeline.FleetStudyResult`
**bit-identical** to an uninterrupted run at the same seed — the
invariant the chaos suite (``tests/chaos/``) enforces.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import Dict, Optional, Tuple

from ..core.backoff import ExponentialBackoff
from ..obs.context import observed_sleep, span
from ..obs.procmem import record_memory
from ..errors import (
    CampaignAbortedError,
    ConfigurationError,
    ParityDegradedError,
    TransientWorkerError,
)
from ..fleet.frame import generate_fleet
from ..fleet.pipeline import (
    Detection,
    FleetStudyResult,
    PipelineConfig,
    record_range_metrics,
)
from ..fleet.population import FleetPopulation, FleetSpec
from ..fleet.vectorized import VectorizedTestPipeline
from ..testing.library import TestcaseLibrary
from .chaos import ChaosInjector, InjectedKillError
from .checkpoint import CheckpointStore
from .health import (
    KIND_CHECKPOINT,
    KIND_DEGRADATION,
    KIND_FAULT,
    KIND_RESUME,
    KIND_RETRY,
    CampaignHealthReport,
)

__all__ = [
    "CampaignSpec",
    "CampaignSupervisor",
    "ResilientCampaign",
    "run_resilient_campaign",
]

#: Transient failures one shard may retry before the campaign aborts.
MAX_SHARD_RETRIES = 3


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to rebuild a campaign in a fresh process.

    Checkpoints embed this spec, so ``repro resume <dir>`` can
    regenerate the identical population and library without the caller
    re-supplying them.  The shard size is also the range a shard
    degraded to the scalar oracle builds as Processors; the vectorized
    engine builds none (see :class:`~repro.fleet.frame.FleetFrame`).
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
    """One supervised, checkpointed, degradable fleet campaign."""

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
        retry_backoff: Optional[ExponentialBackoff] = None,
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
        self.retry_backoff = retry_backoff or ExponentialBackoff(
            base_s=0.05, cap_s=1.0, seed=seed
        )
        # One vectorized engine; its embedded scalar engine shares the
        # counted pipeline stream, so either can execute any shard.
        # Neither engine gets ``obs``: a shard's range metrics are
        # recorded once, for the attempt the ladder accepts.
        self._vectorized = VectorizedTestPipeline(
            population, library, config, None, seed
        )
        self._scalar = self._vectorized._scalar
        self._stream = self._scalar._stream
        self._cursor = 0
        self._shards_since_checkpoint = 0
        self.result = FleetStudyResult(
            population_total=population.total,
            arch_counts=dict(population.arch_counts),
        )

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_spec(cls, spec: CampaignSpec, library: TestcaseLibrary, **kwargs):
        """A fresh campaign for ``spec`` (see :meth:`_open`)."""
        return cls._open(library, None, None, spec=spec, **kwargs)

    @classmethod
    def resume(
        cls, store: CheckpointStore, library: TestcaseLibrary, **kwargs
    ) -> "ResilientCampaign":
        """Rebuild a campaign from the newest usable snapshot.

        The CLI path rebuilds everything from the embedded spec; see
        :meth:`_open` for the keyword arguments.  Raises
        :class:`ConfigurationError` when no usable snapshot exists.
        """
        fallbacks = CampaignHealthReport()
        payload = store.load_latest(fallbacks)
        if payload is None:
            raise ConfigurationError(
                f"no usable checkpoint in {store.directory}"
            )
        return cls._open(
            library, payload, fallbacks, checkpoint_store=store, **kwargs
        )

    @classmethod
    def _open(
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
        if payload is not None:
            campaign._restore(payload, fallbacks)
        return campaign

    def _restore(
        self, payload: Dict[str, object], fallbacks: CampaignHealthReport
    ) -> None:
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
        for event in fallbacks.events:
            self.health.record(event.kind, event.detail, shard=event.shard)
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

    def _shard_result(self) -> FleetStudyResult:
        return FleetStudyResult(
            population_total=self.population.total,
            arch_counts=dict(self.population.arch_counts),
        )

    def _run_shard_once(
        self, start: int, stop: int, engine: str
    ) -> Tuple[FleetStudyResult, float]:
        """One attempt at a shard on ``engine``: its result and seconds."""
        shard_result = self._shard_result()
        started = time.perf_counter()
        if engine == "vectorized":
            self._vectorized.run_range(start, stop, shard_result)
        else:
            self._scalar.run_range(start, stop, shard_result)
        return shard_result, time.perf_counter() - started

    def _execute_shard(self, start: int, stop: int, shard: int) -> FleetStudyResult:
        """One shard through the retry/degradation ladder.

        Any attempt starts by repositioning the stream at the shard's
        draw offset, so retries and engine switches replay the exact
        draw sequence an uninterrupted run would have consumed.
        """
        draws_at_start = self._stream.consumed
        engine = "vectorized"
        attempt = 0
        while True:
            self._stream.reset_to(draws_at_start)
            try:
                with span(
                    self.obs, "campaign.shard",
                    shard=shard, start=start, stop=stop,
                    engine=engine, attempt=attempt,
                ):
                    if self._injects(shard, "delay"):
                        observed_sleep(
                            self.obs, self.chaos.delay_s, "chaos_delay"
                        )
                    if self._injects(shard, "exception"):
                        raise TransientWorkerError(
                            f"chaos: injected worker exception on shard "
                            f"{shard}"
                        )
                    shard_result, seconds = self._run_shard_once(
                        start, stop, engine
                    )
                    if engine != "scalar" and self._injects(
                        shard, "parity_trip"
                    ):
                        raise ParityDegradedError(
                            f"parity self-check tripped on shard {shard} "
                            f"(cpus [{start}, {stop}))"
                        )
                if self.obs is not None:
                    record_range_metrics(
                        self.obs, engine, shard_result, 0, 0,
                        self._stream.consumed - draws_at_start,
                        stop - start, seconds,
                    )
                return shard_result
            except ParityDegradedError as error:
                # Ground truth is the scalar engine; degrade this shard.
                self.health.record(
                    KIND_DEGRADATION,
                    f"{engine} -> scalar: {error}",
                    shard=shard,
                )
                engine = "scalar"
            except TransientWorkerError as error:
                attempt += 1
                if attempt > MAX_SHARD_RETRIES:
                    raise CampaignAbortedError(
                        f"shard {shard} failed {attempt} times; giving up: "
                        f"{error}"
                    ) from error
                delay = self.retry_backoff.delay_s(attempt, f"shard-{shard}")
                self.health.record(
                    KIND_RETRY,
                    f"attempt {attempt} after {error} (backoff {delay:.3f}s)",
                    shard=shard,
                )
                if self.obs is not None:
                    self.obs.inc("repro_retry_total", scope="shard")
                observed_sleep(self.obs, delay, "shard_retry")

    def step(self) -> bool:
        """Execute exactly one shard through the retry/degradation
        ladder and apply the checkpoint policy; returns True while
        faulty CPUs remain.

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
        if self._injects(shard, "kill"):
            raise InjectedKillError(
                f"chaos: campaign killed after shard {shard}"
            )
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

        Injected kills propagate as :class:`InjectedKillError` — a
        :class:`CampaignSupervisor` (or an operator running ``repro
        resume``) restarts from the last good snapshot.
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


class CampaignSupervisor:
    """Runs one campaign, restarting it from its newest snapshot after
    every injected kill.

    The production deployment shape: a daemon that respawns a crashed
    scanner and points it at the newest snapshot.  The population is
    built once, one health report spans every restart, and the resume-
    or-fresh decision is made here alone.  :meth:`step` is the granule a
    host interleaves with its own checks (the ``repro serve`` scheduler's
    drain, deadline and shard latency); :meth:`run` goes to the end.
    Needs either ``spec`` (population regenerated deterministically) or
    an explicit ``population``; other keyword arguments go to
    :class:`ResilientCampaign`.
    """

    def __init__(
        self,
        library: TestcaseLibrary,
        *,
        spec: Optional[CampaignSpec] = None,
        population: Optional[FleetPopulation] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        health: Optional[CampaignHealthReport] = None,
        max_restarts: int = 8,
        **campaign_kwargs,
    ):
        if spec is None and population is None:
            raise ConfigurationError(
                "a supervised campaign needs spec= or population="
            )
        if population is None:
            population = spec.build_population()
        self.library = library
        self.store = checkpoint_store
        self.max_restarts = max_restarts
        self.restarts = 0
        self._kwargs = dict(
            campaign_kwargs,
            spec=spec,
            population=population,
            checkpoint_store=checkpoint_store,
        )
        self.campaign = self._open(health)

    def _open(
        self, health: Optional[CampaignHealthReport]
    ) -> ResilientCampaign:
        fallbacks = CampaignHealthReport()
        payload = (
            self.store.load_latest(fallbacks)
            if self.store is not None
            else None
        )
        return ResilientCampaign._open(
            self.library, payload, fallbacks, health=health, **self._kwargs
        )

    def step(self) -> bool:
        """One shard of the current campaign; an injected kill restarts
        it from the newest snapshot instead.  True while work remains."""
        try:
            return self.campaign.step()
        except InjectedKillError as error:
            self.restarts += 1
            if self.restarts > self.max_restarts:
                raise CampaignAbortedError(
                    f"campaign killed {self.restarts} times; giving up"
                ) from error
            if self.store is None:
                raise CampaignAbortedError(
                    "campaign killed with no checkpoint store to resume from"
                ) from error
            self.campaign = self._open(self.campaign.health)
            return True

    def run(self) -> Tuple[FleetStudyResult, CampaignHealthReport]:
        while self.step():
            pass
        return self.campaign.result, self.campaign.health


def run_resilient_campaign(
    library: TestcaseLibrary, **kwargs
) -> Tuple[FleetStudyResult, CampaignHealthReport]:
    """Run a :class:`CampaignSupervisor` (same arguments) to the end;
    returns the study result and the health report."""
    return CampaignSupervisor(library, **kwargs).run()

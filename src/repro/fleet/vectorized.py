"""Vectorised fleet campaign engine.

:class:`VectorizedTestPipeline` runs the same 32-month staged campaign
as :class:`~repro.fleet.pipeline.TestPipeline`, but reads each range of
faulty CPUs straight from the population's
:class:`~repro.fleet.frame.FleetFrame` columns and evaluates the
closed-form per-stage detection law as NumPy matrix ops over the whole
range at once; it builds no :class:`~repro.cpu.processor.Processor`.
The output is **bit-identical** to the scalar engine under the same
seed — same :class:`Detection` objects, same undetected ids, in the
same order — which the parity tests and the committed benchmark both
assert.

Exact replay is the interesting part.  The scalar engine consumes
randomness from two kinds of streams:

* one *behaviour* substream per (defect, testcase) setting, drawn inside
  ``TriggerModel.behaviour`` (a uniform for ``tmin`` and a normal for
  ``log10_f0``).  Because ``tmin`` gates whether a stage contributes any
  detection probability at all — and therefore whether the pipeline
  stream consumes a Bernoulli draw — these values must be replayed *bit
  exactly*.  :mod:`repro.perf.exact_rng` reproduces NumPy's
  ``SeedSequence``/PCG64/ziggurat pipeline across all settings in a few
  array ops.
* the single ``substream(seed, "pipeline")`` Bernoulli stream.  Draw
  *count* depends on the gates above; once those are exact, the draws
  are pulled from the real generator in blocks (``Generator.random(n)``
  emits the same doubles as ``n`` scalar calls).

A third kind, each all-core defect's per-core multiplier substream,
only feeds a sum; :func:`~repro.fleet.population.fleet_multiplier_sums`
replays those streams the same way.

Floating-point op *order* is mirrored too: per-row expectations
accumulate with index-ordered ``np.bincount`` (element by element,
matching the scalar dict accumulation), and transcendentals that NumPy
vectorises with different last-ulp results than libm (``10 ** x``,
``x ** q``, ``exp``) are evaluated scalar-wise exactly as the scalar
engine does.

Scope note: the per-stage expectation cache of the scalar engine is
keyed by stage *name*; like that cache, this engine assumes same-named
stages share their parameters (true for any sane `PipelineConfig`).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..perf.exact_rng import (
    VectorPCG64,
    derive_from_hasher,
    encode_names,
    seed_hasher,
)
from ..faults.trigger import TriggerModel
from ..testing.library import TestcaseLibrary
from .frame import FleetFrame
from .pipeline import (
    Detection,
    FleetStudyResult,
    PipelineConfig,
    TestPipeline,
    record_range_metrics,
)
from .population import (
    FLEET_TRIGGER_DEFAULTS,
    FleetPopulation,
    fleet_cpu_name,
    fleet_defect_id,
    fleet_multiplier_sums,
    fleet_signature_shape,
)

__all__ = ["VectorizedTestPipeline"]


class VectorizedTestPipeline:
    """Batch campaign engine, detection-for-detection equal to scalar."""

    __test__ = False  # not a pytest test class

    def __init__(
        self,
        population: FleetPopulation,
        library: TestcaseLibrary,
        config: Optional[PipelineConfig] = None,
        trigger_model: Optional[TriggerModel] = None,
        seed: int = 11,
        *,
        obs=None,
    ):
        if not isinstance(population.faulty, FleetFrame):
            raise ConfigurationError(
                "VectorizedTestPipeline lowers FleetFrame columns, but "
                f"population.faulty is a {type(population.faulty).__name__}"
                "; run TestPipeline over other Processor sequences"
            )
        # The scalar pipeline provides setting enumeration, the stage
        # schedule, and the seeded Bernoulli stream; this engine replaces
        # only how the per-stage expectations are *computed*.
        self._scalar = TestPipeline(
            population, library, config, trigger_model, seed, obs=obs
        )
        #: Optional :class:`repro.obs.Observability` context; ``None``
        #: disables telemetry.  Ranges replayed by *this* engine are
        #: accounted under ``engine="vectorized"``.  A resilient
        #: campaign passes none and accounts each shard itself, once.
        self.obs = obs
        self.population = population
        self.library = library
        self.config = self._scalar.config
        self.trigger = self._scalar.trigger
        # Settings skeletons per match signature: defects sampled from
        # the same instruction pool share their testcase rows.
        self._skeletons: Dict[Tuple[bool, int, int], Tuple] = {}
        # The stage schedule is population-independent and computed
        # once.  Lowered blocks are not kept: every caller walks ranges
        # forward and none lowers the same range twice on one engine.
        self._schedule_cache: Optional[Tuple] = None
        # Named scratch buffers for the per-kind expectation loop.
        # Lowering is called once per (shard, kind); without reuse each
        # call allocates five O(pairs)+O(rows) temporaries.  Buffers
        # grow monotonically and are sliced per call, so steady-state
        # lowering allocates nothing.
        self._scratch: Dict[str, np.ndarray] = {}

    def _scratch_buffer(self, name: str, size: int) -> np.ndarray:
        """A float64 scratch array of ``size``, reused across calls."""
        buf = self._scratch.get(name)
        if buf is None or len(buf) < size:
            buf = np.empty(max(size, 1), dtype=np.float64)
            self._scratch[name] = buf
        return buf[:size]

    # -- lowering ----------------------------------------------------------

    def _skeleton(self, signature: Tuple[bool, int, int]) -> Tuple:
        """Shared rows of a match signature ``(consistency, combo,
        pool_index)``: (pair_tcs, row_pair, row_stress, encoded_tcs).

        Rows below the usage floor can never contribute (the trigger law
        zeroes them at every temperature), so they are dropped here;
        pairs are ordered by their first *qualifying* row, which is
        exactly the scalar engine's dict insertion order.  The testcase
        ids are pre-encoded for seed derivation.  Per-row usage stress
        ``(usage / reference) ** exponent`` uses Python's ``**`` exactly
        as the scalar trigger law does; every fleet defect shares the
        default stress exponent, so it is a function of the signature.
        """
        cached = self._skeletons.get(signature)
        if cached is not None:
            return cached
        floor = self.trigger.usage_floor
        reference = self.trigger.reference_usage
        exponent = FLEET_TRIGGER_DEFAULTS["stress_exponent"]
        pair_index: Dict[str, int] = {}
        pair_tcs: List[str] = []
        row_pair: List[int] = []
        row_stress: List[float] = []
        settings = self._scalar._matching_settings(
            *fleet_signature_shape(*signature)
        )
        for testcase, usage in settings:
            if usage < floor:
                continue
            tc_id = testcase.testcase_id
            index = pair_index.get(tc_id)
            if index is None:
                index = len(pair_tcs)
                pair_index[tc_id] = index
                pair_tcs.append(tc_id)
            row_pair.append(index)
            row_stress.append((usage / reference) ** exponent)
        cached = (pair_tcs, row_pair, row_stress, encode_names(pair_tcs))
        self._skeletons[signature] = cached
        return cached

    # -- the campaign ------------------------------------------------------

    def run(self) -> FleetStudyResult:
        result = FleetStudyResult(
            population_total=self.population.total,
            arch_counts=dict(self.population.arch_counts),
        )
        self.run_range(0, len(self.population.faulty), result)
        return result

    def _schedule(self) -> Tuple:
        """``(schedule, kind_temp, kind_time)`` — stage kinds + calendar.

        Distinct stage kinds in first-occurrence order (the scalar
        engine caches expectations per stage name).  A pure function of
        the pipeline config, shared by every lowered block.
        """
        if self._schedule_cache is not None:
            return self._schedule_cache
        kind_of: Dict[str, int] = {}
        kind_temp: List[float] = []
        kind_time: List[float] = []
        schedule: List[Tuple[int, str, float]] = []
        for stage, day in self._scalar._stage_occurrences():
            kind = kind_of.get(stage.name)
            if kind is None:
                kind = len(kind_temp)
                kind_of[stage.name] = kind
                kind_temp.append(stage.test_temp_c)
                kind_time.append(stage.per_testcase_s)
            schedule.append((kind, stage.name, day))
        self._schedule_cache = (schedule, kind_temp, kind_time)
        return self._schedule_cache

    def _lower_range(self, range_start: int, range_stop: int) -> Tuple:
        """Faulty CPUs ``[range_start, range_stop)`` → struct-of-arrays.

        Reads the range's rows straight from the frame's columns and
        builds no Processor.  Pure function of the population/config/
        trigger (no pipeline stream draws), recomputed on each call.
        Every per-pair quantity — the behaviour replay (independent
        :class:`VectorPCG64` lane per setting seed), the scalar-`pow`
        frequency law, and the index-ordered ``bincount`` accumulations
        (whose addends never cross a CPU boundary) — is computed
        identically whether the CPU is lowered alone, in a shard, or in
        the full population, which is what lets a sharded campaign
        match the unsharded engine bit for bit.

        All returned sequences are indexed by ``cpu - range_start``.
        """
        schedule, kind_temp, kind_time = self._schedule()
        n_kinds = len(kind_temp)

        # ---- the range's rows, straight from the frame's columns ----
        frame = self.population.faulty
        rows = {
            name: column[range_start:range_stop]
            for name, column in frame.columns.items()
        }
        cpu_arch = [frame.arch_names[code] for code in rows["arch_code"].tolist()]
        cpu_ids = [
            fleet_cpu_name(arch, index)
            for arch, index in zip(cpu_arch, rows["arch_index"].tolist())
        ]
        cpu_skip = rows["escapes"].tolist()  # escapes: not even iterated
        cpu_onset = rows["onset_days"].tolist()
        signatures = list(zip(
            rows["consistency"].tolist(),
            rows["combo"].tolist(),
            rows["pool_index"].tolist(),
        ))
        n_cpus = len(cpu_ids)
        cpu_pair_start: List[int] = []
        pair_tc: List[str] = []
        pair_cpus: List[int] = []  # CPUs that contribute pairs ...
        pair_counts: List[int] = []  # ... and how many each
        row_pair: List[int] = []
        row_stress_parts: List[float] = []
        seed_groups: List[Tuple[str, List[bytes]]] = []
        skeleton = self._skeleton

        for cpu, skip in enumerate(cpu_skip):
            cpu_pair_start.append(len(pair_tc))
            if skip:
                continue
            skel = skeleton(signatures[cpu])
            pair_tcs = skel[0]
            if not pair_tcs:
                continue
            base = len(pair_tc)
            pair_tc += pair_tcs
            pair_cpus.append(cpu)
            pair_counts.append(len(pair_tcs))
            row_pair += [base + local for local in skel[1]]
            row_stress_parts += skel[2]
            seed_groups.append((fleet_defect_id(cpu_ids[cpu]), skel[3]))
        cpu_pair_start.append(len(pair_tc))
        n_pairs = len(pair_tc)

        # ---- resolve all setting behaviours in one vectorised replay ----
        trigger_base = seed_hasher(0, "trigger")
        seed_values: List[int] = []
        for defect_id, encoded_tcs in seed_groups:
            group_base = trigger_base.copy()
            group_base.update(b"\x00" + defect_id.encode("utf-8"))
            seed_values += derive_from_hasher(group_base, encoded_tcs)
        seeds = np.array(seed_values, dtype=np.uint64)

        pair_cpu_arr = np.repeat(
            np.asarray(pair_cpus, dtype=np.intp),
            np.asarray(pair_counts, dtype=np.intp),
        )
        streams = VectorPCG64.from_seeds(seeds)
        # Same two draws, same op order as TriggerModel.behaviour; the
        # jitter spreads are the fleet-wide TriggerProfile defaults.
        pair_tmin = rows["tmin"][pair_cpu_arr] + (
            FLEET_TRIGGER_DEFAULTS["tmin_jitter"] * streams.next_double()
        )
        pair_f0 = rows["log10_f0"][pair_cpu_arr] + (
            FLEET_TRIGGER_DEFAULTS["freq_jitter"] * streams.standard_normal()
        )
        pair_slope = rows["slope"][pair_cpu_arr]

        row_pair_arr = np.asarray(row_pair, dtype=np.intp)
        row_cpu_arr = pair_cpu_arr[row_pair_arr]
        row_stress = np.asarray(row_stress_parts)
        # Every fleet row's reference core multiplier is 1.0, so the
        # scalar law's ``* reference`` and ``/ reference`` are exact
        # no-ops and are left out; only the multiplier sum scales.
        cpu_mult_sum = np.zeros(n_cpus)
        cpu_mult_sum[pair_cpus] = fleet_multiplier_sums(
            [cpu_arch[cpu] for cpu in pair_cpus],
            rows["core_id"][pair_cpus].tolist(),
            [cpu_ids[cpu] for cpu in pair_cpus],
        )
        row_sum = cpu_mult_sum[row_cpu_arr]

        # ---- per-stage-kind expectations, ordered accumulation ----
        ramp_cap = self.trigger.ramp_cap_c
        max_freq = self.trigger.max_freq_per_min
        kind_values: List[List[float]] = []  # per kind: per-pair expected
        kind_probs: List[List[float]] = []  # per kind: per-cpu P(detect)
        kind_nnz: List[List[int]] = []  # per kind: per-cpu e>0 pair count
        pow10 = (10.0).__pow__  # libm pow, identical to the scalar 10.0 ** x
        computed: Dict[Tuple[float, float], int] = {}
        for kind in range(n_kinds):
            temp = kind_temp[kind]
            # Same-parameter kinds (e.g. factory and re-install both run
            # 600 s at 80 °C) evaluate to bitwise-equal expectations, so
            # compute once and alias.
            twin = computed.get((temp, kind_time[kind]))
            if twin is not None:
                kind_values.append(kind_values[twin])
                kind_probs.append(kind_probs[twin])
                kind_nnz.append(kind_nnz[twin])
                continue
            computed[(temp, kind_time[kind])] = kind
            n_rows = len(row_pair_arr)
            active = np.flatnonzero(temp >= pair_tmin)  # tmin gate, bit-exact
            # Scratch-buffer versions of the original expressions; each
            # out= ufunc evaluates the same operation in the same order
            # as its allocating form, so results stay bitwise equal:
            #   ramp       = np.minimum(temp - pair_tmin, ramp_cap)
            #   log10_freq = pair_f0 + pair_slope * ramp
            #   freq       = pair_pow[row_pair_arr] * row_stress
            #   expected   = (min(freq, max_freq) * row_sum) * kt / 60.0
            ramp = self._scratch_buffer("ramp", n_pairs)
            np.subtract(temp, pair_tmin, out=ramp)
            np.minimum(ramp, ramp_cap, out=ramp)
            log10_freq = self._scratch_buffer("log10_freq", n_pairs)
            np.multiply(pair_slope, ramp, out=log10_freq)
            np.add(pair_f0, log10_freq, out=log10_freq)
            pair_pow = self._scratch_buffer("pair_pow", n_pairs)
            pair_pow.fill(0.0)
            if active.size:
                pair_pow[active] = list(
                    map(pow10, log10_freq[active].tolist())
                )
            freq = self._scratch_buffer("freq", n_rows)
            np.take(pair_pow, row_pair_arr, out=freq)
            np.multiply(freq, row_stress, out=freq)
            np.minimum(freq, max_freq, out=freq)
            expected = self._scratch_buffer("expected", n_rows)
            np.multiply(freq, row_sum, out=expected)
            # ``* kt`` then ``/ 60.0`` stay two separate operations — a
            # fused ``* (kt / 60.0)`` would change last-ulp results.
            np.multiply(expected, kind_time[kind], out=expected)
            np.divide(expected, 60.0, out=expected)
            # bincount accumulates element by element in index order —
            # the same addition sequence as the scalar dict loop.
            values = np.bincount(
                row_pair_arr, weights=expected, minlength=n_pairs
            )
            totals = np.bincount(
                pair_cpu_arr, weights=values, minlength=n_cpus
            )
            kind_values.append(values.tolist())
            kind_probs.append(
                [1.0 - math.exp(-total) for total in totals.tolist()]
            )
            kind_nnz.append(
                np.bincount(
                    pair_cpu_arr[values > 0.0], minlength=n_cpus
                ).tolist()
            )

        return (
            cpu_ids,
            cpu_arch,
            cpu_skip,
            cpu_onset,
            cpu_pair_start,
            pair_tc,
            kind_values,
            list(zip(*kind_probs)),
            kind_nnz,
        )

    def run_range(
        self, start: int, stop: int, result: FleetStudyResult
    ) -> FleetStudyResult:
        """Replay faulty CPUs ``[start, stop)``, appending into ``result``.

        Sequential Bernoulli replay on the shared pipeline stream.
        Draws come off the counted stream in blocks
        (``Generator.random(n)`` emits the same doubles as n scalar
        calls).  A detection consumes exactly one draw per e>0 pair, so
        the failing-testcase block can be sliced out wholesale.  The
        stream position carries across calls and across the scalar
        engine, so any per-shard engine mix is bit-identical to one
        uninterrupted run.
        """
        stream = self._scalar._stream
        obs = self.obs
        if obs is not None:
            started = time.perf_counter()
            entry_draws = stream.consumed
            entry_detections = len(result.detections)
            entry_undetected = len(result.undetected_ids)
        block = self._lower_range(start, stop)
        (
            cpu_ids,
            cpu_arch,
            cpu_skip,
            cpu_onset,
            cpu_pair_start,
            pair_tc,
            kind_values,
            cpu_probs,
            kind_nnz,
        ) = block
        schedule = self._schedule()[0]
        draw = stream.draw
        draw_many = stream.draw_many
        sample_failing = self._sample_failing
        detections_append = result.detections.append
        undetected_append = result.undetected_ids.append

        for local, cpu_id in enumerate(cpu_ids):
            if cpu_skip[local]:
                undetected_append(cpu_id)
                continue
            onset = cpu_onset[local]
            probs = cpu_probs[local]
            detection: Optional[Detection] = None
            for kind, stage_name, day in schedule:
                if day < onset:
                    continue
                probability = probs[kind]
                if probability <= 0.0:
                    continue
                if draw() < probability:
                    count = kind_nnz[kind][local]
                    detection = Detection(
                        processor_id=cpu_id,
                        arch_name=cpu_arch[local],
                        stage_name=stage_name,
                        day=day,
                        failing_testcase_ids=sample_failing(
                            kind_values[kind],
                            pair_tc,
                            cpu_pair_start[local],
                            cpu_pair_start[local + 1],
                            draw_many(count),
                        ),
                    )
                    break
            if detection is None:
                undetected_append(cpu_id)
            else:
                detections_append(detection)
        if obs is not None:
            record_range_metrics(
                obs, "vectorized", result,
                entry_detections, entry_undetected,
                stream.consumed - entry_draws,
                stop - start,
                time.perf_counter() - started,
            )
        return result

    @staticmethod
    def _sample_failing(
        values: List[float],
        pair_tc: List[str],
        start: int,
        stop: int,
        block: List[float],
    ) -> Tuple[str, ...]:
        """Mirror of ``TestPipeline._sample_failing_testcases``.

        Pairs with zero expectation at this stage are absent from the
        scalar dict and consume no draw; the rest draw one Bernoulli
        each in pair (= dict insertion) order, consuming ``block`` —
        pre-sliced to exactly one draw per e>0 pair — front to back.
        """
        failing: List[str] = []
        best_tc: Optional[str] = None
        best_value = -math.inf
        exp = math.exp
        position = 0
        for expected, tc_id in zip(values[start:stop], pair_tc[start:stop]):
            if expected <= 0.0:
                continue
            if expected > best_value:
                best_value = expected
                best_tc = tc_id
            if block[position] < 1.0 - exp(-expected):
                failing.append(tc_id)
            position += 1
        if not failing and best_tc is not None:
            failing = [best_tc]
        return tuple(sorted(failing))

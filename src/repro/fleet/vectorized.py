"""Vectorised fleet campaign engine.

:class:`VectorizedTestPipeline` runs the same 32-month staged campaign
as :class:`~repro.fleet.pipeline.TestPipeline`, but lowers the faulty
population into struct-of-arrays form and evaluates the closed-form
per-stage detection law as NumPy matrix ops over the whole population at
once.  The output is **bit-identical** to the scalar engine under the
same seed — same :class:`Detection` objects, same undetected ids, in the
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

Floating-point op *order* is mirrored too: per-row expectations
accumulate with ordered ``np.add.at`` (element-by-element, matching the
scalar dict accumulation), and transcendentals that NumPy vectorises
with different last-ulp results than libm (``10 ** x``, ``x ** q``,
``exp``) are evaluated scalar-wise exactly as the scalar engine does.

Scope note: the per-stage expectation cache of the scalar engine is
keyed by stage *name*; like that cache, this engine assumes same-named
stages share their parameters (true for any sane `PipelineConfig`).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..perf.exact_rng import (
    VectorPCG64,
    derive_from_hasher,
    encode_names,
    seed_hasher,
)
from ..cpu.defects import Defect
from ..faults.trigger import TriggerModel
from ..testing.library import TestcaseLibrary
from .pipeline import (
    Detection,
    FleetStudyResult,
    PipelineConfig,
    TestPipeline,
    record_range_metrics,
)
from .population import FleetPopulation

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
        # The scalar pipeline provides setting enumeration, the stage
        # schedule, and the seeded Bernoulli stream; this engine replaces
        # only how the per-stage expectations are *computed*.
        self._scalar = TestPipeline(
            population, library, config, trigger_model, seed, obs=obs
        )
        #: Optional :class:`repro.obs.Observability` context; ``None``
        #: disables telemetry.  Ranges replayed by *this* engine are
        #: accounted under ``engine="vectorized"``, so mixed-engine
        #: campaigns (a shard degraded to scalar) keep exact per-engine
        #: totals.
        self.obs = obs
        self.population = population
        self.library = library
        self.config = self._scalar.config
        self.trigger = self._scalar.trigger
        # Settings skeletons per match signature: defects sampled from
        # the same instruction pool share their testcase rows.
        self._skeletons: Dict[object, Tuple] = {}
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

    def _skeleton(self, defect: Defect) -> Tuple:
        """Shared per-signature rows: (pair_tcs, row_pair, row_usage,
        encoded_tcs, stress_by_exponent).

        Rows below the usage floor can never contribute (the trigger law
        zeroes them at every temperature), so they are dropped here;
        pairs are ordered by their first *qualifying* row, which is
        exactly the scalar engine's dict insertion order.  The testcase
        ids are pre-encoded for seed derivation, and per-row usage
        stress is cached per stress exponent (see
        :meth:`_skeleton_stress`), since both depend only on the match
        signature.
        """
        # Computation defects always name instructions, consistency
        # defects never do (enforced by Defect.__post_init__), which
        # sidesteps the set-building ``is_consistency`` property here.
        if defect.instructions:
            key = ("i", defect.instructions)
        else:
            key = ("c", defect.features)
        cached = self._skeletons.get(key)
        if cached is not None:
            return cached
        floor = self.trigger.usage_floor
        pair_index: Dict[str, int] = {}
        pair_tcs: List[str] = []
        row_pair: List[int] = []
        row_usage: List[float] = []
        for testcase, usage in self._scalar._matching_settings(defect):
            if usage < floor:
                continue
            tc_id = testcase.testcase_id
            index = pair_index.get(tc_id)
            if index is None:
                index = len(pair_tcs)
                pair_index[tc_id] = index
                pair_tcs.append(tc_id)
            row_pair.append(index)
            row_usage.append(usage)
        cached = (pair_tcs, row_pair, row_usage, encode_names(pair_tcs), {})
        self._skeletons[key] = cached
        return cached

    def _skeleton_stress(self, skeleton: Tuple, exponent: float) -> List[float]:
        """Per-row ``(usage / reference) ** exponent``, scalar pow.

        Evaluated with Python's ``**`` exactly as the scalar trigger law
        does, once per (signature, exponent) instead of once per row per
        processor.
        """
        cache = skeleton[4]
        rows = cache.get(exponent)
        if rows is None:
            reference = self.trigger.reference_usage
            rows = [(usage / reference) ** exponent for usage in skeleton[2]]
            cache[exponent] = rows
        return rows

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

        Pure function of the population/config/trigger (no pipeline
        stream draws), recomputed on each call.  Every per-pair
        quantity — the behaviour replay (independent :class:`VectorPCG64` lane per
        setting seed), the scalar-`pow` frequency law, and the
        index-ordered ``bincount`` accumulations (whose addends never
        cross a CPU boundary) — is computed identically whether the CPU
        is lowered alone, in a shard, or in the full population, which
        is what lets a sharded campaign match the unsharded engine bit
        for bit.

        All returned arrays, and the range's Processors that lead the
        block, are indexed by ``cpu - range_start``.
        """
        schedule, kind_temp, kind_time = self._schedule()
        n_kinds = len(kind_temp)

        # ---- struct-of-arrays lowering over the range ----
        faulty = self.population.faulty[range_start:range_stop]
        n_cpus = len(faulty)
        cpu_ref_mult: List[float] = []
        cpu_mult_sum: List[float] = []
        cpu_onset: List[float] = []
        cpu_pair_start: List[int] = []
        cpu_skip: List[bool] = []  # escapes: not even iterated
        tmin_base: List[float] = []
        tmin_jitter: List[float] = []
        f0_base: List[float] = []
        f0_jitter: List[float] = []
        slope: List[float] = []
        pair_tc: List[str] = []
        pair_cpus: List[int] = []  # processors that contribute pairs ...
        pair_counts: List[int] = []  # ... and how many each
        row_pair: List[int] = []
        row_stress_parts: List[float] = []
        seed_groups: List[Tuple[str, List[bytes]]] = []
        skeleton = self._skeleton
        skeleton_stress = self._skeleton_stress

        for cpu, processor in enumerate(faulty):
            defect = processor.defects[0]
            cpu_pair_start.append(len(pair_tc))
            if defect.escapes_toolchain:
                cpu_skip.append(True)
                cpu_ref_mult.append(0.0)
                cpu_mult_sum.append(0.0)
                cpu_onset.append(0.0)
                tmin_base.append(0.0)
                tmin_jitter.append(0.0)
                f0_base.append(0.0)
                f0_jitter.append(0.0)
                slope.append(0.0)
                continue
            cpu_skip.append(False)
            cpu_onset.append(defect.onset_days)
            profile = defect.trigger
            tmin_base.append(profile.tmin)
            tmin_jitter.append(profile.tmin_jitter)
            f0_base.append(profile.log10_freq_at_tmin)
            f0_jitter.append(profile.freq_jitter)
            slope.append(profile.temp_slope)
            # Inlined core_multiplier sum: every core in core_ids is
            # affected, missing map entries default to 1.0, and the
            # running float sum adds term for term like the scalar
            # ``sum()``.
            core_ids = defect.core_ids
            multipliers = defect.core_multipliers
            if not multipliers:
                reference_mult = 1.0
                multiplier_sum = float(len(core_ids))
            elif tuple(multipliers) == core_ids:
                # The map covers core_ids in order (how the fleet
                # generator builds them), so dict-order summation is
                # the same addition sequence.
                reference_mult = multipliers[core_ids[0]]
                multiplier_sum = sum(multipliers.values())
            else:
                get = multipliers.get
                reference_mult = get(core_ids[0], 1.0)
                multiplier_sum = 0.0
                for core in core_ids:
                    multiplier_sum += get(core, 1.0)
            cpu_ref_mult.append(reference_mult)
            cpu_mult_sum.append(multiplier_sum)
            if reference_mult == 0.0:
                continue
            skel = skeleton(defect)
            pair_tcs = skel[0]
            if not pair_tcs:
                continue
            base = len(pair_tc)
            pair_tc += pair_tcs
            pair_cpus.append(cpu)
            pair_counts.append(len(pair_tcs))
            row_pair += [base + local for local in skel[1]]
            row_stress_parts += skeleton_stress(skel, profile.stress_exponent)
            seed_groups.append((defect.defect_id, skel[3]))
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
        cpu_tmin_base = np.asarray(tmin_base)
        cpu_tmin_jitter = np.asarray(tmin_jitter)
        cpu_f0_base = np.asarray(f0_base)
        cpu_f0_jitter = np.asarray(f0_jitter)
        cpu_slope = np.asarray(slope)

        streams = VectorPCG64.from_seeds(seeds)
        # Same two draws, same op order as TriggerModel.behaviour.
        pair_tmin = cpu_tmin_base[pair_cpu_arr] + (
            cpu_tmin_jitter[pair_cpu_arr] * streams.next_double()
        )
        pair_f0 = cpu_f0_base[pair_cpu_arr] + (
            cpu_f0_jitter[pair_cpu_arr] * streams.standard_normal()
        )
        pair_slope = cpu_slope[pair_cpu_arr]

        row_pair_arr = np.asarray(row_pair, dtype=np.intp)
        row_cpu_arr = pair_cpu_arr[row_pair_arr]
        row_stress = np.asarray(row_stress_parts)
        # Contributing rows always have a nonzero reference multiplier
        # (ref == 0 processors are skipped above), so the scalar law's
        # freq / reference division is a plain vector divide.
        row_ref = np.asarray(cpu_ref_mult)[row_cpu_arr]
        row_sum = np.asarray(cpu_mult_sum)[row_cpu_arr]

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
            #   freq       = (pair_pow[row_pair_arr] * row_stress) * row_ref
            #   expected   = ((freq / row_ref) * row_sum) * kt / 60.0
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
            np.multiply(freq, row_ref, out=freq)
            np.minimum(freq, max_freq, out=freq)
            expected = self._scratch_buffer("expected", n_rows)
            np.divide(freq, row_ref, out=expected)
            np.multiply(expected, row_sum, out=expected)
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
            faulty,
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
            faulty,
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

        for local, processor in enumerate(faulty):
            if cpu_skip[local]:
                undetected_append(processor.processor_id)
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
                        processor_id=processor.processor_id,
                        arch_name=processor.arch.name,
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
                undetected_append(processor.processor_id)
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

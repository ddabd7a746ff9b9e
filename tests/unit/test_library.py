"""Unit tests for testcases and the 633-testcase library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu import DEFAULT_ISA, Feature
from repro.errors import ConfigurationError
from repro.testing import (
    Complexity,
    ConsistencyKind,
    FEATURE_QUOTAS,
    TOOLCHAIN_SIZE,
    Testcase,
    build_library,
)


class TestTestcase:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            Testcase(
                testcase_id="t",
                name="t",
                feature=Feature.ALU,
                complexity=Complexity.INSTRUCTION_LOOP,
                instruction_mix={"ADD_I32": 0.5},
            )

    def test_unknown_instruction_rejected(self):
        with pytest.raises(ConfigurationError):
            Testcase(
                testcase_id="t",
                name="t",
                feature=Feature.ALU,
                complexity=Complexity.INSTRUCTION_LOOP,
                instruction_mix={"BOGUS": 1.0},
            )

    def test_consistency_requires_threads(self):
        with pytest.raises(ConfigurationError):
            Testcase(
                testcase_id="t",
                name="t",
                feature=Feature.CACHE,
                complexity=Complexity.APPLICATION,
                threads=1,
                consistency_kind=ConsistencyKind.COHERENCE,
            )

    def test_usage_per_s(self):
        testcase = Testcase(
            testcase_id="t",
            name="t",
            feature=Feature.ALU,
            complexity=Complexity.INSTRUCTION_LOOP,
            instruction_mix={"ADD_I32": 0.9, "MOV_B64": 0.1},
            nominal_ips=1.0e6,
        )
        assert testcase.usage_per_s("ADD_I32") == pytest.approx(9.0e5)
        assert testcase.usage_per_s("XOR_B64") == 0.0

    def test_heat_factor_weighted(self):
        testcase = Testcase(
            testcase_id="t",
            name="t",
            feature=Feature.FPU,
            complexity=Complexity.INSTRUCTION_LOOP,
            instruction_mix={"FATAN_F64X": 1.0},
        )
        assert testcase.heat_factor() == pytest.approx(
            DEFAULT_ISA["FATAN_F64X"].heat
        )


class TestLibrary:
    def test_size(self, library):
        # §2.3: "The toolchain includes 633 testcases".
        assert len(library) == TOOLCHAIN_SIZE
        assert sum(FEATURE_QUOTAS.values()) == TOOLCHAIN_SIZE

    def test_quotas_met(self, library):
        for feature, quota in FEATURE_QUOTAS.items():
            assert len(library.by_feature(feature)) == quota

    def test_ids_unique_and_stable(self, library):
        ids = library.ids()
        assert len(set(ids)) == len(ids)
        rebuilt = build_library()
        assert rebuilt.ids() == ids

    def test_consistency_testcases_multithreaded(self, library):
        consistency = library.consistency_testcases()
        assert consistency
        for testcase in consistency:
            assert testcase.threads >= 2
            assert testcase.feature in (Feature.CACHE, Feature.TRX_MEM)

    def test_cache_trx_only_consistency(self, library):
        # §4.1: consistency features have no computation testcases.
        for feature in (Feature.CACHE, Feature.TRX_MEM):
            for testcase in library.by_feature(feature):
                assert testcase.is_consistency

    def test_loops_have_hot_instruction(self, library):
        for testcase in library.loops():
            assert testcase.hot_instructions(threshold=0.5)

    def test_every_instruction_has_loops(self, library):
        # Every non-consistency instruction is the hot instruction of at
        # least one tight loop, so every computation defect is coverable.
        for mnemonic, instruction in DEFAULT_ISA.instructions.items():
            hot_loops = [
                tc
                for tc in library.loops()
                if tc.instruction_mix.get(mnemonic, 0) >= 0.5
            ]
            assert hot_loops, f"no loop for {mnemonic}"

    def test_application_mixes_are_diffuse(self, library):
        apps = [
            tc
            for tc in library
            if tc.complexity is Complexity.APPLICATION and not tc.is_consistency
        ]
        assert apps
        for testcase in apps:
            assert max(testcase.instruction_mix.values()) <= 0.35

    def test_subset_and_lookup(self, library):
        ids = library.ids()[:5]
        subset = library.subset(ids)
        assert len(subset) == 5
        assert library[ids[0]].testcase_id == ids[0]
        with pytest.raises(ConfigurationError):
            library["TC-NOPE-001"]

    def test_using_instruction(self, library):
        users = library.using_instruction("FATAN_F64X")
        assert users
        for testcase in users:
            assert testcase.uses_instruction("FATAN_F64X")

    def test_mixes_do_not_follow_string_hashing(self):
        """Every testcase's mix order, fractions and heat factor are the
        same bit for bit under two different ``PYTHONHASHSEED`` values."""
        script = (
            "import json\n"
            "from repro.testing import build_library\n"
            "print(json.dumps([\n"
            "    [tc.testcase_id, [[m, f.hex()] for m, f in\n"
            "     tc.instruction_mix.items()], tc.heat_factor().hex()]\n"
            "    for tc in build_library()\n"
            "]))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            outputs.append(json.loads(subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            ).stdout))
        assert len(outputs[0]) == TOOLCHAIN_SIZE
        assert outputs[0] == outputs[1]


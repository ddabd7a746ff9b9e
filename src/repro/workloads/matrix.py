"""Matrix-calculation workload (Table 3's most common impacted workload).

Computes small dense matrix products on the simulated CPU using the
fused multiply-add vector instruction — the exact instruction the
toolchain fingered in SIMD1 ("a vector instruction that performs
multiplication and addition operations simultaneously", §4.1).  Each
element is an FMA reduction; results are verified against a pure-Python
golden computation, so corrupted elements are observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..cpu.executor import Executor
from ..faults.injector import CorruptionEvent

__all__ = ["MatrixMultiplyResult", "matrix_multiply"]


@dataclass
class MatrixMultiplyResult:
    """A product matrix plus any corruption observed computing it."""

    product: List[List[float]]
    golden: List[List[float]]
    events: List[CorruptionEvent] = field(default_factory=list)

    @property
    def corrupted_elements(self) -> List[Tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self.product)
            for j, value in enumerate(row)
            if value != self.golden[i][j]
        ]

    @property
    def corrupted(self) -> bool:
        return bool(self.corrupted_elements)

    def max_relative_error(self) -> float:
        worst = 0.0
        for i, j in self.corrupted_elements:
            expected = self.golden[i][j]
            if expected == 0.0:
                continue
            worst = max(
                worst, abs(self.product[i][j] - expected) / abs(expected)
            )
        return worst


def matrix_multiply(
    executor: Executor,
    a: Sequence[Sequence[float]],
    b: Sequence[Sequence[float]],
    pcore_id: int = 0,
    temperature_c: float = 45.0,
    precision: str = "f32",
) -> MatrixMultiplyResult:
    """C = A @ B on the simulated core, element by FMA reduction."""
    if precision not in ("f32", "f64"):
        raise ConfigurationError("precision must be 'f32' or 'f64'")
    mnemonic = "VFMA_F32" if precision == "f32" else "VFMA_F64"
    rows, inner = len(a), len(a[0])
    if any(len(row) != inner for row in a):
        raise ConfigurationError("matrix A is ragged")
    if len(b) != inner:
        raise ConfigurationError("inner dimensions disagree")
    cols = len(b[0])
    if any(len(row) != cols for row in b):
        raise ConfigurationError("matrix B is ragged")

    # One flat program: rows*cols*inner FMA steps.  The accumulator
    # chaining is resolved per element after execution.
    program = []
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                # Placeholder accumulator; real chaining happens below.
                program.append((mnemonic, (a[i][k], b[k][j], 0.0)))

    # Execute element-by-element so accumulators chain through the
    # executor (a corrupted partial sum must propagate, as it would in
    # hardware).
    instruction = executor.isa[mnemonic]
    usage = 1.0e6  # a dense kernel keeps the FMA unit saturated
    rng = executor.rng_for(f"matrix-{precision}", pcore_id)
    product: List[List[float]] = [[0.0] * cols for _ in range(rows)]
    golden: List[List[float]] = [[0.0] * cols for _ in range(rows)]
    events: List[CorruptionEvent] = []
    for i in range(rows):
        for j in range(cols):
            accumulator = 0.0
            expected = 0.0
            for k in range(inner):
                expected = instruction.execute(a[i][k], b[k][j], expected)
                correct = instruction.execute(a[i][k], b[k][j], accumulator)
                value, event = executor.injector.maybe_corrupt(
                    instruction,
                    correct,
                    pcore_id=pcore_id,
                    temperature_c=temperature_c,
                    usage_per_s=usage,
                    setting_key=f"matrix-{precision}",
                    rng=rng,
                    scale=executor.time_compression,
                )
                accumulator = value
                if event is not None:
                    events.append(event)
            product[i][j] = accumulator
            golden[i][j] = expected
    return MatrixMultiplyResult(product=product, golden=golden, events=events)

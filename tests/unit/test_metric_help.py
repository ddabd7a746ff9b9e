"""Every metric family ``src/`` emits has help text, and no help text
names a family nothing emits.

``Observability.inc``/``set_gauge``/``observe`` look their help up in
``repro.obs.context._HELP`` by name and fall back to an empty string,
so a family missing from the table is exported without a useful
``# HELP`` line and nothing fails.  This AST scan, in the style of
``test_no_unused_imports.py``, collects the ``repro_*`` name literals
passed as the first argument of those three calls anywhere under
``src/repro`` and requires them to equal the table's keys.
"""

import ast
from pathlib import Path
from typing import Set

from repro.obs.context import _HELP

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The instrument shorthands of ``Observability``.
INSTRUMENT_CALLS = ("inc", "set_gauge", "observe")


def emitted_metric_names(source: str) -> Set[str]:
    """``repro_*`` literals passed first to ``<x>.inc/set_gauge/observe``."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in INSTRUMENT_CALLS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith("repro_")
        ):
            names.add(node.args[0].value)
    return names


def test_scan_sees_every_instrument_call():
    source = (
        "obs.inc('repro_a_total', 2, engine='x')\n"
        "self.obs.set_gauge(\n    'repro_b', 1.0)\n"
        "self.observe('repro_c_seconds', 0.5)\n"
        "family.inc(3)\n"
        "obs.inc(name)\n"
        "registry.counter('repro_d_total', '')\n"
        "obs.inc('other_total')\n"
    )
    assert emitted_metric_names(source) == {
        "repro_a_total", "repro_b", "repro_c_seconds",
    }


def test_help_table_matches_emitted_families():
    emitted = set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "repro_" in source:
            emitted |= emitted_metric_names(source)
    without_help = sorted(emitted - set(_HELP))
    never_emitted = sorted(set(_HELP) - emitted)
    assert (without_help, never_emitted) == ([], [])

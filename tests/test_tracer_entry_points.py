"""The benchmark's tracer (perfbench/tracer.py) still finds every entry point
it wraps, so deleting or renaming one of them breaks this test rather than
`perfbench/run.py --trace 1`."""

import importlib
import sys
from pathlib import Path

import junctionflow.cli  # noqa: F401  (loads every module the tracer searches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def _resolve(mod_name, attr):
    owner = importlib.import_module(f"junctionflow.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_every_entry_point_resolves_and_unwraps():
    originals = [_resolve(mod_name, attr) for mod_name, attr, _ in tracer.ENTRY_POINTS]
    t = tracer.Tracer().install()
    try:
        assert len(t._undo) >= len(tracer.ENTRY_POINTS)
        for (mod_name, attr, _), orig in zip(tracer.ENTRY_POINTS, originals):
            assert _resolve(mod_name, attr).__wrapped__ is orig, f"{mod_name}.{attr}"
    finally:
        t.uninstall()
    assert [_resolve(mod_name, attr) for mod_name, attr, _ in tracer.ENTRY_POINTS] == originals

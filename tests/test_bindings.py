"""The benchmark's tracer (perfbench/spans.py) wraps bgrto functions by name.

A rename or a changed calling convention must fail here, in the tier-1 suite,
and not only when the benchmark's own tests run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from bgrto import models, schedules

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = load_spans()
    names = set()
    for mod_name, fn_name in spans.TARGETS:
        module = importlib.import_module(f"bgrto.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"bgrto.{mod_name}.{fn_name}"
        names.add(f"{mod_name}.{fn_name}")
    assert spans.OPAQUE <= names


def test_hooked_signatures_and_results():
    # the tool_logits hook reads (tool, scene, prompt) from the positional arguments
    assert list(inspect.signature(models.tool_logits).parameters) == ["params", "scene", "prompt"]
    # the run_mode hook reads the epoch and bootstrap-stage wall times
    fields = {f.name for f in dataclasses.fields(schedules.RunResult)}
    assert {"epoch_wall_ms", "bto_wall_ms"} <= fields

"""The benchmark tracer wraps functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod, qual, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        # Tracer.install reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{mod}.{qual}"

"""The benchmark tracer wraps functions by name; every name must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    return tracer


def _owner_and_attr(tracer, mod, qual):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
    *cls_path, attr = qual.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


def test_every_traced_target_exists():
    tracer = _tracer()
    for mod, qual, _, _ in tracer.TARGETS:
        owner, attr = _owner_and_attr(tracer, mod, qual)
        # Tracer.install reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{mod}.{qual}"


def test_every_counter_accepts_its_targets_arguments():
    # the tracer calls counter(result, *args, **kwargs) with the target's
    # own arguments: the required ones and any optional one given by name
    tracer = _tracer()
    for mod, qual, counter, _ in tracer.TARGETS:
        if counter is None:
            continue
        owner, attr = _owner_and_attr(tracer, mod, qual)
        args, kwargs = [], {}
        for p in inspect.signature(vars(owner)[attr]).parameters.values():
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            if p.default is p.empty and p.kind != p.KEYWORD_ONLY:
                args.append(p.name)
            else:
                kwargs[p.name] = p.name
        inspect.signature(counter).bind("result", *args, **kwargs)

"""The benchmark's traced run (perfbench/tracer.py) wraps bathdyn functions
and methods by name; every name it lists must still resolve."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = _tracer()
    for span, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, (module, cls, attr) in tracer.METHODS.items():
        owner = getattr(importlib.import_module(module), cls, None)
        assert owner is not None and callable(vars(owner).get(attr)), span

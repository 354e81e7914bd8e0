"""The traced benchmark run wraps program attributes by name; a rename in
the program must not leave one of them behind."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "iterbench" / "spans.py"


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location("iterbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in spans.TARGETS if attr not in owner.__dict__]
    assert not missing
    assert len(spans.TARGETS) >= 10

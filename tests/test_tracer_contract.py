"""The names and signatures perfbench/tracer.py wraps by name.

The tracer installs its span wrappers on module attributes listed in its
TARGETS table and reads counts from argument shapes and keyword defaults.
A rename or signature change in the package would otherwise only show up
as a broken traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = load_tracer()
    for mod_name, attr, _ in tracer.TARGETS:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"
    assert set(tracer.COUNTERS) <= {attr for _, attr, _ in tracer.TARGETS}


def test_scan_batch_signature_read_by_the_counter():
    from breakboot.stats import scan_partitions_batch

    params = inspect.signature(scan_partitions_batch).parameters
    assert list(params)[:4] == ["Y", "Ws", "parts", "n_global"]
    assert params["compute_wald"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["chunk_rows"].kind is inspect.Parameter.KEYWORD_ONLY
    assert scan_partitions_batch.__kwdefaults__["compute_wald"] is True
    assert scan_partitions_batch.__kwdefaults__["chunk_rows"] == 1_000_000
    # the counter reads Ws and parts by position, so the shared-column
    # declaration must stay keyword-only and off by default
    assert params["resampled"].kind is inspect.Parameter.KEYWORD_ONLY
    assert scan_partitions_batch.__kwdefaults__["resampled"] is None

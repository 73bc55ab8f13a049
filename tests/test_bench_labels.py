"""The benchmark's traced per-layer labels name functions that exist.

`bench/tracing.py` looks each `<module>.<function>` label up with getattr, so
a traced run dies if a change deletes or renames a traced function.  The
label `serialization.encode` stands for every `encode_*` function.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_labels() -> set[str]:
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    return {
        m["name"].rsplit(".", 1)[0]
        for m in metrics
        if m["name"].endswith((".calls", ".self_s"))
    }


def test_every_traced_label_names_a_tordyn_function():
    labels = _traced_labels()
    assert "dynamics.act" in labels and "serialization.encode" in labels
    for label in sorted(labels):
        module, function = label.split(".")
        mod = importlib.import_module(f"tordyn.{module}")
        if label == "serialization.encode":
            assert any(name.startswith("encode_") for name in vars(mod)), label
        else:
            assert callable(getattr(mod, function, None)), label

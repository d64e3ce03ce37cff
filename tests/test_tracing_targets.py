"""The bench's per-layer spans wrap callables that exist in ``ellnet``.

A rename or a moved import in the library would otherwise leave a span
silently empty, and its per-layer metric would read zero.
"""

import sys
from pathlib import Path

import ellnet
import ellnet.fieldarith
import ellnet.render

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_targets_are_ellnet_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import TARGETS

    for owner, attribute, _ in TARGETS:
        home = getattr(owner, "__module__", None) or owner.__name__
        assert home.split(".")[0] == "ellnet", (owner, attribute)
        assert callable(getattr(owner, attribute, None)), (owner, attribute)
    assert ellnet.render.factorize is ellnet.fieldarith.factorize
    assert ellnet.factorize is ellnet.fieldarith.factorize

"""The benchmark's traced run can wrap, and then restore, every layer.

``perfbench/layers.py`` looks up the public callables of each measured
layer by name. A refactor that renames or moves one would only show up
as a ``KeyError`` or ``AttributeError`` in ``perfbench/run.py --trace
1``; this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """``(spans, layers)`` loaded from the benchmark directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return spans, layers


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores_every_layer(perfbench):
    spans, layers = perfbench
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        installed = list(tracer._installed)
        assert installed, "install() wrapped nothing"
        for owner, attr, original in installed:
            assert _current(owner, attr) is not original, (
                f"{owner!r}.{attr} was not wrapped")
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert _current(owner, attr) is original, (
            f"{owner!r}.{attr} was not restored")


def test_maintainer_hooks_stay_on_the_class(perfbench):
    """The traced run wraps these two methods from the class dict."""
    from repro.dynamics.incremental import IncrementalMaintainer

    spans, layers = perfbench
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        wrapped = {(owner, attr) for owner, attr, _ in tracer._installed}
    finally:
        tracer.uninstall()
    assert (IncrementalMaintainer, "on_event") in wrapped
    assert (IncrementalMaintainer, "flush") in wrapped

"""The benchmark tracer's targets: every function ``perfbench/spans.py``
wraps must exist under its name, and the arguments its hooks read must bind,
or a traced benchmark run reports the layer missing."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from crtorsion.spectra import cp1_spectrum, heat_supertrace_N
from crtorsion.torsion import torsion_report

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: every (module, function) the tracer wraps: the spans, and the Galerkin
#: block counter that ``Tracer.install`` looks up on its own
TARGETS = sorted(
    {(home, name) for _, home, name in _load_spans().SPANS}
    | {("crtorsion.oracle", "galerkin_block_eigenvalues")}
)


@pytest.mark.parametrize("home, name", TARGETS, ids=lambda x: x)
def test_tracer_target_resolves(home, name):
    assert callable(getattr(importlib.import_module(home), name, None))


def test_hooked_arguments_bind():
    spec = cp1_spectrum(8, 64)
    report_args = inspect.signature(torsion_report).bind_partial(spec, None, 8).arguments
    assert report_args["m"] == 8
    trace_args = inspect.signature(heat_supertrace_N).bind_partial(spec, 0.5, False).arguments
    assert trace_args["spec"] is spec

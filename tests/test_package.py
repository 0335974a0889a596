"""The package namespace: lazily loaded layers and the public names.

``import rbkit`` registers ratlaurent, exterior, halfspace, solitons and
flows in ``sys.modules`` without running them; a layer runs on its first
attribute access, and each command reaches only the layers it runs.  A
layer that has not run is still an ``importlib.util`` lazy module, whose
class becomes ``types.ModuleType`` when it loads, so its type shows
whether it has run without loading it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rbkit
from rbkit import errors, exterior, flows, halfspace, ratlaurent, solitons

LAYERS = ("ratlaurent", "exterior", "halfspace", "solitons", "flows")
CORE = ["ratlaurent", "exterior", "solitons"]

# After ``import rbkit; import rbkit.cli`` (what bench/tracer.py does before
# it reads the six modules from sys.modules), run one command and report
# which layers were registered and which had run, before and after it.
PROBE = """
import contextlib, io, json, sys, types
import rbkit
import rbkit.cli

layers = ("ratlaurent", "exterior", "halfspace", "solitons", "flows")

def run():
    return [name for name in layers if type(sys.modules["rbkit." + name]) is types.ModuleType]

registered = [name for name in layers + ("cli",) if "rbkit." + name in sys.modules]
before = run()
with contextlib.redirect_stdout(io.StringIO()):
    code = rbkit.cli.main(sys.argv[1:])
print(json.dumps({"registered": registered, "before": before, "after": run(), "code": code}))
"""


def run_probe(tmp_path, argv) -> dict:
    src = pathlib.Path(rbkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["algebra", "--n", "3"], CORE),
        (["contact", "--params", "p.json"], ["ratlaurent", "exterior", "halfspace", "solitons"]),
        (["verify", "--params", "p.json", "--trials", "1"], ["ratlaurent", "exterior", "halfspace", "solitons"]),
        (["flow", "--gen", "G1", "--n", "3", "--point", "0.1,0.2,1", "--t-max", "0.01", "--out", "t.csv"],
         CORE + ["flows"]),
    ],
    ids=["algebra", "contact", "verify", "flow"],
)
def test_each_command_runs_only_its_layers_in_a_fresh_process(tmp_path, argv, layers):
    (tmp_path / "p.json").write_text(json.dumps({"n": 3, "a": ["1", "0"], "b": "0", "c": ["0", "1"], "rho": "1"}))
    report = run_probe(tmp_path, argv)
    assert report["code"] == 0
    assert report["registered"] == [*LAYERS, "cli"]
    assert report["before"] == []
    assert report["after"] == [name for name in LAYERS if name in layers]


# the names the package exported when it imported every layer at once
PUBLIC = {
    errors: (
        "BoundaryEscape",
        "BoundaryPoint",
        "DimensionMismatch",
        "ExponentOverflow",
        "FlowEscape",
        "GradeOverflow",
        "IndexOutOfRange",
        "NonFinite",
        "NotClosed",
        "OddSize",
        "ParseError",
        "RBKitError",
    ),
    exterior: ("KForm", "VectorField", "ext_d", "interior", "lie_derivative_form", "power_wedge", "wedge"),
    flows: ("FlowSpec", "FlowState", "integrate", "write_trajectory_csv"),
    halfspace: (
        "SolitonParams",
        "SymTensor2",
        "christoffel",
        "flat",
        "inverse_metric",
        "lie_derivative_metric",
        "metric",
        "random_params",
        "rb_residual",
        "ricci",
        "scalar_curvature",
        "soliton_lambda",
    ),
    ratlaurent: ("LaurentPoly", "parse_rational"),
    solitons: (
        "AlgebraSpan",
        "ContactReport",
        "algebra_closure",
        "build_field",
        "contact_matrix",
        "contact_report",
        "contact_top_form",
        "det_bareiss",
        "generator",
        "generator_names",
        "generators",
        "lie_bracket",
        "pfaffian",
        "sl2_check",
        "structure_constants",
    ),
}
OWNED = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", OWNED, ids=[name for _, name in OWNED])
def test_public_name_is_its_layers_object(module, name):
    namespace = {}
    exec(f"from rbkit import {name}", namespace)
    assert getattr(rbkit, name) is getattr(module, name)
    assert namespace[name] is getattr(module, name)
    assert name in dir(rbkit)


def test_public_name_follows_its_layers_binding(monkeypatch):
    stand_in = object()
    monkeypatch.setattr(halfspace, "flat", stand_in)
    assert rbkit.flat is stand_in


def test_layers_and_version_are_in_the_namespace():
    for name in (*LAYERS, "errors", "__version__"):
        assert name in dir(rbkit)
    assert all(getattr(rbkit, name) is sys.modules[f"rbkit.{name}"] for name in LAYERS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rbkit.no_such_name
    with pytest.raises(ImportError):
        exec("from rbkit import no_such_name", {})
    # a private name of a layer is not re-exported
    with pytest.raises(AttributeError):
        rbkit._sum_products

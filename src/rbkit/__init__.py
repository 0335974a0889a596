"""Exact symbolic and numeric toolkit for the soliton vector fields of the
hyperbolic upper half-space: Killing and soliton residuals, dual-form
calculus, contact criteria, Lie-algebra closure, and closed-form flows.

The layers ``ratlaurent``, ``exterior``, ``halfspace``, ``solitons`` and
``flows`` load lazily (``importlib.util.LazyLoader``): each is in
``sys.modules`` and bound on the package from ``import rbkit`` on, but its
source is compiled and run only on its first attribute access.  ``errors``
loads at once.  A public name such as ``rbkit.flat`` is read from its layer
when it is asked for, so it is always the layer's current binding.  So
each ``rbkit`` command compiles only the layers it runs: ``algebra`` runs
ratlaurent, exterior and solitons; ``contact`` and ``verify`` those three
and halfspace; ``flow`` those three and flows.
"""

import importlib.util
import sys

from .errors import (
    BoundaryEscape,
    BoundaryPoint,
    DimensionMismatch,
    ExponentOverflow,
    FlowEscape,
    GradeOverflow,
    IndexOutOfRange,
    NonFinite,
    NotClosed,
    OddSize,
    ParseError,
    RBKitError,
)


def _lazy(layer: str):
    """Put rbkit.<layer> in sys.modules; its source runs on first attribute access."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


ratlaurent = _lazy("ratlaurent")
exterior = _lazy("exterior")
halfspace = _lazy("halfspace")
solitons = _lazy("solitons")
flows = _lazy("flows")

# each public name of a layer -> the layer, read on access by __getattr__
_OWNERS = {
    name: layer
    for layer, names in (
        (exterior, ("KForm", "VectorField", "ext_d", "interior", "lie_derivative_form", "power_wedge", "wedge")),
        (flows, ("FlowSpec", "FlowState", "integrate", "write_trajectory_csv")),
        (
            halfspace,
            (
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
        ),
        (ratlaurent, ("LaurentPoly", "parse_rational")),
        (
            solitons,
            (
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
        ),
    )
    for name in names
}


def __getattr__(name: str):
    layer = _OWNERS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(layer, name)


def __dir__():
    return sorted({*globals(), *_OWNERS})


__version__ = "0.1.0"

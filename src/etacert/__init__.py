"""etacert: exact q-series arithmetic and congruence certification.

Truncated integer power series, eta-quotient expansion, theta dissection,
and finite coefficient checks that certify infinite congruence families for
broken k-diamond partition counts (mod 5, 25, 7 and 49), with
machine-readable certificates.  The package exports each layer module's
own `__all__`; `oracle` stays unexported.

`import etacert` loads no layer: a layer is loaded on first use of one of
its names, and with it the layers below, so a script that only expands
series never builds the certifier.  Its whole `__all__` is then bound here,
as a star import would bind it.  A module that is no layer, `oracle` or
`cli`, loads only what it imports itself: `from etacert import oracle`
loads `series` and no other layer.
"""

import os

__version__ = "0.1.0"

_LAYERS = ("series", "theta", "finite_check", "pipelines")


def _load(layer):
    # the builtin import, unlike importlib's, shows in python -X importtime
    module = __import__(f"{__name__}.{layer}", fromlist=["__all__"])
    for name in module.__all__:
        globals().setdefault(name, getattr(module, name))
    return module


def __getattr__(name):
    if name == "__all__":
        exports = ["__version__"]
        for layer in _LAYERS:
            exports += _load(layer).__all__
        globals()["__all__"] = exports
        return exports
    # `from etacert import oracle` asks here before it imports the module; a
    # module of the package that is not a layer loads no layer
    if name in _LAYERS or not os.path.isfile(os.path.join(__path__[0], f"{name}.py")):
        for layer in _LAYERS:
            _load(layer)
            if name in globals():  # an exported name, or the layer module itself
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    exports = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *exports})

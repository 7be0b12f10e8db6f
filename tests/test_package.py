"""The package surface: `etacert` re-exports each layer module's own `__all__`."""

import importlib
import inspect

import etacert

LAYERS = ("series", "theta", "finite_check", "pipelines")


def _layer(name):
    return importlib.import_module(f"etacert.{name}")


def test_version_comes_first():
    assert etacert.__all__[0] == "__version__"
    assert etacert.__version__ == "0.1.0"


def test_no_duplicate_names():
    assert len(etacert.__all__) == len(set(etacert.__all__))


def test_every_layer_name_is_exported():
    for layer in LAYERS:
        assert set(_layer(layer).__all__) <= set(etacert.__all__), layer


def test_names_resolve_to_their_defining_module():
    layer_order = []
    for name in etacert.__all__[1:]:
        owners = [layer for layer in LAYERS if name in _layer(layer).__all__]
        assert len(owners) == 1, name
        module = _layer(owners[0])
        obj = getattr(module, name)
        assert getattr(etacert, name) is obj, name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name
        layer_order.append(LAYERS.index(owners[0]))
    assert layer_order == sorted(layer_order)  # grouped by layer, lowest layer first


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from etacert import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(etacert.__all__)
    assert all(namespace[name] is getattr(etacert, name) for name in namespace)


def test_oracle_stays_unexported():
    assert "oracle" not in etacert.__all__
    assert not [name for name in etacert.__all__ if name.startswith("naive_")]

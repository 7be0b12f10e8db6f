"""The package surface: `etacert` re-exports each layer module's own `__all__`."""

import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import etacert

LAYERS = ("series", "theta", "finite_check", "pipelines")
SRC = Path(__file__).resolve().parent.parent / "src"


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


def _fresh_interpreter(script, *flags):
    """Run `script` in a new interpreter that imports etacert from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_layers_load_on_first_use():
    # a layer is imported the first time one of its names is used, with the
    # layers below it and no layer above
    _fresh_interpreter("""
        import sys
        import etacert

        def loaded():
            return {name for name in sys.modules if name.startswith("etacert.")}

        assert loaded() == set(), loaded()
        etacert.expand_eta_quotient
        assert loaded() == {"etacert.series"}, loaded()
        etacert.RSInstance
        assert loaded() == {"etacert.series", "etacert.theta", "etacert.finite_check"}, loaded()
        etacert.KNOWN_INSTANCES
        assert "etacert.pipelines" in loaded()
    """)


def test_layer_module_resolves_as_the_first_access():
    _fresh_interpreter("""
        import etacert
        pipelines = etacert.pipelines
        import etacert.pipelines as module
        assert pipelines is module
        assert etacert.run_theorem is module.run_theorem
    """)


def test_dir_lists_the_exports_before_any_layer_loads():
    _fresh_interpreter("""
        import etacert
        names = dir(etacert)
        assert set(etacert.__all__) <= set(names)
        assert names == sorted(names)
    """)


def test_unexported_module_loads_no_other_layer():
    # `from etacert import oracle` looks the name up on the package first; that
    # lookup must not walk the layers before the import system loads the module
    _fresh_interpreter("""
        import sys
        from etacert import oracle

        loaded = {name for name in sys.modules if name.split(".")[0] == "etacert"}
        assert loaded == {"etacert", "etacert.series", "etacert.oracle"}, loaded
    """)


@pytest.mark.parametrize("work", [
    "import etacert\n"
    "etacert.expand_eta_quotient(etacert.EtaQuotientSpec(2, {1: -3, 2: 1}), 64)",
    "import etacert.theta",
    "import etacert.pipelines",
    "import etacert.cli",
], ids=["setup_probe", "theta", "pipelines", "cli"])
def test_package_imports_no_dataclasses_or_typing(work):
    # the benchmark's set-up probe, each layer up to the top one, and the
    # command line, under python -S: with no site packages loaded, only
    # etacert could import these
    _fresh_interpreter(f"""
        import sys
        start = set(sys.modules)
        exec({work!r})
        added = {{"dataclasses", "inspect", "typing"}} & (set(sys.modules) - start)
        assert not added, added
    """, "-S")


_PROBE = "import etacert\nspec = etacert.EtaQuotientSpec(2, {1: -3, 2: 1})\n"


@pytest.mark.parametrize("work,loaded", [
    (_PROBE + "etacert.expand_eta_quotient(spec, 64)", set()),
    (_PROBE + "etacert.expand_eta_quotient(spec, 300, 7)", {"etacert._carriers", "decimal"}),
    ("from etacert import oracle\n"
     "from etacert.series import EtaQuotientSpec\n"
     "oracle.naive_expand(EtaQuotientSpec(2, {1: -3, 2: 1}), 64)", {"etacert.oracle"}),
], ids=["setup_probe", "first_product", "oracle"])
def test_carriers_load_on_the_first_product(work, loaded):
    # the benchmark's set-up probe forms no product, so it compiles neither
    # the carrier module nor decimal; a modular division past the Newton
    # threshold forms products and loads both; the oracle forms its products
    # itself and loads neither.  Under python -S only etacert loads decimal
    _fresh_interpreter(f"""
        import sys
        start = set(sys.modules)
        exec({work!r})
        added = {{name for name in set(sys.modules) - start
                 if name == "decimal" or name.split(".")[0] == "etacert"}}
        assert added == {{"etacert", "etacert.series"}} | {loaded!r}, added
    """, "-S")

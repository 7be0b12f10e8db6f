"""Spans around etacert's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, in every module namespace that binds it (etacert's own
`from .series import ...` bindings included), so calls between layers are
seen.  Spans (name, start, end, parent, attributes) stay in memory;
`layer_metrics` turns them into the per-layer numbers.  Nothing under src/
changes.
"""

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("series", "theta", "finite_check", "pipelines", "cli")


def _bits(coeffs) -> int:
    return max(map(abs, coeffs), default=0).bit_length()


def _probe_before(name: str, args: tuple, kwargs: dict) -> dict:
    """Cost attributes of a call, read from its arguments."""
    if name == "series.series_mul":
        n = min(args[0].order, args[1].order) + 1
        a, b = args[0].coeffs[:n], args[1].coeffs[:n]
        abits, bbits = _bits(a), _bits(b)
        return {"len": n, "bits": max(abits, bbits), "operand_bits": n * (abits + bbits)}
    if name == "series.reduce_mod":
        coeffs, u = args[0].coeffs, args[1]
        return {"in_bits": sum(c.bit_length() or 1 for c in coeffs),
                "kept_bits": len(coeffs) * (u - 1).bit_length()}
    if name == "series.expand_eta_quotient":
        spec = args[0] if args else kwargs["spec"]
        order = args[1] if len(args) > 1 else kwargs["order"]
        return {"key": (spec.level, spec.exponents, order)}
    if name == "pipelines.run_theorem":
        return {"theorem": args[0] if args else kwargs["theorem_id"]}
    return {}


def _probe_after(name: str, result, attrs: dict) -> None:
    if name == "finite_check.verify_instance":
        attrs["verified"] = result.status == "verified"
    elif name.startswith("pipelines."):
        if hasattr(result, "steps"):
            attrs["steps"] = len(result.steps)
            attrs["failed"] = sum(not s.passed for s in result.steps)
        elif hasattr(result, "passed"):
            attrs["steps"] = 1
            attrs["failed"] = int(not result.passed)


def install_wrappers(layers, make_wrapper) -> list[tuple]:
    """Replace each public function of `layers` by make_wrapper(fn, "layer.name").

    The wrapper goes into every etacert namespace that binds the function,
    so calls between and within modules go through it.  Returns what
    `restore` needs to undo the replacement.
    """
    package = importlib.import_module("etacert")
    modules = [importlib.import_module(f"etacert.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        if layer in layers:
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = make_wrapper(fn, f"{layer}.{attr}")
    patched = []
    for module in (package, *modules):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return patched


def restore(patched: list[tuple]) -> None:
    for module, attr, fn in reversed(patched):
        setattr(module, attr, fn)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, attrs]
        self.overhead_s = 0.0  # time spent in the wrappers outside the wrapped calls
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        self._patched = install_wrappers(LAYERS, self._wrap)

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    def _open(self, name: str, attrs: dict) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """A root span for one benchmark operation; the spans it causes share it."""
        span = self._open(name, {})
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = self._open(name, _probe_before(name, args, kwargs))
            span[1] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = time.perf_counter()
                self._stack.pop()
            _probe_after(name, result, span[4])
            self.overhead_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             **{k: v for k, v in attrs.items() if k != "key"}}
            for name, start, end, parent, attrs in self.spans
        ]


def layer_metrics(spans: list[list], overhead_s: float) -> dict[str, float]:
    """Counts, inclusive times (`.s`) and self times (`.self_s`) per layer."""
    from etacert import THEOREM_IDS  # here, so run.py can import this module without etacert
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def outermost(i):
        """True when no enclosing span belongs to the same layer."""
        own, parent = layer(i), spans[i][3]
        while parent is not None:
            if layer(parent) == own:
                return False
            parent = spans[parent][3]
        return True

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return sum(spans[i][2] - spans[i][1] for n in names for i in by_name.get(n, ()))

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - children[i] for i in by_name.get(name, ()))

    def attr_values(name, key):
        """`key` of every call of `name` that returned (a call that raised has none)."""
        return [spans[i][4][key] for i in by_name.get(name, ()) if key in spans[i][4]]

    def ratio(num, den):
        return num / den if den else 0.0

    mul = "series.series_mul"
    reduce_calls = by_name.get("series.reduce_mod", ())
    expand_keys = attr_values("series.expand_eta_quotient", "key")
    verified = attr_values("finite_check.verify_instance", "verified")
    pipeline_roots = [i for i, s in enumerate(spans)
                      if layer(i) == "pipelines" and "steps" in s[4] and outermost(i)]
    theta_spans = [i for i in range(len(spans)) if layer(i) == "theta"]

    out = {
        "series.mul.calls": calls(mul),
        "series.mul.s": total(mul),
        "series.mul.max_len": max(attr_values(mul, "len"), default=0),
        "series.mul.max_bits": max(attr_values(mul, "bits"), default=0),
        "series.mul.operand_bits": sum(attr_values(mul, "operand_bits")),
        "series.invert.calls": calls("series.series_invert"),
        "series.invert.s": total("series.series_invert"),
        "series.pow.s": total("series.series_pow"),
        "series.expand.calls": len(expand_keys),
        "series.expand.s": total("series.expand_eta_quotient"),
        "series.expand.repeat_ratio": ratio(len(set(expand_keys)), len(expand_keys)),
        "series.reduce_mod.s": total("series.reduce_mod"),
        "series.reduce_mod.kept_bit_ratio": ratio(
            sum(spans[i][4]["kept_bits"] for i in reduce_calls),
            sum(spans[i][4]["in_bits"] for i in reduce_calls),
        ),
        "theta.calls": len(theta_spans),
        "theta.s": sum(spans[i][2] - spans[i][1] for i in theta_spans if outermost(i)),
        "finite_check.verify.calls": len(verified),
        "finite_check.verify.self_s": self_time("finite_check.verify_instance"),
        "finite_check.p_set.s": total("finite_check.compute_p_set"),
        "finite_check.cusp.calls": calls("finite_check.p_min", "finite_check.p_star"),
        "finite_check.cusp.s": total("finite_check.p_min", "finite_check.p_star"),
        "finite_check.revalidate.s": total("finite_check.revalidate_certificate"),
        "finite_check.verified_ratio": ratio(sum(verified), len(verified)),
    }
    theorem_time = dict.fromkeys(THEOREM_IDS, 0.0)
    for i in by_name.get("pipelines.run_theorem", ()):
        theorem_time[spans[i][4]["theorem"]] += spans[i][2] - spans[i][1]
    out.update({f"pipelines.theorem.{tid}.s": s for tid, s in theorem_time.items()})
    out.update({
        "pipelines.lift.calls": calls("pipelines.lift_congruence"),
        "pipelines.lift.self_s": self_time("pipelines.lift_congruence"),
        "pipelines.b_series.s": total("pipelines.b_series"),
        "pipelines.steps": sum(spans[i][4]["steps"] for i in pipeline_roots),
        "pipelines.steps_failed": sum(spans[i][4]["failed"] for i in pipeline_roots),
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "trace.overhead_s": overhead_s,
    })
    return out

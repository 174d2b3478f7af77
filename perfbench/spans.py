"""Per-layer spans for a traced benchmark pass.

`Tracer.install()` wraps the public entry points of every layer module of
`intforms`: its public functions, and the public methods and arithmetic
operators of its public classes.  A module function is rebound in every
`intforms` module that holds it, so names bound by `from ... import` are
traced where they are called.  Methods are wrapped on the class, which
covers every caller.

A span counts its calls and its self time: the time inside it minus the
time inside the spans it calls.  Nothing is charged for the bookkeeping or
for reading operand shapes, so the self times of all layers add up to the
traced time spent in `intforms` calls.  Sympy time counts towards the layer
that called it.

This module imports nothing from `intforms` at import time, so the
benchmark's `run.py` can use `layer_metrics` without loading the program.
"""

import functools
import inspect
import sys
import time

LAYERS = (
    "scalars",
    "ncalg",
    "linmap",
    "multider",
    "dga",
    "homconn",
    "integrals",
    "descent",
    "matrixcalc",
    "linalg",
    "presets",
    "parser",
    "suites",
    "report",
)

OPERATORS = frozenset((
    "__init__",
    "__call__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "__neg__",
    "__eq__",
    "__str__",
))

# Members whose body only stores attributes or looks a value up.  Each runs
# up to hundreds of thousands of times per pass and a span around it costs
# more than its body, so their time stays with the caller.
UNTRACED = frozenset((
    "scalars.ScalarContext.coerce",
    "scalars.ScalarRF.__init__",
    "scalars.ScalarRF.is_zero",
    "ncalg.AlgElement.__init__",
    "ncalg.AlgElement.is_zero",
    "ncalg.TensorElement.__init__",
    "linmap.MapMatrix.entry",
    "dga.CalculusSpec.index",
    "dga.CalculusSpec.basis",
    "dga.FormElement.__init__",
    "linalg.LinearSystem.__init__",
))

# Counted calls: metric name -> the spans whose completed calls it sums.
# A call that returns NotImplemented hands the operation to the other
# operand and is not counted.
COUNTS = {
    "scalars.addsub_calls": (
        "scalars.ScalarRF.__add__",
        "scalars.ScalarRF.__radd__",
        "scalars.ScalarRF.__sub__",
        "scalars.ScalarRF.__rsub__",
    ),
    "scalars.div_calls": (
        "scalars.ScalarRF.__truediv__",
        "scalars.ScalarRF.__rtruediv__",
    ),
    "ncalg.element_calls": ("ncalg.Presentation.element",),
    "ncalg.algmul_calls": ("ncalg.AlgElement.__mul__",),
    "ncalg.hopf_calls": ("ncalg.coproduct", "ncalg.counit", "ncalg.antipode"),
    "linmap.on_word_calls": ("linmap.MapExpr.on_word", "linmap.MapMatrix.on_word"),
    "multider.partial_calls": ("multider.TwistedMultiDerivation.partial",),
    "dga.d_calls": ("dga.d",),
    "dga.right_coords_calls": ("dga.right_coords",),
    "homconn.nabla_calls": ("homconn.nabla",),
    "linalg.add_calls": ("linalg.LinearSystem.add",),
    "linalg.rank_calls": ("linalg.LinearSystem.rank",),
    "linalg.solve_calls": ("linalg.LinearSystem.solve",),
}

SCALAR_PRODUCTS = ("scalars.ScalarRF.__mul__", "scalars.ScalarRF.__rmul__")
SHAPES = ("mono", "laurent", "rational")
ELEMENT = "ncalg.Presentation.element"
LOAD = "presets.Preset.load"

# The per-layer metrics in the order the benchmark reports them.
METRICS = (
    ("scalars.mul_calls", "count"),
    ("scalars.mul_mono_calls", "count"),
    ("scalars.mul_laurent_calls", "count"),
    ("scalars.mul_rational_calls", "count"),
    ("scalars.addsub_calls", "count"),
    ("scalars.div_calls", "count"),
    ("scalars.self_s", "s"),
    ("ncalg.element_calls", "count"),
    ("ncalg.element_words", "count"),
    ("ncalg.algmul_calls", "count"),
    ("ncalg.hopf_calls", "count"),
    ("ncalg.self_s", "s"),
    ("linmap.on_word_calls", "count"),
    ("linmap.self_s", "s"),
    ("multider.partial_calls", "count"),
    ("multider.self_s", "s"),
    ("dga.d_calls", "count"),
    ("dga.right_coords_calls", "count"),
    ("dga.self_s", "s"),
    ("homconn.nabla_calls", "count"),
    ("homconn.self_s", "s"),
    ("integrals.self_s", "s"),
    ("descent.self_s", "s"),
    ("matrixcalc.self_s", "s"),
    ("linalg.add_calls", "count"),
    ("linalg.rank_calls", "count"),
    ("linalg.solve_calls", "count"),
    ("linalg.self_s", "s"),
    ("presets.load_s", "s"),
    ("parser.self_s", "s"),
    ("suites.self_s", "s"),
    ("report.self_s", "s"),
)


class Tracer:
    """Call counts and self times of the wrapped `intforms` entry points.

    `spans` maps a span name (`module.function` or `module.Class.member`)
    to [calls, completed calls, self seconds, inclusive seconds]; `shapes`
    counts scalar products by operand shape, and `element_words` the words
    handed to `Presentation.element`.
    """

    def __init__(self):
        self.spans = {}
        self.shapes = dict.fromkeys(SHAPES, 0)
        self.element_words = 0
        # one accumulator per open span for the time of the spans it calls;
        # the first entry collects the time of top-level spans
        self._nested = [0.0]

    def install(self):
        """Wrap every layer's public entry points; call once per process."""
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "intforms" or name.startswith("intforms.")]
        for layer in LAYERS:
            module = sys.modules[f"intforms.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = self._wrap(f"{layer}.{name}", obj)
                    for holder in modules:
                        for bound, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, bound, span)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        from intforms.scalars import ScalarRF

        self._shape_of = _shape_reader(ScalarRF)

    def _wrap_class(self, layer, cls):
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if key in UNTRACED:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, name, type(member)(self._wrap(key, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, name, self._wrap(key, member))

    def _wrap(self, key, fn):
        record = self.spans.setdefault(key, [0, 0, 0.0, 0.0])
        nested = self._nested
        perf = time.perf_counter
        after = None
        if key in SCALAR_PRODUCTS:
            after = self._count_shape
        elif key == ELEMENT:
            after = self._count_words

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = perf()
            nested.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                inner = nested.pop()
                record[0] += 1
                record[2] += end - start - inner
                record[3] += end - start
            if result is not NotImplemented:
                record[1] += 1
                if after is not None:
                    after(args, kwargs)
            nested[-1] += perf() - start
            return result

        return span

    def _count_shape(self, args, kwargs):
        left = self._shape_of(args[0])
        right = self._shape_of(args[1])
        if "rational" in (left, right):
            self.shapes["rational"] += 1
        elif left == right == "mono":
            self.shapes["mono"] += 1
        else:
            self.shapes["laurent"] += 1

    def _count_words(self, args, kwargs):
        coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
        self.element_words += len(coeffs)

    def reset_stack(self):
        """Drop spans left open by an exception that skipped their exit."""
        del self._nested[1:]

    def snapshot(self):
        return {
            "spans": {key: list(rec) for key, rec in self.spans.items() if rec[0]},
            "shapes": dict(self.shapes),
            "element_words": self.element_words,
        }


def _shape_reader(scalar_type):
    # read with the unwrapped methods, so that shape reading opens no span
    numer_terms = scalar_type.numer_terms.__wrapped__
    denom_terms = scalar_type.denom_terms.__wrapped__

    def shape(value):
        if not isinstance(value, scalar_type):
            return "mono"  # an int or Fraction operand is a constant
        if len(denom_terms(value)) != 1:
            return "rational"
        return "mono" if len(numer_terms(value)) <= 1 else "laurent"

    return shape


def layer_metrics(snapshot):
    """Per-layer metric values, by name, from one `Tracer.snapshot()`."""
    spans = snapshot["spans"]

    def completed(keys):
        return sum(spans[key][1] for key in keys if key in spans)

    out = {}
    shapes = snapshot["shapes"]
    out["scalars.mul_calls"] = completed(SCALAR_PRODUCTS)
    for shape in SHAPES:
        out[f"scalars.mul_{shape}_calls"] = shapes[shape]
    for name, keys in COUNTS.items():
        out[name] = completed(keys)
    out["ncalg.element_words"] = snapshot["element_words"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            rec[2] for key, rec in spans.items() if key.split(".", 1)[0] == layer
        )
    out["presets.load_s"] = spans.get(LOAD, [0, 0, 0.0, 0.0])[3]
    return {name: out[name] for name, _ in METRICS}

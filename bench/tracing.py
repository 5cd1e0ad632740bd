"""
Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install(gh)` replaces the layer entry points of an imported
`gradedhecke` with timing wrappers: methods are replaced on their class, and
module-level functions in every `gradedhecke.*` namespace that binds the same
function object (so `from .linalg import mat_mul` copies are wrapped too).
`uninstall()` puts every original back.

Spans are aggregated, not stored: each wrapper keeps a call count and a self
time, which is the span's duration minus the part covered by nested wrapped
calls.  Wrappers record nothing while `active` is false, so the benchmark
can generate inputs and check outputs between ops without counting them.
A name that no longer exists in the library is skipped, and its metrics
read 0.
"""

from __future__ import annotations

import functools
import sys
import time
import types

FRACTION_DUNDERS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__pos__",
    "__neg__", "__abs__")
CYC_METHODS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")
POLYNOMIAL_METHODS = {
    "__init__": "init", "__add__": "add", "__sub__": "sub", "__rsub__": "rsub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "rmul", "scale": "scale",
    "__pow__": "pow", "substitute_linear": "substitute_linear",
    "subs_value": "subs_value", "evaluate": "evaluate"}
WEYL_METHODS = ("multiply", "inverse", "word_element", "simple", "gamma_element",
                "act_root", "act_point", "act_polynomial", "reflection",
                "epsilon_characters")
LINALG_FUNCTIONS = ("zero_matrix", "identity", "mat_mul", "mat_vec", "mat_add",
                    "mat_sub", "mat_scale", "mat_pow", "transpose", "mat_eq", "rref",
                    "rank", "nullspace", "solve", "inverse", "min_poly", "char_poly",
                    "squarefree_part", "rational_roots")


def _targets():
    """(span key, owner, attribute, hook name or None) for every entry point.

    The owner is a dotted path below the package: a class for methods, a
    module for functions.  Attribute "*" means every function on the class.
    """
    out = [(f"scalars.fraction.{name}", "fractions:Fraction", name, None)
           for name in FRACTION_DUNDERS]
    out += [(f"scalars.cyc.{name}", "scalars.Cyc", name, None) for name in CYC_METHODS]
    out += [(f"polynomials.{short}", "polynomials.Polynomial", name, None)
            for name, short in POLYNOMIAL_METHODS.items()]
    out.append(("polynomials.divide_by_linear", "polynomials", "divide_by_linear", None))
    out += [(f"weylgroups.{name}", "weylgroups.ExtendedWeylGroup", name,
             "act_polynomial" if name == "act_polynomial" else None)
            for name in WEYL_METHODS]
    out.append(("weylgroups.cocycle_value", "weylgroups.Cocycle", "value", None))
    out.append(("hecke.multiply", "hecke.HeckeAlgebra", "multiply", "multiply"))
    out.append(("hecke.move_poly", "hecke.HeckeAlgebra", "_move_poly", "move_poly"))
    out += [(f"linalg.{name}", "linalg", name, "mat_mul" if name == "mat_mul" else None)
            for name in LINALG_FUNCTIONS]
    out.append(("modules.induce_from_character", "modules", "induce_from_character", None))
    out.append(("modules.validate", "modules.FiniteDimModule", "validate", None))
    out.append(("modules.weight_decomposition", "modules", "weight_decomposition", None))
    out.append(("modules.restrict_to_group_algebra", "modules",
                "restrict_to_group_algebra", None))
    out.append(("groupalgebra", "groupalgebra.TwistedGroupAlgebra", "*", None))
    out.append(("homology.ext_self_induced", "homology", "ext_self_induced", None))
    out.append(("cli.export", "cli", "cmd_export", None))
    out.append(("presets.build", "presets", "build_preset", None))
    out.append(("presets.build", "presets", "algebra_from_config", None))
    return out


# name -> (unit, better); the order is the order of BENCHMARK.json "per_layer"
PER_LAYER_METRICS = {}
for _layer in ("scalars.fraction", "scalars.cyc"):
    PER_LAYER_METRICS[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower")
for _span in ("polynomials", "polynomials.mul", "polynomials.substitute_linear",
              "polynomials.divide_by_linear", "weylgroups", "weylgroups.multiply",
              "weylgroups.act_polynomial"):
    PER_LAYER_METRICS[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER_METRICS[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER_METRICS.update({
    "weylgroups.act_polynomial.distinct_frac": ("ratio", "lower"),
    "hecke.multiply.calls": ("count", "lower"),
    "hecke.multiply.self_s": ("s", "lower"),
    "hecke.move_poly.calls": ("count", "lower"),
    "hecke.move_poly.self_s": ("s", "lower"),
    "hecke.move_poly.distinct_frac": ("ratio", "lower"),
    "hecke.terms_out": ("count", "lower"),
    "hecke.peak_terms": ("count", "lower"),
    "linalg.calls": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "linalg.mat_mul.calls": ("count", "lower"),
    "linalg.mat_mul.self_s": ("s", "lower"),
    "linalg.mat_mul.scalar_mults": ("count", "lower"),
    "linalg.mat_pow.self_s": ("s", "lower"),
    "linalg.min_poly.self_s": ("s", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.self_s": ("s", "lower"),
    "linalg.rational_roots.self_s": ("s", "lower"),
    "modules.induce_from_character.self_s": ("s", "lower"),
    "modules.validate.self_s": ("s", "lower"),
    "modules.weight_decomposition.self_s": ("s", "lower"),
    "modules.restrict_to_group_algebra.self_s": ("s", "lower"),
    "groupalgebra.self_s": ("s", "lower"),
    "homology.ext_self_induced.self_s": ("s", "lower"),
    "cli.export.self_s": ("s", "lower"),
    "cli.export.bytes": ("bytes", "lower"),
    "presets.build.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _resolve(gh, dotted):
    """The class or module named by a path below the package, or None."""
    if dotted.startswith("fractions:"):
        import fractions
        return getattr(fractions, dotted.split(":", 1)[1], None)
    obj = gh
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Timing wrappers on the layer entry points, with their spans and counts."""

    def __init__(self):
        self.active = False
        self.spans: dict[str, list] = {}      # key -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self._stack: list[list[float]] = []   # child seconds of each open span
        self._patches: list[tuple] = []       # (owner, attribute, original value)
        self._distinct: dict[str, set] = {}
        self._instances: dict[int, tuple] = {}  # id -> (object, serial), keeps ids unique

    # -- counters ----------------------------------------------------------------
    def add(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _peak(self, name: str, value: int):
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def _serial(self, obj) -> int:
        entry = self._instances.get(id(obj))
        if entry is None:
            entry = (obj, len(self._instances))
            self._instances[id(obj)] = entry
        return entry[1]

    def _distinct_pairs(self, name, owner, first, monomials):
        seen = self._distinct.setdefault(name, set())
        serial = self._serial(owner)
        for e in monomials:
            seen.add((serial, first, e))
        self.add(f"{name}.monomials", len(monomials))

    def _hook_act_polynomial(self, args, result):
        group, u, poly = args[:3]
        self._distinct_pairs("weylgroups.act_polynomial", group, u.index, poly.terms)

    def _hook_move_poly(self, args, result):
        algebra, p, v = args[:3]
        self._distinct_pairs("hecke.move_poly", algebra, v.index, p.terms)

    def _hook_multiply(self, args, result):
        terms = sum(len(q.terms) for q in result.terms.values())
        self.add("hecke.terms_out", terms)
        self._peak("hecke.peak_terms", terms)

    def _hook_mat_mul(self, args, result):
        a, b = args[:2]
        self.add("linalg.mat_mul.scalar_mults", len(a) * len(b) * (len(b[0]) if b else 0))

    # -- wrapping ------------------------------------------------------------------
    def _wrap(self, key, fn, hook):
        stats = self.spans.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                # keep the hook's own time out of the enclosing span's self time
                hook_start = clock()
                hook(args, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, gh):
        """Wrap every target that exists in this version of the library."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if isinstance(m, types.ModuleType)
                      and (name == gh.__name__ or name.startswith(gh.__name__ + "."))]
        for prefix, owner_path, attr, hook_name in _targets():
            owner = _resolve(gh, owner_path)
            if owner is None:
                continue
            hook = getattr(self, f"_hook_{hook_name}") if hook_name else None
            if isinstance(owner, type):
                names = [n for n, v in vars(owner).items() if isinstance(v, types.FunctionType)] \
                    if attr == "*" else [attr]
                for name in names:
                    self._wrap_method(owner, name, f"{prefix}.{name}" if attr == "*"
                                      else prefix, hook)
            else:
                original = getattr(owner, attr, None)
                if not callable(original):
                    continue
                wrapped = self._wrap(prefix, original, hook)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, name, value))
                            setattr(ns, name, wrapped)

    def _wrap_method(self, cls, name, key, hook):
        raw = vars(cls).get(name)
        if raw is None:
            return
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(key, raw.__func__, hook))
        elif isinstance(raw, types.FunctionType):
            replacement = self._wrap(key, raw, hook)
        else:
            return
        self._patches.append((cls, name, raw))
        setattr(cls, name, replacement)

    def uninstall(self):
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------------
    def _sum(self, prefix, field):
        return sum(v[field] for k, v in self.spans.items()
                   if k == prefix or k.startswith(prefix + "."))

    def _distinct_frac(self, name):
        total = self.counts.get(f"{name}.monomials", 0)
        return len(self._distinct.get(name, ())) / total if total else 0.0

    def metrics(self, overhead_frac: float) -> dict:
        out = {}
        for name in PER_LAYER_METRICS:
            span, _, field = name.rpartition(".")
            if field in ("calls", "self_s"):
                value = self._sum(span, 0 if field == "calls" else 1)
            elif field == "distinct_frac":
                value = self._distinct_frac(span)
            elif name == "hecke.peak_terms":
                value = self.peaks.get(name, 0)
            elif name == "trace.overhead_frac":
                value = overhead_frac
            else:
                value = self.counts.get(name, 0)
            out[name] = value
        return out

    def breakdown(self) -> list[tuple[str, int, float]]:
        """(span key, calls, self seconds) for every wrapped entry point that ran."""
        return sorted(((k, v[0], v[1]) for k, v in self.spans.items() if v[0]),
                      key=lambda row: -row[2])


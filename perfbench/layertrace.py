"""Per-layer self time and work counts for the modules of ``src/fraclsq``.

A layer is one module of the package; ``functions`` and ``errors`` do no
measurable work and are not layers.  ``LayerTracer`` wraps every public
function of each layer (and the public methods of its public classes) and
rebinds every name that refers to the original inside the package: module
globals, such as ``fraclsq.lsq.solve_normal_equations`` or
``fraclsq.pricing.fit_discrete_normal``, and module-level dicts such as
``reproduce.TABLE_JOBS``.  Calls between layers and within a layer therefore
all pass through a wrapper.  Each wrapper measures its inclusive time; a
layer's self time is that time minus the time of the wrapped calls made
inside it.  Whatever a traced job spends outside every wrapper is the
benchmark's own time.

Patches are applied with ``install()`` and undone with ``remove()``, so the
same process can run a job untraced and then traced.  Spans are not kept:
the tracer accumulates self time, call and error counts, a few work
counters, and the inclusive times of the operations in ``LOGGED``.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("fraccalc", "solvers", "lsq", "fracpoly", "quadrature", "orthobasis",
          "pricing", "special", "reproduce", "cli")
RULE_CONSTRUCTORS = ("gauss_legendre", "gauss_jacobi", "substituted_rule", "weighted_rule")
#: operations whose inclusive times are kept per call (baseline table)
LOGGED = frozenset({
    "fraccalc.solve_fde", "pricing.price_american_put", "lsq.fit_discrete_normal",
    "lsq.predict", *(f"reproduce.reproduce_t{k}" for k in (1, 2, 4, 6, 8, 9, 10)),
})


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(x):
    try:
        return len(x)
    except TypeError:
        return 1


class LayerTracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.log = []
        self._stack = []
        self._patches = []
        self._lsq = importlib.import_module("fraclsq.lsq")
        self._plan()

    # -- patch plan ---------------------------------------------------------

    def _plan(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fraclsq.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            self._patches.append(
                                (obj, mname, meth, self._wrap(layer, mname, meth), True))
        for modname, mod in list(sys.modules.items()):
            if modname != "fraclsq" and not modname.startswith("fraclsq."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((vars(mod), name, obj, wrappers[id(obj)][1], False))
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patches.append((obj, key, val, wrappers[id(val)][1], False))

    def install(self):
        for target, key, _orig, wrapper, is_attr in self._patches:
            if is_attr:
                setattr(target, key, wrapper)
            else:
                target[key] = wrapper

    def remove(self):
        for target, key, orig, _wrapper, is_attr in self._patches:
            if is_attr:
                setattr(target, key, orig)
            else:
                target[key] = orig

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        hook = getattr(self, f"_on_{layer}_{name}", None)
        if layer == "quadrature" and name in RULE_CONSTRUCTORS:
            hook = functools.partial(self._on_rule_built, name)
        stack, self_s, counts = self._stack, self.self_s, self.counts
        logged = qual in LOGGED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            counts[f"{layer}.calls"] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.errors"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if logged:
                self.log.append((qual, dt))
            if hook is not None:
                hook(args, kwargs, result, parent[0] if parent else None, dt)
            return result
        return wrapper

    # -- work counters (hooks are looked up by layer and function name) -----

    def _on_solvers_solve_normal_equations(self, args, kwargs, result, parent, dt):
        size = _size(_arg(args, kwargs, 1, "b"))
        self.counts["solvers.size_max"] = max(self.counts["solvers.size_max"], size)
        if _arg(args, kwargs, 2, "exact_A") is not None:
            self.counts["fraccalc.gram_entries"] += size * size

    def _fit(self, points):
        self.counts["lsq.fits"] += 1
        self.counts["lsq.fit_points"] += points

    def _on_lsq_fit_discrete_normal(self, args, kwargs, result, parent, dt):
        points, n = len(_arg(args, kwargs, 0, "data")), _arg(args, kwargs, 2, "n")
        self._fit(points)
        self.counts["lsq.tensor_bytes"] += points * (n + 1) ** 2 * 8
        if parent == "pricing":
            self.counts["pricing.itm_points"] += points

    def _on_lsq_fit_continuous_normal(self, args, kwargs, result, parent, dt):
        rule = _arg(args, kwargs, 5, "rule")
        self._fit(len(rule) if rule is not None else self._lsq.DEFAULT_QUAD_POINTS)

    def _on_lsq_fit_projection(self, args, kwargs, result, parent, dt):
        self._fit(len(_arg(args, kwargs, 1, "basis").points))

    def _on_lsq_predict(self, args, kwargs, result, parent, dt):
        points = _size(_arg(args, kwargs, 1, "x"))
        self.counts["lsq.predict_points"] += points
        self.counts[f"shape.predict_points.{_arg(args, kwargs, 0, 'fit').basis}"] += points

    def _on_fracpoly_muntz_legendre_eval(self, args, kwargs, result, parent, dt):
        self.counts["fracpoly.ml_evals"] += 1

    def _on_rule_built(self, name, args, kwargs, result, parent, dt):
        if parent == "quadrature":
            return  # part of an enclosing rule construction
        self.counts["quadrature.rules"] += 1
        self.counts["quadrature.nodes"] += len(result)
        if parent == "fraccalc":
            # solve_fde's quadrature route: x^step substitution or plain Gauss
            self.counts[f"shape.fde_rule.{name}"] += 1

    def _on_orthobasis_build_continuous(self, args, kwargs, result, parent, dt):
        self._basis_built(result)

    def _on_orthobasis_build_discrete(self, args, kwargs, result, parent, dt):
        self._basis_built(result)

    def _basis_built(self, basis):
        self.counts["orthobasis.builds"] += 1
        self.counts["orthobasis.point_rungs"] += len(basis.points) * (basis.degree_index + 1)

    def _on_orthobasis_ladder_values(self, args, kwargs, result, parent, dt):
        self.counts["orthobasis.point_rungs"] += _size(args[1]) * len(result)

    def _on_pricing_simulate_paths(self, args, kwargs, result, parent, dt):
        cfg = _arg(args, kwargs, 0, "cfg")
        self.counts["pricing.path_steps"] += cfg.paths * cfg.steps
        self.counts["pricing.simulate_s"] += dt

    def _on_pricing_price_american_put(self, args, kwargs, result, parent, dt):
        gbm = _arg(args, kwargs, 0, "job").gbm
        dates = gbm.steps - 1
        self.counts["pricing.exercise_dates"] += dates
        self.counts["pricing.regressed_dates"] += dates - len(result.skipped_dates)
        self.counts["pricing.itm_candidates"] += gbm.paths * dates

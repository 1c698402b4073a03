"""Run one wres4 CLI op in this process with spans around each layer.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/tracer.py SPANS_FILE <verb> [cli flags ...]

The op's stdout and exit status are those of ``python -m wres4.cli``.
As each ``wres4`` module finishes importing, the public functions named
in ``TARGETS`` are wrapped, and every binding of the original in any
loaded ``wres4`` module (``from .x import f`` names, aliases, module-level
dicts such as the CLI's renderer table) is pointed at the wrapper.  The
program's own code is left untouched.

Spans are kept in memory as ``[name, start, end, parent, tag]`` and written
to SPANS_FILE as JSON when the op ends, together with the call counters of
the hottest leaf functions (which get counters instead of spans) and the
time ``import wres4.cli`` took.  Spans and counters cover ``cli.run`` only,
so module-level work done while importing is not mixed into them.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time

SPAN = "span"
COUNT = "count"


def _label(args, result):
    return args[0].label


def _rel_err(args, result):
    return result["abs_error"] / max(1.0, abs(result["symbolic"]))


def _size(args, result):
    return len(result.encode())


# (module, attribute path, metric prefix, kind, tag function)
TARGETS = (
    ("wres4.cli", "run", "cli.run", SPAN, None),
    ("wres4.cli", "render_json", "cli.render_json", SPAN, _size),
    ("wres4.scalars", "reduce_sphere", "scalars.reduce_sphere", SPAN, None),
    ("wres4.scalars", "Poly.__mul__", "scalars.Poly.mul", COUNT, None),
    ("wres4.scalars", "GaussianRational.__init__",
     "scalars.GaussianRational.new", COUNT, None),
    ("wres4.clifford", "CliffordElem.__mul__", "clifford.CliffordElem.mul",
     SPAN, None),
    ("wres4.clifford", "spin_trace", "clifford.spin_trace", SPAN, None),
    ("wres4.symbols", "build_sigma", "symbols.build_sigma", SPAN, None),
    ("wres4.symbols", "derive", "symbols.derive", SPAN, None),
    ("wres4.symbols", "restrict_on_shell", "symbols.restrict_on_shell",
     SPAN, None),
    ("wres4.symbols", "parametrix", "symbols.parametrix", SPAN, None),
    ("wres4.symbols", "BoundarySymbol.canonical",
     "symbols.BoundarySymbol.canonical", SPAN, None),
    ("wres4.symbols", "BoundarySymbol.mul", "symbols.BoundarySymbol.mul",
     SPAN, None),
    ("wres4.halfplane", "pi_plus", "halfplane.pi_plus", SPAN, None),
    ("wres4.halfplane", "partial_fractions", "halfplane.partial_fractions",
     SPAN, None),
    ("wres4.halfplane", "line_integral", "halfplane.line_integral",
     SPAN, None),
    ("wres4.halfplane", "trace_symbol", "halfplane.trace_symbol", SPAN, None),
    ("wres4.sphere", "integrate_sphere", "sphere.integrate_sphere",
     SPAN, None),
    ("wres4.anchors", "anchor", "anchors.lookup", SPAN, None),
    ("wres4.anchors", "has_anchor", "anchors.lookup", SPAN, None),
    ("wres4.anchors", "compare", "anchors.compare", SPAN, None),
    ("wres4.sexpr", "dumps", "sexpr.dumps", SPAN, _size),
    ("wres4.boundary", "assemble_phi", "boundary.assemble_phi", SPAN, None),
    ("wres4.boundary", "compute_case", "boundary.compute_case", SPAN, _label),
    ("wres4.interior", "trace_interior", "interior.trace_interior",
     SPAN, None),
    ("wres4.oracle", "crosscheck_case", "oracle.crosscheck_case",
     SPAN, _rel_err),
    ("wres4.oracle", "quad_line", "oracle.quad_line", SPAN, None),
    ("wres4.oracle", "quad_sphere", "oracle.quad_sphere", COUNT, None),
    ("wres4.oracle", "CompiledSymbol.__call__", "oracle.CompiledSymbol.call",
     COUNT, None),
    ("wres4.oracle", "CompiledSymbol.__init__", "oracle.CompiledSymbol.init",
     COUNT, None),
)


def resolve(module, path: str):
    """The object owning the last attribute of ``path`` and its value."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.current = -1

    def reset(self):
        self.spans.clear()
        for cell in self.counts.values():
            cell[0] = 0
        self.current = -1

    def span(self, fn, name: str, tag_fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self.current, None]
            parent = self.current
            self.current = len(spans)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if tag_fn is not None:
                    rec[4] = tag_fn(args, result)
                return result
            except BaseException as exc:
                rec[4] = "raised:" + type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                self.current = parent

        return wrapper

    def counter(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def instrument(self, module_name: str):
        """Wrap the targets defined in one freshly imported module and
        rebind every reference to the originals."""
        module = sys.modules[module_name]
        for mod, path, name, kind, tag_fn in TARGETS:
            if mod != module_name:
                continue
            owner, attr, original = resolve(module, path)
            wrapper = (self.span(original, name, tag_fn) if kind == SPAN
                       else self.counter(original, name))
            setattr(owner, attr, wrapper)
            rebind(original, wrapper)

    def dump(self, path: str, import_s: float):
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans,
                       "counts": {k: c[0] for k, c in self.counts.items()}},
                      fh)


def rebind(original, wrapper):
    """Point every module-level binding of ``original`` in the loaded
    ``wres4`` modules, including values of module-level dicts, at
    ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "wres4" and not mod_name.startswith("wres4."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


class InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Finds ``wres4`` submodules like the default path finder, records a
    ``<module>.import`` span for each, and instruments it once loaded."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("wres4."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        tracer = self.tracer
        span = tracer.span(spec.loader.exec_module,
                           fullname[len("wres4."):] + ".import", None)

        def exec_module(module):
            span(module)
            tracer.instrument(fullname)

        spec.loader.exec_module = exec_module
        return spec


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    sys.meta_path.insert(0, InstrumentingFinder(tracer))
    start = time.perf_counter()
    import wres4.cli
    import_s = time.perf_counter() - start
    tracer.reset()
    try:
        return wres4.cli.run(cli_argv)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

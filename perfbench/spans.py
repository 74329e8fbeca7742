"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every binding the
program looks it up through (`facepipe.cli.load_ply` and
`facepipe.pointcloud.load_ply` are two bindings of one function) and, for
methods, on the class. Each call records a span: name, start, end, parent
span and the command it ran under. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) of every traced callable, under its layer name
# "<module>.<attribute>". Dotted attributes are methods.
TRACED = [
    ("pointcloud", "load_ply"),
    ("pointcloud", "save_ply"),
    ("pointcloud", "NeighborIndex.query_many"),
    ("registration", "preprocess_with_result"),
    ("registration", "detect_nose_tip"),
    ("registration", "rigid_icp"),
    ("morphable", "make_toy_model"),
    ("morphable", "fit"),
    ("morphable", "displacement_field"),
    ("morphable", "transfer_expression"),
    ("augmentation", "augment_subject"),
    ("augmentation", "apply_patches"),
    ("depthmap", "render_depth"),
    ("depthmap", "median_filter"),
    ("depthmap", "normalize"),
    ("depthmap", "resize"),
    ("depthmap", "export_pgm"),
    ("depthmap", "load_pgm"),
    ("embedding", "baseline_train"),
    ("embedding", "pca_fit"),
    ("embedding", "pca_fit_variance"),
    ("embedding", "pca_transform"),
    ("embedding", "sqrt_normalize"),
    ("embedding", "BaselineBackend.embed"),
    ("embedding", "ExternalBackend.embed"),
    ("embedding", "feature_hash"),
    ("matching", "identify"),
    ("matching", "cmc"),
    ("matching", "roc"),
    ("cli", "cmd_preprocess"),
    ("cli", "cmd_augment"),
    ("cli", "cmd_render"),
    ("cli", "cmd_evaluate"),
]

# Layers whose return value carries an iteration count and a convergence flag.
ITERATIVE = {"registration.rigid_icp", "morphable.fit"}


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{m}.{a}" for m, a in TRACED]
        # one span per call: [name id, start, end, parent span or -1, command]
        self.spans: list[list] = []
        # per iterative layer: [iterations summed, converged runs]
        self.results = {name: [0, 0] for name in ITERATIVE}
        self.command = ""
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        stack, spans, results = self._stack, self.spans, self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if results is not None:
                results[0] += out.iterations_used
                results[1] += bool(out.converged)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced callable; call once, before the program runs."""
        for name_id, (module, attr) in enumerate(TRACED):
            owner = importlib.import_module(f"facepipe.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name_id, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name_id, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "facepipe" and not mod_name.startswith("facepipe."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def summarize(names: list[str], spans: list[list], results: dict) -> dict:
    """Per layer: calls, busy_s (summed span time) and self_s (busy_s minus
    the time its child spans cover), plus iteration totals and convergence."""
    n = len(names)
    calls, busy, child = [0] * n, [0.0] * n, [0.0] * n
    for name_id, start, end, parent, _ in spans:
        calls[name_id] += 1
        busy[name_id] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start
    out = {}
    for i, name in enumerate(names):
        out[name] = {"calls": calls[i], "busy_s": busy[i], "self_s": busy[i] - child[i]}
    for name, (iterations, converged) in results.items():
        runs = out[name]["calls"]
        out[name]["iterations"] = iterations
        out[name]["converged_ratio"] = converged / runs if runs else 0.0
    return out

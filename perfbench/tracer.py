"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the ``pidg`` modules with
timing wrappers for the duration of a ``with`` block, and wraps the
vector-Jacobian product (VJP) closure of every recorded tape node by its op
name when a tape is swept. Spans nest: a layer's self time is its duration
minus the time of the spans it called. Nothing in ``pidg`` knows about it.

A function is patched in every ``pidg`` module that holds it, because the
modules import each other's functions by name (``train`` calls its own
``render`` binding, not ``pidg.render.render``). Note that ``pidg.render``,
the package attribute, is the re-exported ``render`` function and not the
submodule, so modules are always looked up in ``sys.modules``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from pidg.autodiff import Tape
from pidg.deform import DeformationField
from pidg.material import MaterialField
from pidg.optim import Adam
from pidg.train import Trainer

# module-level functions: (module, attribute) -> span name
FUNCTION_SPANS = {
    ("pidg.render", "render"): "render.other",
    ("pidg.render", "project_gaussians"): "render.project",
    ("pidg.render", "rasterize"): "render.rasterize_fwd",
    ("pidg.losses", "renders_loss"): "losses.renders_loss",
    ("pidg.flow", "gaussian_flow"): "flow.gaussian_flow",
    ("pidg.flow", "velocity_flow"): "flow.velocity_flow",
    ("pidg.flow", "lpfm_loss"): "flow.lpfm",
    ("pidg.physics", "block_sampled_cmr"): "physics.cmr",
    ("pidg.scene", "densify_and_prune"): "scene.densify",
    ("pidg.io", "write_checkpoint"): "io.checkpoint_write",
    ("pidg.io", "read_checkpoint"): "io.checkpoint_read",
    ("pidg.synth", "generate"): "synth.generate",
}

METHOD_SPANS = {
    (Trainer, "step"): "train.step",
    (Trainer, "_cmr_points"): "physics.cmr_points",
    (DeformationField, "deform_gaussians"): "deform.forward",
    (MaterialField, "evaluate"): "material.evaluate",
    (MaterialField, "evaluate_with_jets"): "material.evaluate",
    (Adam, "step"): "optim.adam",
}

# tape op name -> span name for its VJP; other ops' VJPs stay in the
# enclosing backward span's self time
VJP_SPANS = {
    "rasterize": "render.rasterize_bwd",
    "hashgrid3d": "encoding.hashgrid_bwd",
    "plane2d": "encoding.plane_bwd",
    "plane2d_du": "encoding.plane_bwd",
    "plane2d_dv": "encoding.plane_bwd",
    "blur_valid": "losses.ssim_bwd",
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # open spans: [name, time spent in child spans]
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.self_s[name] += dur - frame[1]
                self.total_s[name] += dur
                self.calls[name] += 1
                self.durations[name].append(dur)
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(out)
            return out

        traced.pidg_traced = True
        return traced

    # -- installing and removing the wrappers ---------------------------------

    def __enter__(self) -> "Tracer":
        for (module, attr), name in FUNCTION_SPANS.items():
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(original, name, self._on_result(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "pidg" or mod_name.startswith("pidg."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)
        for (cls, attr), name in METHOD_SPANS.items():
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name, self._on_result(name)))
        self._patch(Tape, "backward", self._traced_backward(vars(Tape)["backward"]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)
        return False

    def _patch(self, obj, attr: str, replacement) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, replacement)

    def _on_result(self, name: str):
        if name == "render.other":
            return lambda out: self._count("render.visible_rows", len(out.visible_rows))
        if name == "physics.cmr_points":
            return lambda out: self._count("physics.cmr_samples", len(out[1]))
        return None

    def _count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _traced_backward(self, backward):
        main_sweep = self.wrap(backward, "autodiff.backward")

        def traced_backward(tape, out, seed=1.0):
            for node in tape.nodes:
                name = VJP_SPANS.get(node.op)
                if name and node._vjp is not None and not getattr(node._vjp, "pidg_traced", False):
                    node._vjp = self.wrap(node._vjp, name)
            if not self._stack or self._stack[-1][0] != "train.step":
                # the CMR's own small tapes: their sweep stays in the caller's span
                return backward(tape, out, seed)
            self._count("autodiff.main_tape_nodes", len(tape.nodes))
            return main_sweep(tape, out, seed)

        return traced_backward

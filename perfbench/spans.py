"""In-memory span tracer for the benchmark's traced run.

A ``Tracer`` wraps the public entry points of the ``smrabooth`` modules from
the outside: every module attribute, and every name another module bound at
import time (``pipeline.encode``, ``mora.decode_frames``, ...), that is the
original function is replaced by a timing wrapper while the tracer is
installed. Nothing under ``src/`` changes. An entry point that no longer
exists (a renamed function) is skipped and its layer reported as absent.

Each span is recorded as ``[name, start, end, parent, op, attrs]``. Collector
pauses, seen through ``gc.callbacks``, are spans of their own named
``numerics.gc`` and parented to the innermost open span, so a layer is never
charged for a pause that happened to land inside it.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time

PACKAGE = "smrabooth"
OP = "op"
GC = "numerics.gc"
TAPE_COUNT = "trace.tape_count"

NAME, START, END, PARENT, OPID, ATTRS = range(6)


def _frames_in(args, kwargs, result):
    return {"frames": int(args[0].shape[0])} if hasattr(args[0], "shape") else {}


def _frames_out(args, kwargs, result):
    return {"frames": int(result.shape[0])}


def _tokens(args, kwargs, result):
    z = args[2]
    z = getattr(z, "latents", z)
    n_lat, h, w = z.shape[:3]
    return {"tokens": int(n_lat * h * w)}


def _flow_pairs(args, kwargs, result):
    z = args[0]
    z = getattr(z, "latents", z)
    n_pixel = 1 + 4 * (int(z.shape[0]) - 1)
    return {"pairs": n_pixel - 1}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 and isinstance(args[1], str) else args[0]
    return {"bytes": os.path.getsize(path)}


# (layer, module, attribute path, attrs(args, kwargs, result) or None)
ENTRY_POINTS = [
    ("numerics.backward", "numerics", "Tensor.backward", None),
    ("dit.forward", "dit", "forward", _tokens),
    ("lora.merge", "lora", "merge", None),
    ("flowmatch.sample", "flowmatch", "sample", None),
    ("mora.denoised_flow_stack", "mora", "denoised_flow_stack", _flow_pairs),
    ("mora.flow_stack", "mora", "flow_stack", None),
    ("toyvae.codec", "toyvae", "encode", None),
    ("toyvae.codec", "toyvae", "decode", None),
    ("toyvae.codec", "toyvae", "encode_frames", _frames_in),
    ("toyvae.codec", "toyvae", "decode_frames", _frames_out),
    ("sura.loss", "sura", "sura_loss", None),
    ("sura.encode_patches", "sura", "encode_patches", None),
    ("evaluation.score", "evaluation", "subject_similarity", None),
    ("evaluation.score", "evaluation", "motion_fidelity", None),
    ("evaluation.score", "evaluation", "temporal_consistency", None),
    ("pipeline.optimizer", "pipeline", "_Optimizer.step", None),
    ("pipeline.load", "pipeline", "load_checkpoint", None),
    ("pipeline.load", "pipeline", "load_subject_artifact", None),
    ("pipeline.load", "pipeline", "load_motion_artifact", None),
    ("pipeline.load", "numerics", "read_stns", _file_bytes),
    ("pipeline.write", "pipeline", "save_checkpoint", None),
    ("pipeline.write", "pipeline", "save_subject_artifact", None),
    ("pipeline.write", "pipeline", "save_motion_artifact", None),
    ("pipeline.write", "pipeline", "RunManifest.save", _file_bytes),
    ("pipeline.write", "numerics", "write_stns", _file_bytes),
    ("pipeline.write", "toyvae", "write_ppm", _file_bytes),
    ("data.gen", "data", "gen_subject", None),
    ("data.gen", "data", "gen_motion", None),
    ("data.gen", "data", "build_pretrain_corpus", None),
]

LAYERS = sorted({layer for layer, *_ in ENTRY_POINTS})


def count_tape_nodes(root):
    """Nodes reachable from ``root`` through ``_parents``: the graph that
    ``Tensor.backward`` sorts and sweeps."""
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket the
    traced part of a run."""

    def __init__(self):
        self.spans = []
        self.absent = []         # layers none of whose entry points exist
        self.missing = []        # entry points that do not exist
        self._stack = []
        self._gc_open = []
        self._patches = []
        self.op = None

    # -- recording --

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ATTRS] = attrs
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def begin_op(self, op_id):
        self.op = op_id
        return self.open(OP)

    def end_op(self, idx):
        self.close(idx)
        self.op = None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_open.append(self.open(GC))
        elif self._gc_open:
            self.close(self._gc_open.pop(), {"full": int(info["generation"] == 2)})

    # -- installation --

    def _wrapper(self, layer, fn, attrs_fn):
        tracer = self
        if layer == "numerics.backward":
            @functools.wraps(fn)
            def backward(root, *args, **kwargs):
                i = tracer.open(TAPE_COUNT)
                tracer.close(i, {"nodes": count_tape_nodes(root)})
                j = tracer.open(layer)
                try:
                    return fn(root, *args, **kwargs)
                finally:
                    tracer.close(j)
            return backward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(layer)
            result, attrs = None, None
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs = attrs_fn(args, kwargs, result)
                return result
            finally:
                tracer.close(i, attrs)
        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        found, self.missing = set(), []
        for layer, modname, path, attrs_fn in ENTRY_POINTS:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.missing.append(f"{modname}.{path}")
                continue
            found.add(layer)
            wrapped = self._wrapper(layer, fn, attrs_fn)
            if owner_name:
                self._patch(owner, attr, fn, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, name, fn, wrapped)
        self.absent = [layer for layer in LAYERS if layer not in found]
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                    "end": s[END], "parent": s[PARENT],
                                    "op": s[OPID], "attrs": s[ATTRS]}) + "\n")


# -- aggregation ----------------------------------------------------------------

def _derived(spans):
    """Per span: duration, self time (minus direct children, GC included),
    GC time inside it, and whether an ancestor belongs to the same layer."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    gc_in = [0.0] * n
    for i in range(n - 1, -1, -1):
        p = spans[i][PARENT]
        if p < 0:
            continue
        child[p] += dur[i]
        gc_in[p] += gc_in[i] + (dur[i] if spans[i][NAME] == GC else 0.0)
    nested = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                nested[i] = True
                break
            p = spans[p][PARENT]
    selft = [dur[i] - child[i] for i in range(n)]
    return dur, selft, gc_in, nested


def layer_totals(spans, ops):
    """Totals over the spans belonging to ``ops`` (a set of op ids; None
    selects spans outside any op, i.e. set-up). Times are in seconds."""
    dur, selft, gc_in, nested = _derived(spans)
    tot = {"busy": {}, "self": {}, "calls": {}, "attrs": {}}
    op_time = 0.0
    for i, s in enumerate(spans):
        if s[OPID] not in ops:
            continue
        name = s[NAME]
        if name == OP:
            op_time += dur[i]
        tot["self"][name] = tot["self"].get(name, 0.0) + selft[i]
        tot["calls"][name] = tot["calls"].get(name, 0) + 1
        if not nested[i]:
            tot["busy"][name] = tot["busy"].get(name, 0.0) + dur[i] - gc_in[i]
        for key, value in (s[ATTRS] or {}).items():
            k = f"{name}:{key}"
            tot["attrs"][k] = tot["attrs"].get(k, 0) + value
    tot["op_time"] = op_time
    return tot


def per_layer(tot, n):
    """The benchmark's per-layer metrics from ``layer_totals``, divided by
    ``n`` (ops, or set-ups). Times in ms."""
    n = max(n, 1)
    busy = lambda name: 1e3 * tot["busy"].get(name, 0.0) / n
    calls = lambda name: tot["calls"].get(name, 0)
    attr = lambda key: tot["attrs"].get(key, 0)
    fwd, den = calls("dit.forward"), calls("mora.denoised_flow_stack")
    return {
        "numerics.backward.ms": busy("numerics.backward"),
        "numerics.tape_nodes": attr(f"{TAPE_COUNT}:nodes") / n,
        "numerics.gc.ms": 1e3 * tot["self"].get(GC, 0.0) / n,
        "numerics.gc.full": attr(f"{GC}:full") / n,
        "dit.forward.ms": busy("dit.forward"),
        "dit.forward.calls": fwd / n,
        "dit.tokens": attr("dit.forward:tokens") / fwd if fwd else 0.0,
        "lora.merge.ms": busy("lora.merge"),
        "lora.merge.calls": calls("lora.merge") / n,
        "flowmatch.sample.self_ms": 1e3 * tot["self"].get("flowmatch.sample", 0.0) / n,
        "mora.denoised_flow_stack.ms": busy("mora.denoised_flow_stack"),
        "mora.flow_pairs": attr("mora.denoised_flow_stack:pairs") / den if den else 0.0,
        "mora.flow_stack.ms": busy("mora.flow_stack"),
        "toyvae.codec.ms": busy("toyvae.codec"),
        "toyvae.frames": attr("toyvae.codec:frames") / n,
        "sura.loss.ms": busy("sura.loss"),
        "sura.encode_patches.ms": busy("sura.encode_patches"),
        "evaluation.score.ms": busy("evaluation.score"),
        "pipeline.optimizer.ms": busy("pipeline.optimizer"),
        "pipeline.load.ms": busy("pipeline.load"),
        "pipeline.write.ms": busy("pipeline.write"),
        "pipeline.io.bytes": (attr("pipeline.load:bytes")
                              + attr("pipeline.write:bytes")) / n,
        "pipeline.self.ms": 1e3 * tot["self"].get(OP, 0.0) / n,
        "data.gen.ms": busy("data.gen"),
    }


def accounting(tot):
    """Self times of every span in the ops plus GC pauses, against op time.
    Equal up to float rounding by construction; the residual is reported."""
    accounted = sum(tot["self"].values())
    return {"op_s": tot["op_time"], "self_plus_gc_s": accounted,
            "residual_frac": (abs(accounted - tot["op_time"]) / tot["op_time"]
                              if tot["op_time"] else 0.0)}

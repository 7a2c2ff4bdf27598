"""Span tracer for the traced benchmark run.

Program functions are wrapped where their callers look them up (a
module global such as ``survmodel.local_window_attention``, or a class
attribute such as ``survmodel.AdamW.step``). Each call records a span:
name, start, end, the enclosing span and optional attributes. Spans are
kept in memory and written out when the run ends; the per-layer metrics
are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _pbag_bytes(args, kwargs, result):
    coords, features = args[1], args[2]
    return {"bytes": 16 + 8 * len(coords) + 4 * features.size}


def _knn_attrs(args, kwargs, result):
    return {"wsi": args[0].wsi_id, "rows": args[0].n_patches}


def _fit_attrs(args, kwargs, result):
    return {"val": len(args[2]), "epochs": len(result.history)}


# (module, attribute, span name, attribute recorder). A function is wrapped
# at every binding its callers use; "Class.method" patches the class.
INSTRUMENTS = [
    ("rearrange", "knn_rearrange", "rearrange.knn", _knn_attrs),
    ("survmodel", "knn_rearrange", "rearrange.knn", _knn_attrs),
    ("cli", "knn_rearrange", "rearrange.knn", _knn_attrs),
    ("survmodel", "random_window_mask", "rearrange.mask", None),
    ("rearrange", "raster_order", "rearrange.raster", None),
    ("cli", "compare_strategies", "rearrange.compare", None),
    ("cli", "load_manifest", "bagio.load_manifest", None),
    ("bagio", "read_patch_bag", "bagio.read_patch_bag",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("bagio", "write_pbag_arrays", "bagio.write_pbag", _pbag_bytes),
    ("cli", "write_pbag_arrays", "bagio.write_pbag", _pbag_bytes),
    ("synthgen", "gen_cohort", "synthgen.gen_cohort", None),
    ("cli", "gen_cohort", "synthgen.gen_cohort", None),
    ("survmodel", "local_window_attention", "blocks.local_fwd", None),
    ("blocks", "local_window_attention", "blocks.local_fwd", None),
    ("survmodel", "local_window_attention_backward", "blocks.local_bwd", None),
    ("blocks", "local_window_attention_backward", "blocks.local_bwd", None),
    ("survmodel", "shuffle_window_attention", "blocks.shuffle_fwd", None),
    ("survmodel", "shuffle_window_attention_backward", "blocks.shuffle_bwd", None),
    ("survmodel", "attn_pool", "blocks.pool_fwd", None),
    ("survmodel", "attn_pool_backward", "blocks.pool_bwd", None),
    ("survmodel", "manhattan_bucket_index", "blocks.bucket_index", None),
    ("survmodel", "manhattan_bias_backward", "blocks.bias_bwd", None),
    ("survmodel", "preprocess_patient", "survmodel.preprocess_patient", None),
    ("cli", "preprocess_patient", "survmodel.preprocess_patient", None),
    ("survmodel", "forward", "survmodel.forward", None),
    ("cli", "forward", "survmodel.forward", None),
    ("survmodel", "loss_and_grads", "survmodel.loss_and_grads", None),
    ("survmodel", "linear", "survmodel.reduce_fwd", None),
    ("survmodel", "linear_backward", "survmodel.reduce_bwd", None),
    ("survmodel", "AdamW.step", "survmodel.adamw", None),
    ("survmodel", "fit", "survmodel.fit", _fit_attrs),
    ("cli", "fit", "survmodel.fit", _fit_attrs),
    ("cli", "save_checkpoint", "survmodel.save_checkpoint", None),
    ("cli", "load_checkpoint", "survmodel.load_checkpoint", None),
    ("cli", "export_attention", "survmodel.export_attention", None),
    ("survstats", "c_index", "survstats.c_index", None),
    ("survstats", "km_curve", "survstats.km", None),
    ("survstats", "logrank_test", "survstats.logrank", None),
    ("cli", "cmd_synth", "cli.synth", None),
    ("cli", "cmd_rearrange", "cli.rearrange", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_attn", "cli.attn", None),
]


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else -1, "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, recorder) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if recorder is not None:
                    rec["attrs"].update(recorder(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> list[str]:
        """Wrap every instrumented binding; returns those not found."""
        missing = []
        for module_name, attr, name, recorder in INSTRUMENTS:
            owner = importlib.import_module(f"hvtsurv.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                missing.append(f"{module_name}.{attr}")
                continue
            self._wrap(owner, leaf, name, recorder)
        if missing:
            print(f"trace: not found, left unwrapped: {', '.join(missing)}", file=sys.stderr)
        return missing

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def adopt(self, child_spans: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for rec in child_spans:
            rec = dict(rec)
            rec["parent"] = parent if rec["parent"] < 0 else rec["parent"] + base
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"values": self.values, "spans": self.spans}, fh)


# Per-layer metrics: name -> (unit, how it is derived). "total" sums span
# durations, "self" subtracts the time of directly enclosed spans, "calls"
# counts spans, "sum:<attr>" adds a recorded attribute, "value" is set by
# the workload itself.
LAYER_METRICS = {
    "rearrange.knn_s": ("s", "total", ["rearrange.knn"]),
    "rearrange.knn.calls": ("count", "calls", ["rearrange.knn"]),
    "rearrange.knn_rows": ("count", "sum:rows", ["rearrange.knn"]),
    "rearrange.knn_calls_per_wsi": ("ratio", "per_wsi", ["rearrange.knn"]),
    "rearrange.mask_s": ("s", "self", ["rearrange.mask"]),
    "rearrange.raster_s": ("s", "self", ["rearrange.raster"]),
    "rearrange.compare_s": ("s", "self", ["rearrange.compare"]),
    "bagio.load_manifest_s": ("s", "total", ["bagio.load_manifest"]),
    "bagio.read_patch_bag_s": ("s", "total", ["bagio.read_patch_bag"]),
    "bagio.read_patch_bag.calls": ("count", "calls", ["bagio.read_patch_bag"]),
    "bagio.bytes_read": ("B", "sum:bytes", ["bagio.read_patch_bag"]),
    "bagio.write_pbag_s": ("s", "total", ["bagio.write_pbag"]),
    "bagio.bytes_written": ("B", "sum:bytes", ["bagio.write_pbag"]),
    "synthgen.gen_cohort_s": ("s", "total", ["synthgen.gen_cohort"]),
    "blocks.local_fwd_s": ("s", "total", ["blocks.local_fwd"]),
    "blocks.local_fwd.calls": ("count", "calls", ["blocks.local_fwd"]),
    "blocks.local_bwd_s": ("s", "total", ["blocks.local_bwd"]),
    "blocks.local_bwd.calls": ("count", "calls", ["blocks.local_bwd"]),
    "blocks.shuffle_fwd_s": ("s", "self", ["blocks.shuffle_fwd"]),
    "blocks.shuffle_bwd_s": ("s", "self", ["blocks.shuffle_bwd"]),
    "blocks.pool_fwd_s": ("s", "total", ["blocks.pool_fwd"]),
    "blocks.pool_bwd_s": ("s", "total", ["blocks.pool_bwd"]),
    "blocks.bucket_index_s": ("s", "total", ["blocks.bucket_index"]),
    "blocks.bucket_index.calls": ("count", "calls", ["blocks.bucket_index"]),
    "blocks.bias_bwd_s": ("s", "total", ["blocks.bias_bwd"]),
    "survmodel.preprocess_patient_s": ("s", "total", ["survmodel.preprocess_patient"]),
    "survmodel.forward_s": ("s", "total", ["survmodel.forward"]),
    "survmodel.forward.calls": ("count", "calls", ["survmodel.forward"]),
    "survmodel.val_forwards_per_patient": ("ratio", "val_forwards", ["survmodel.fit"]),
    "survmodel.backward_s": ("s", "self", ["survmodel.loss_and_grads"]),
    "survmodel.reduce_s": ("s", "total", ["survmodel.reduce_fwd", "survmodel.reduce_bwd"]),
    "survmodel.adamw_s": ("s", "total", ["survmodel.adamw"]),
    "survmodel.adamw.calls": ("count", "calls", ["survmodel.adamw"]),
    "survmodel.forward_rss_mb": ("MB", "value", []),
    "survmodel.step_rss_mb": ("MB", "value", []),
    "survmodel.save_checkpoint_s": ("s", "total", ["survmodel.save_checkpoint"]),
    "survmodel.load_checkpoint_s": ("s", "total", ["survmodel.load_checkpoint"]),
    "survmodel.export_attention_s": ("s", "total", ["survmodel.export_attention"]),
    "survstats.c_index_s": ("s", "total", ["survstats.c_index"]),
    "survstats.km_s": ("s", "total", ["survstats.km"]),
    "survstats.logrank_s": ("s", "total", ["survstats.logrank"]),
    "cli.startup_s": ("s", "value", []),
    "cli.synth_self_s": ("s", "self", ["cli.synth"]),
    "cli.rearrange_self_s": ("s", "self", ["cli.rearrange"]),
    "cli.train_self_s": ("s", "self", ["cli.train"]),
    "cli.eval_self_s": ("s", "self", ["cli.eval"]),
    "cli.attn_self_s": ("s", "self", ["cli.attn"]),
    "trace.overhead_pct": ("%", "value", []),
    "trace.spans": ("count", "value", []),
}


def layer_metrics(spans: list[dict], values: dict) -> dict:
    """Derive every per-layer metric from the recorded spans."""
    duration = [s["end"] - s["start"] for s in spans]
    child_time = defaultdict(float)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child_time[s["parent"]] += duration[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    out = {}
    for metric, (unit, how, names) in LAYER_METRICS.items():
        idx = [i for n in names for i in by_name.get(n, [])]
        if how == "total":
            value = sum(duration[i] for i in idx)
        elif how == "self":
            value = sum(duration[i] - child_time[i] for i in idx)
        elif how == "calls":
            value = len(idx)
        elif how.startswith("sum:"):
            value = sum(spans[i]["attrs"].get(how[4:], 0) for i in idx)
        elif how == "per_wsi":
            wsis = {spans[i]["attrs"]["wsi"] for i in idx}
            value = len(idx) / len(wsis) if wsis else 0.0
        elif how == "val_forwards":
            fits = set(idx)
            val = sum(1 for i in by_name.get("survmodel.forward", [])
                      if spans[i]["parent"] in fits)
            slots = sum(spans[i]["attrs"]["val"] * spans[i]["attrs"]["epochs"] for i in idx)
            value = val / slots if slots else 0.0
        else:
            value = values.get(metric, 0.0)
        out[metric] = {"value": value, "unit": unit}
    return out

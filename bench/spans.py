"""Span tracer for the traced run.

It wraps public functions and methods of the package from outside, by
replacing module and class attributes, and records one span per call: name,
start, end and the enclosing span. Spans stay in memory in flat arrays; the
per-name and per-layer figures are computed from them when the run ends. A
name that the installed package does not have is recorded as absent, with the
reason, and nothing is wrapped for it.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path). The first path component after the
# module is a class for methods. Module-level functions are also replaced in
# every ``marline`` module that imported them by name.
TARGETS = (
    ("learners.tree_predict", "marline.learners", "HoeffdingTree.predict"),
    ("learners.tree_train", "marline.learners", "HoeffdingTree.train"),
    ("learners.tree_init", "marline.learners", "HoeffdingTree.__init__"),
    ("learners.ensemble_predict", "marline.learners", "OnlineBagging.predict"),
    ("learners.ensemble_predict", "marline.learners", "OnlineBoosting.predict"),
    ("learners.ensemble_train", "marline.learners", "OnlineBagging.train"),
    ("learners.ensemble_train", "marline.learners", "OnlineBoosting.train"),
    ("mapping.build_align_map", "marline.mapping", "build_align_map"),
    ("mapping.project", "marline.mapping", "project_example"),
    ("mapping.tracker_update", "marline.mapping", "CentroidTracker.update"),
    ("model.init", "marline.model", "MarlineModel.__init__"),
    ("model.predict", "marline.model", "MarlineModel.predict"),
    ("model.observe", "marline.model", "MarlineModel.observe"),
    ("model.update_weights", "marline.model", "MarlineModel.update_weights"),
    ("model.source_weight_ratio", "marline.model", "MarlineModel.source_weight_ratio"),
    ("model.save", "marline.model", "MarlineModel.save"),
    ("model.load", "marline.model", "MarlineModel.load"),
    ("drift.update", "marline.drift", "DDM.update"),
    ("drift.update", "marline.drift", "HddmA.update"),
    ("streams.generate", "marline.streams", "generate_synthetic"),
    ("streams.ingest", "marline.streams", "ingest_csv"),
    ("streams.interleave", "marline.streams", "interleave"),
    ("evaluation.build_schedule", "marline.evaluation", "build_schedule"),
    ("evaluation.run_experiment", "marline.evaluation", "run_experiment"),
    ("evaluation.grid_search", "marline.evaluation", "grid_search"),
    ("evaluation.write_outputs", "marline.evaluation", "write_results_csv"),
    ("evaluation.write_outputs", "marline.evaluation", "write_summary_csv"),
    ("evaluation.write_outputs", "marline.evaluation", "write_segments_csv"),
    ("evaluation.write_outputs", "marline.evaluation", "write_grid_csv"),
    ("cli.main", "marline.cli", "main"),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket the
    traced part of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}
        # Objects and results that the workloads read after a traced command.
        self.models: list = []
        self.trees: list = []
        self.drifts = 0
        self.model_streams: dict[int, set] = {}
        self.model_drifts: dict[int, int] = {}
        self.produced_examples = 0
        self.generated_examples = 0
        self.ingest_paths: list[str] = []
        self.source_observes = 0
        self.target_observes = 0
        self.snapshot_bytes: list[int] = []
        self.rows_read = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start_ns, self.end_ns
        stack = self._stack
        clock = time.perf_counter_ns
        after = self._after_hooks().get(name)

        def wrapped(*args, **kwargs):
            idx = len(ends)
            parents.append(stack[-1] if stack else -1)
            ids.append(nid)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    # -- hooks that read arguments and results of a few wrapped calls ------

    def _after_hooks(self) -> dict:
        return {
            "model.init": self._on_model_init,
            "model.observe": self._on_observe,
            "learners.tree_init": self._on_tree_init,
            "drift.update": self._on_drift_update,
            "streams.generate": self._on_generate,
            "streams.ingest": self._on_ingest,
        }

    def _on_model_init(self, idx, args, result) -> None:
        self.models.append(args[0])

    def _on_observe(self, idx, args, result) -> None:
        model, stream_id = args[0], args[1]
        target = stream_id == getattr(model, "target_id", None)
        self.name_id[idx] = self._id(
            "model.observe_target" if target else "model.observe_source"
        )
        if target:
            self.target_observes += 1
        else:
            self.source_observes += 1
        key = id(model)
        self.model_streams.setdefault(key, set()).add(stream_id)
        if result is True:
            self.model_drifts[key] = self.model_drifts.get(key, 0) + 1

    def _on_tree_init(self, idx, args, result) -> None:
        self.trees.append(args[0])

    def _on_drift_update(self, idx, args, result) -> None:
        if getattr(result, "value", None) == "drift":
            self.drifts += 1

    def _on_generate(self, idx, args, result) -> None:
        n = len(getattr(result, "examples", ()))
        self.produced_examples += n
        self.generated_examples += n

    def _on_ingest(self, idx, args, result) -> None:
        self.produced_examples += len(result)
        self.ingest_paths.append(getattr(args[0], "path", ""))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            try:
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent[name] = f"{module_name}.{path} not found"
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            self._replace(owner, attr, original, replacement)
            if owner is module:
                for other_name, other in list(sys.modules.items()):
                    if other_name.startswith("marline") and other is not module:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._replace(other, key, original, replacement)

    def _replace(self, owner, attr, original, replacement) -> None:
        # An inherited method is shadowed on the subclass and later deleted.
        self._undo.append((owner, attr, original if attr in vars(owner) else None))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self, kernel_ns: tuple[np.ndarray, np.ndarray]) -> dict:
        """Per span name: calls, median and p99 duration (ns), total duration
        and self time (ns). Self time is a span's duration minus the time its
        direct child spans cover. The reference kernel runs inside whatever
        call is under way when it fires, so its runs, given as start and end
        arrays, are taken out of every duration first."""
        n = len(self.end_ns)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start_ns, dtype=np.int64)
        end = np.frombuffer(self.end_ns, dtype=np.int64)
        kernel_before = _kernel_time_before(*kernel_ns)
        dur = (end - start) - (kernel_before(end) - kernel_before(start))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            count = int(mask.sum())
            if count == 0:
                continue
            d = dur[mask]
            out[name] = {
                "calls": count,
                "median_ns": float(np.median(d)),
                "p99_ns": float(np.percentile(d, 99)),
                "total_ns": float(d.sum()),
                "self_ns": float(self_ns[mask].sum()),
            }
        return out

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
        )


def _kernel_time_before(starts: np.ndarray, ends: np.ndarray):
    """A function from stamps to the kernel time (ns) that ran before each,
    given the sorted, disjoint kernel runs ``[starts[j], ends[j]]``."""
    lengths = ends - starts
    done = np.concatenate(([0.0], np.cumsum(lengths)))

    def before(t: np.ndarray) -> np.ndarray:
        j = np.searchsorted(starts, t, side="right") - 1
        k = np.maximum(j, 0)
        inside = np.clip(t - starts[k], 0.0, lengths[k])
        return np.where(j >= 0, done[k] + inside, 0.0)

    return before


# Spans renamed after the call, by the stream the example came from.
_RENAMED = {"model.observe_target": "model.observe", "model.observe_source": "model.observe"}


def layer_metrics(tracer: Tracer, kernel_ns, steps: int, rounds: int,
                  factor: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, and the absent ones with the
    reason. Times exclude the reference kernel's runs ``kernel_ns`` and are
    multiplied by ``factor``, the speed normalisation of the traced rounds;
    counts are not."""
    s = tracer.summary(kernel_ns)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def median(name, scale):
        return s[name]["median_ns"] * factor / scale if name in s else 0.0

    def self_per_step(layer):
        ns = sum(v["self_ns"] for k, v in s.items() if k.split(".")[0] == layer)
        return ns * factor / 1e3 / steps

    models = len(tracer.model_streams) or 1
    concepts = [len(streams) + tracer.model_drifts.get(key, 0)
                for key, streams in tracer.model_streams.items()]
    splits = [getattr(t, "n_splits", None) for t in tracer.trees]
    splits = [v for v in splits if v is not None]
    source_produced = tracer.produced_examples - tracer.target_observes
    snapshot = sorted(tracer.snapshot_bytes)

    # name: (value, unit, span names it is measured from)
    table = {
        "learners.tree_predict_calls_per_step": (
            calls("learners.tree_predict") / steps, "count", ["learners.tree_predict"]),
        "learners.tree_predict_us": (
            median("learners.tree_predict", 1e3), "us", ["learners.tree_predict"]),
        "learners.tree_train_calls_per_step": (
            calls("learners.tree_train") / steps, "count", ["learners.tree_train"]),
        "learners.tree_train_us": (
            median("learners.tree_train", 1e3), "us", ["learners.tree_train"]),
        "learners.ensemble_predict_calls_per_step": (
            calls("learners.ensemble_predict") / steps, "count", ["learners.ensemble_predict"]),
        "learners.ensemble_predict_us": (
            median("learners.ensemble_predict", 1e3), "us", ["learners.ensemble_predict"]),
        "learners.tree_splits": (
            sum(splits) / len(splits) if splits else 0.0, "count", ["learners.tree_init"]),
        "learners.self_us_per_step": (self_per_step("learners"), "us", []),
        "mapping.align_maps_per_step": (
            calls("mapping.build_align_map") / steps, "count", ["mapping.build_align_map"]),
        "mapping.build_align_map_us": (
            median("mapping.build_align_map", 1e3), "us", ["mapping.build_align_map"]),
        "mapping.project_us": (median("mapping.project", 1e3), "us", ["mapping.project"]),
        "mapping.tracker_update_us": (
            median("mapping.tracker_update", 1e3), "us", ["mapping.tracker_update"]),
        "mapping.self_us_per_step": (self_per_step("mapping"), "us", []),
        "model.predict_us": (median("model.predict", 1e3), "us", ["model.predict"]),
        "model.predict_p99_us": (
            s["model.predict"]["p99_ns"] * factor / 1e3 if "model.predict" in s else 0.0,
            "us", ["model.predict"]),
        "model.update_weights_us": (
            median("model.update_weights", 1e3), "us", ["model.update_weights"]),
        "model.observe_target_us": (
            median("model.observe_target", 1e3), "us", ["model.observe_target"]),
        "model.observe_source_us": (
            median("model.observe_source", 1e3), "us", ["model.observe_source"]),
        "model.source_weight_ratio_us": (
            median("model.source_weight_ratio", 1e3), "us", ["model.source_weight_ratio"]),
        "model.concepts_end": (
            sum(concepts) / len(concepts) if concepts else 0.0, "count", ["model.observe_target"]),
        "model.save_ms": (median("model.save", 1e6), "ms", ["model.save"]),
        "model.load_ms": (median("model.load", 1e6), "ms", ["model.load"]),
        "model.snapshot_bytes": (
            float(snapshot[len(snapshot) // 2]) if snapshot else 0.0, "bytes", ["model.save"]),
        "model.self_us_per_step": (self_per_step("model"), "us", []),
        "drift.update_us": (median("drift.update", 1e3), "us", ["drift.update"]),
        "drift.alarms": (tracer.drifts / models, "count", ["drift.update"]),
        "drift.self_us_per_step": (self_per_step("drift"), "us", []),
        "streams.generate_ms": (median("streams.generate", 1e6), "ms", ["streams.generate"]),
        "streams.examples_generated": (
            tracer.generated_examples / steps, "count", ["streams.generate"]),
        "streams.source_examples_used_ratio": (
            tracer.source_observes / source_produced if source_produced > 0 else 0.0,
            "ratio", ["model.observe_source"]),
        "streams.ingest_ms": (median("streams.ingest", 1e6), "ms", ["streams.ingest"]),
        "streams.ingest_rows_read": (tracer.rows_read / steps, "count", ["streams.ingest"]),
        "streams.interleave_ms": (
            median("streams.interleave", 1e6), "ms", ["streams.interleave"]),
        "streams.self_us_per_step": (self_per_step("streams"), "us", []),
        "evaluation.schedule_builds": (
            calls("evaluation.build_schedule") / rounds, "count", ["evaluation.build_schedule"]),
        "evaluation.loop_self_us_per_step": (
            s["evaluation.run_experiment"]["self_ns"] * factor / 1e3 / steps
            if "evaluation.run_experiment" in s else 0.0,
            "us", ["evaluation.run_experiment"]),
        "evaluation.write_outputs_ms": (
            s["evaluation.write_outputs"]["total_ns"] * factor / 1e6 / rounds
            if "evaluation.write_outputs" in s else 0.0,
            "ms", ["evaluation.write_outputs"]),
        "evaluation.self_us_per_step": (self_per_step("evaluation"), "us", []),
        "cli.self_us_per_step": (self_per_step("cli"), "us", []),
    }
    metrics, absent = {}, {}
    for name, (value, unit, sources) in table.items():
        metrics[name] = (value, unit)
        for source in sources:
            wrapped_as = _RENAMED.get(source, source)
            if wrapped_as in tracer.absent:
                absent[name] = tracer.absent[wrapped_as]
                break
            if source not in s:
                absent[name] = f"no {source} span: not exercised by this workload"
                break
    return metrics, absent

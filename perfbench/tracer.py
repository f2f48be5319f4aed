"""Call tracer for shadowprobe's public functions, run from outside ``src/``.

Several functions are imported by name into other modules (for example
``attack.kmeans_train``, ``pipeline.backprop_train`` and
``svm.numeric_matrix``), so wrapping the defining module alone would miss
calls. ``Tracer`` replaces the function at every ``shadowprobe`` module
that binds it and puts the original back on exit.

For each traced function it records calls, total time (outermost call
only, so recursion is not counted twice) and self time (total time
minus the time of traced calls made inside it). Some wrappers also read
a deterministic count from the arguments or the result, such as the
support vectors of a trained SVM or the iterations of a k-means run.
``wrapper_cost_s`` measures what one wrapper adds to a call.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function.
TRACED = (
    ("svm", "smo_train"),
    ("svm", "kernel_matrix"),
    ("core", "RandomSource.integers"),
    ("core", "numeric_matrix"),
    ("hmm", "train_acoustic_model"),
    ("hmm", "viterbi_train"),
    ("mlp", "backprop_train"),
    ("kmeans", "kmeans_train"),
    ("kmeans", "sulq_kmeans_train"),
    ("dtree", "train_tree"),
    ("dtree", "classify"),
    ("datagen", "gen_flow_dataset"),
    ("datagen", "gen_speech_corpus"),
    ("attack", "extract_features"),
    ("attack", "build_meta_training_set"),
    ("attack", "infer_property"),
    ("attack", "kl_divergence_scores"),
    ("metrics", "k_fold_cross_validate"),
    ("serialize", "save_model"),
    ("serialize", "save_report"),
    ("pipeline", "run_pipeline"),
)


# Recorders get the call's bound arguments by name and its result.
def _on_smo_train(counts, args, model):
    counts["svm.smo_train.support_vectors"] += int(model.n_support)
    counts["svm.smo_train.converged"] += bool(model.converged)


def _on_kernel_matrix(counts, args, k):
    counts["svm.kernel_matrix.bytes_computed"] += int(k.nbytes)


def _on_backprop_train(counts, args, net):
    counts["mlp.epochs_run"] += int(args["epochs"])


def _on_kmeans(name):
    def record(counts, args, model):
        counts[f"kmeans.{name}.iterations"] += int(model.iterations_run)
        counts[f"kmeans.{name}.converged"] += bool(model.converged)
    return record


def _on_train_tree(counts, args, tree):
    counts["dtree.train_tree.rows"] += args["ds"].n_rows
    counts["dtree.nodes"] += tree.n_nodes


def _on_save_model(counts, args, _):
    counts["serialize.save_model.bytes"] += os.path.getsize(args["path"])


RECORDERS = {
    "svm.smo_train": _on_smo_train,
    "svm.kernel_matrix": _on_kernel_matrix,
    "mlp.backprop_train": _on_backprop_train,
    "kmeans.kmeans_train": _on_kmeans("kmeans_train"),
    "kmeans.sulq_kmeans_train": _on_kmeans("sulq_kmeans_train"),
    "dtree.train_tree": _on_train_tree,
    "serialize.save_model": _on_save_model,
}


class Tracer:
    """Context manager that wraps every TRACED function while active.

    ``calls``, ``self_s`` and ``total_s`` are keyed by
    ``<module>.<attribute path>``; ``counts`` holds the recorder counts.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [time in traced callees] per active traced call
        self._active = defaultdict(int)
        self._patches = []  # (owner, attribute, original)
        self.sites = {}  # traced name -> names of the modules or classes patched

    def _wrap(self, name, fn):
        record = RECORDERS.get(name)
        signature = inspect.signature(fn) if record is not None else None
        stack, active = self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if not active[name]:
                    self.total_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if record is not None:
                record(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "shadowprobe" or n.startswith("shadowprobe."))]
        for module_name, path in TRACED:
            owner = sys.modules[f"shadowprobe.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            wrapper = self._wrap(name, original)
            # A method is patched on its class, which every instance shares.
            owners = [owner] if outer else [m for m in modules
                                            if m.__dict__.get(attr) is original]
            for o in owners:
                setattr(o, attr, wrapper)
                self._patches.append((o, attr, original))
            self.sites[name] = [o.__name__ for o in owners]
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def module_calls(self) -> dict:
        """Calls into each traced module's functions."""
        out = defaultdict(int)
        for module_name, path in TRACED:
            out[module_name] += self.calls[f"{module_name}.{path}"]
        return dict(out)


def wrapper_cost_s(calls: int = 200_000, repeats: int = 7) -> float:
    """Seconds one traced call takes beyond the untraced call, median of repeats."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))

"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of claimsift's modules, the sampler
methods, and the backend and embedder objects the benchmark hands to
Trainer and evaluate. Each wrapped call is a span: its duration is added to
the layer's busy time, and its self time (duration minus the time of the
spans it encloses on the same thread) is kept too, so the engine's own time
is what no child layer accounts for. Nothing inside claimsift is edited.

A wrapped name that no longer exists in the program is recorded in
`missing`, and the metrics built on it are reported as missing, not as zero.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name). A function is re-bound in every loaded
# claimsift module that imported it by name, so the engine's and metrics'
# references are wrapped too.
FUNCTION_SPANS = (
    ("claimsift.corpus", "load_dataset", "corpus.load"),
    ("claimsift.annotators", "annotate_post", "annotators.annotate_post"),
    ("claimsift.annotators", "annotate_claim", "annotators.annotate_claim"),
    ("claimsift.state", "build_state", "state.build_state"),
    ("claimsift.policy", "sample_action", "policy.sample"),
    ("claimsift.policy", "reinforce_update", "policy.update"),
    ("claimsift.reward", "labeled_claim_reward", "reward.labeled"),
    ("claimsift.reward", "unlabeled_claim_reward", "reward.unlabeled"),
    ("claimsift.metrics", "evaluate", "metrics.evaluate"),
)
METHOD_SPANS = (
    ("claimsift.selection", "ClaimSampler", "sample", "selection.claim_draw"),
    ("claimsift.selection", "PostSampler", "sample", "selection.post_draw"),
)


class Tracer:
    """Span and counter totals, thread-safe; spans nest per thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.texts: set[str] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # ----------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        frame = [0.0, time.perf_counter()]  # child time, start
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        elapsed = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + elapsed - frame[0]
            self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(*args, **kwargs)
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the program's layer entry points; call uninstall() to undo."""
        for module_name, *_rest in FUNCTION_SPANS + METHOD_SPANS:
            importlib.import_module(module_name)
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "claimsift" or name.startswith("claimsift."))
        ]
        counters = {
            "policy.update": self._count_update_rows,
            "reward.labeled": lambda *a, **k: self.count("reward.distributions_in"),
            "reward.unlabeled": self._count_unlabeled_inputs,
        }
        for module_name, attr, name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self._note_missing(f"{module_name}.{attr}")
                continue
            traced = self._wrap(name, original, counters.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, traced)
        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self._note_missing(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self._wrap(name, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def _count_update_rows(self, params, optimizer, trajectories, *a, **k):
        self.count("policy.update_rows", sum(1 + len(posts) for _c, posts in trajectories))

    def _count_unlabeled_inputs(self, distributions, *a, **k):
        self.count("reward.distributions_in", len(distributions))

    def record_text(self, text: str) -> None:
        if self.active:
            with self._lock:
                self.texts.add(text)


class CountingBackend:
    """Annotation backend proxy: counts calls and failures, spans when traced.

    After record(), it also keeps each (prompt, reply) of `complete` and each
    (task, examples) of `finetune`, for the correctness checks. Every other
    attribute (concurrency_safe, config, get_state, ...) is forwarded, so
    Trainer and evaluate see the wrapped backend unchanged.
    """

    def __init__(self, backend, tracer: Tracer | None = None):
        self._backend = backend
        self._tracer = tracer
        self._lock = threading.Lock()
        self.calls = {"complete": 0, "finetune": 0}
        self.failures = 0
        self.completions: list | None = None
        self.finetunes: list | None = None

    def record(self) -> None:
        self.completions, self.finetunes = [], []

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _tally(self, kind: str) -> None:
        with self._lock:
            self.calls[kind] += 1

    def complete(self, task, prompt):
        self._tally("complete")
        reply = self._call("annotators.backend", self._backend.complete, task, prompt)
        if self.completions is not None:
            self.completions.append((prompt, reply))
        return reply

    def finetune(self, task, examples, origin="selected"):
        self._tally("finetune")
        tracer = self._tracer
        if tracer is not None:
            tracer.count("annotators.finetune_examples", len(examples))
        if self.finetunes is not None:
            self.finetunes.append((task, examples))
        return self._call(
            "annotators.finetune", self._backend.finetune, task, examples, origin=origin
        )

    def _call(self, name, fn, *args, **kwargs):
        tracer = self._tracer
        traced = tracer is not None and tracer.active
        frame = tracer._enter() if traced else None
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.failures += 1
            raise
        finally:
            if traced:
                tracer._exit(name, frame)


class TracedEmbedder:
    """Embedder proxy: spans each embed call and records the distinct texts."""

    def __init__(self, embedder, tracer: Tracer):
        self._embedder = embedder
        self._tracer = tracer
        self.d = embedder.d

    def __getattr__(self, name):
        return getattr(self._embedder, name)

    def embed(self, text):
        tracer = self._tracer
        if not tracer.active:
            return self._embedder.embed(text)
        tracer.record_text(text)
        frame = tracer._enter()
        try:
            return self._embedder.embed(text)
        finally:
            tracer._exit("state.embed", frame)

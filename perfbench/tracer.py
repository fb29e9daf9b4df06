"""In-memory spans around the calls into slotcast's layers.

A ``Tracer`` replaces each traced function at every name a caller looks it
up by (``predictor`` binds ``clean_query`` at import, ``gbrt._grow_tree``
reads ``gbrt.histograms`` as a module global), so no call slips past a
wrapper. ``uninstall`` puts the original objects back; an untraced run never
installs one.

A span is ``(name, start, end, parent, request)``. A span's self time is its
duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("sql_analyzer", "featurizer", "gbrt", "predictor", "evaluator",
           "cli")

# (module, qualified name) of every traced function, in layer order
TARGETS = (
    ("sql_analyzer", "clean_query"),
    ("sql_analyzer", "complexity_score"),
    ("featurizer", "Featurizer.transform"),
    ("featurizer", "transform_text"),
    ("featurizer", "project_text"),
    ("featurizer", "fit_text"),
    ("featurizer", "transform_text_corpus"),
    ("featurizer", "fit_svd"),
    ("gbrt", "fit"),
    ("gbrt", "histograms"),
    ("gbrt", "BinMapper.fit"),
    ("gbrt", "BinMapper.transform"),
    ("gbrt", "Forest.predict"),
    ("predictor", "deserialize_bundle"),
    ("predictor", "serialize_bundle"),
    ("predictor", "predict"),
    ("predictor", "predict_many"),
    ("predictor", "train"),
    ("evaluator", "tiered_eval"),
    ("cli", "ingest"),
)

# per-unit work counts recorded at the wrapped boundaries
COUNTS = (
    "sql_analyzer.tokens",
    "featurizer.Featurizer.transform.rows",
    "gbrt.histograms.rows",
    "gbrt.Forest.predict.rows",
    "predictor.routes.simple",
    "predictor.routes.complex",
    "cli.ingest.read",
    "cli.ingest.dropped",
)
# values of the last call in the traced phase (0 when never called)
GAUGES = (
    "featurizer.vocab_size",
    "featurizer.svd_rank_requested",
    "featurizer.svd_rank_kept",
)

_MARK = "__perfbench_span__"


def _module(short: str):
    return importlib.import_module(f"slotcast.{short}")


def _resolve(module: str, qualname: str):
    """(owner, attribute, raw attribute value) for a traced name."""
    owner = _module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


def wrapped_names() -> List[str]:
    """Names of traced functions whose bindings currently hold a wrapper."""
    found = []
    for module, qualname in TARGETS:
        _, _, raw = _resolve(module, qualname)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, _MARK):
            found.append(f"{module}.{qualname}")
    for short in MODULES:
        for name, value in vars(_module(short)).items():
            if hasattr(value, _MARK):
                found.append(f"{short}.{name}")
    return found


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Tuple[str, float, float, int, str]]] = []
        self.request = "setup"
        # {phase: {name: count}}, phase "setup" or "unit" as in self_times
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.gauges: Dict[str, int] = {g: 0 for g in GAUGES}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._hooks: Dict[str, Callable] = {
            "sql_analyzer.clean_query": self._on_clean_query,
            "featurizer.Featurizer.transform": self._on_transform,
            "featurizer.fit_text": self._on_fit_text,
            "featurizer.fit_svd": self._on_fit_svd,
            "gbrt.histograms": self._on_histograms,
            "gbrt.Forest.predict": self._on_forest_predict,
            "predictor.predict": self._on_predict,
            "predictor.predict_many": self._on_predict_many,
            "cli.ingest": self._on_ingest,
        }

    def _count(self, name: str, n: int) -> None:
        phase = "setup" if self.request == "setup" else "unit"
        self.counts[phase][name] += n

    # -- count hooks: (args, kwargs, result) of the wrapped call -----------

    def _on_clean_query(self, args, kwargs, result):
        self._count("sql_analyzer.tokens", len(result.tokens))

    def _on_transform(self, args, kwargs, result):
        self._count("featurizer.Featurizer.transform.rows",
                    result.rows.shape[0])

    def _on_fit_text(self, args, kwargs, result):
        self.gauges["featurizer.vocab_size"] = result.size

    def _on_fit_svd(self, args, kwargs, result):
        k = args[1] if len(args) > 1 else kwargs["k"]
        self.gauges["featurizer.svd_rank_requested"] = int(k)
        self.gauges["featurizer.svd_rank_kept"] = result.k

    def _on_histograms(self, args, kwargs, result):
        idx = args[1] if len(args) > 1 else kwargs["idx"]
        self._count("gbrt.histograms.rows", idx.size)

    def _on_forest_predict(self, args, kwargs, result):
        self._count("gbrt.Forest.predict.rows", result.shape[0])

    def _on_predict(self, args, kwargs, result):
        self._count(f"predictor.routes.{result.route}", 1)

    def _on_predict_many(self, args, kwargs, result):
        for res in result:
            self._count(f"predictor.routes.{res.route}", 1)

    def _on_ingest(self, args, kwargs, result):
        _, stats = result
        self._count("cli.ingest.read", stats.read)
        self._count("cli.ingest.dropped", sum(stats.dropped.values()))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if wrapped_names():
            raise RuntimeError("slotcast is already traced")
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            owner, attr, raw = _resolve(module, qualname)
            if isinstance(raw, classmethod):
                self._rebind(owner, attr,
                             classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapper = self._wrap(name, raw)
            self._rebind(owner, attr, wrapper)
            if "." in qualname:
                continue  # methods are looked up on their class
            # every module that imported the function by name
            for short in MODULES:
                mod = _module(short)
                for other, value in list(vars(mod).items()):
                    if value is raw and not (mod is owner and other == attr):
                        self._rebind(mod, other, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, Tuple[float, int]]]:
        """{request phase: {name: (self seconds, calls)}} where the phase is
        ``setup`` or ``unit``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, _, request) in enumerate(self.spans):
            phase = "setup" if request == "setup" else "unit"
            cell = out[phase][name]
            cell[0] += (end - start) - covered[i]
            cell[1] += 1
        return {p: {n: (c[0], c[1]) for n, c in d.items()}
                for p, d in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request})
                         + "\n")


def layer_metrics(tracer: Tracer, n_units: int) -> Dict[str, float]:
    """Per-layer figures for one traced set-up plus one unit of work.

    Unit totals are divided by the number of units run; counts repeat
    exactly because every unit does identical work.
    """
    times = tracer.self_times()
    setup, unit = times.get("setup", {}), times.get("unit", {})
    out: Dict[str, float] = {}
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        s_self, s_calls = setup.get(name, (0.0, 0))
        u_self, u_calls = unit.get(name, (0.0, 0))
        out[f"{name}.self_s"] = s_self + u_self / n_units
        out[f"{name}.calls"] = s_calls + u_calls / n_units
    for name in COUNTS:
        out[name] = (tracer.counts["setup"][name]
                     + tracer.counts["unit"][name] / n_units)
    out.update(tracer.gauges)
    return out

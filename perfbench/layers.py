"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public functions of each layer (the table in
``README.md``) so that every call records a span: id, parent span,
name, start and end (``perf_counter_ns``), and optionally a size.
Spans stay in memory; :func:`dump` writes them as JSON when the traced
daemon exits.  :func:`layer_metrics` turns the span files and ``stats``
replies of a run's daemons, and the client's round trips, into the
per-layer metrics.

Shard processes are traced too: :func:`install_shard` runs in each
spawned shard, and the shard writes its spans and its engine's cache
counters when it stops.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_SPANS: List[tuple] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _result_len(args, result):
    return len(result)


def _batch_sweeps(args, result):
    """Items of a batch, its distinct sweep demands, and the sweeps it ran."""
    return [len(args[1]), result["demands"] - result["coalesced"],
            result["computed"]]


#: (module, attribute path, span name, size function or None).
PATCHES: Tuple[tuple, ...] = (
    ("repro.topology.zoo", "network_by_name", "topology.build", None),
    ("repro.disasters.catalog", "catalog_of", "disasters.generate", _result_len),
    ("repro.population.assignment", "assign_population", "population.assign", None),
    ("repro.risk.model", "RiskModel.for_network", "risk.model_build", None),
    ("repro.engine.arrays", "CsrGraph.__init__", "engine.csr_build", None),
    ("repro.stats.kde", "GaussianKDE.density_array", "stats.kde_eval", None),
    ("repro.stats.fieldcache", "RiskFieldCache.put", "stats.fieldcache_put", None),
    ("repro.stats.fieldcache", "RiskFieldCache.put_delta", "stats.fieldcache_delta", None),
    ("repro.engine.fingerprint", "graph_fingerprint", "engine.fingerprint", None),
    ("repro.session", "RoutingSession.pair", "session.pair", None),
    ("repro.server.service", "QueryService.execute_batch", "server.execute_batch", _batch_sweeps),
    ("repro.server.protocol", "encode_reply", "server.encode", None),
    ("repro.server.protocol", "parse_request", "server.parse", None),
    ("repro.engine.sweep", "csr_sweep", "engine.sweep", None),
    ("repro.engine.sweep", "csr_sweep_batch", "engine.sweep", None),
    ("repro.engine.engine", "RoutingEngine.prefetch", "engine.prefetch", None),
    ("repro.server.shards", "ShardPool.execute_batch", "server.shards.execute_batch", _batch_sweeps),
    ("repro.server.shards", "ShardPool.broadcast_swap", "server.shards.broadcast_swap", None),
    ("repro.server.shards", "ShardPool.broadcast_ingest", "server.shards.broadcast_ingest", None),
    ("repro.server.service", "QueryService.apply_update", "server.apply_update", None),
    ("repro.engine.engine", "RoutingEngine.update_model", "engine.update_model", None),
    ("repro.server.service", "QueryService.apply_ingest", "server.apply_ingest", None),
    ("repro.risk.streaming", "StreamingHistoricalModel.ingest", "risk.ingest", None),
    ("repro.risk.streaming", "StreamingHistoricalModel.pop_risks", "risk.pop_risks", None),
    ("repro.stats.streaming", "StreamingKDE.append_events", "stats.streaming_append", None),
    ("repro.risk.streaming", "default_streaming_model", "risk.streaming_build", None),
    ("repro.engine.engine", "RoutingEngine.ratios", "engine.ratios", None),
    ("repro.engine.components", "sweep_component_arrays", "engine.components", None),
    ("repro.core.provisioning", "ProvisioningAnalyzer.greedy_links", "core.provision", None),
    ("repro.scenario.cascade", "CascadeSimulator.__init__", "scenario.simulator_build", None),
    ("repro.scenario.montecarlo", "run_monte_carlo", "scenario.montecarlo", None),
)

#: Per-layer metrics (name, unit), in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("topology.build_s", "s"),
    ("disasters.generate_s", "s"),
    ("disasters.events", "count"),
    ("population.assign_s", "s"),
    ("risk.model_build_s", "s"),
    ("engine.csr_build_ms", "ms"),
    ("stats.kde_eval_s", "s"),
    ("stats.fieldcache_hits", "count"),
    ("stats.fieldcache_misses", "count"),
    ("stats.fieldcache_write_ms", "ms"),
    ("engine.fingerprint_calls", "count"),
    ("engine.fingerprint_calls_per_request", "count"),
    ("engine.fingerprint_ms", "ms"),
    ("session.pair_us", "us"),
    ("server.execute_batch_ms", "ms"),
    ("server.batch_size", "count"),
    ("server.coalesced_sweeps", "count"),
    ("server.queue_wait_ms", "ms"),
    ("server.encode_us", "us"),
    ("server.parse_us", "us"),
    ("engine.sweeps_computed", "count"),
    ("engine.sweep_hit_ratio", "ratio"),
    ("engine.sweep_ms", "ms"),
    ("engine.prefetch_ms", "ms"),
    ("server.shards.execute_batch_ms", "ms"),
    ("server.shards.batches", "count"),
    ("server.shards.broadcast_swap_ms", "ms"),
    ("server.shards.broadcast_ingest_ms", "ms"),
    ("server.apply_update_ms", "ms"),
    ("engine.update_model_ms", "ms"),
    ("engine.invalidated", "count"),
    ("server.apply_ingest_ms", "ms"),
    ("risk.ingest_ms", "ms"),
    ("stats.streaming_append_ms", "ms"),
    ("stats.fieldcache_delta_ms", "ms"),
    ("risk.streaming_build_s", "s"),
    ("engine.ratios_ms", "ms"),
    ("engine.components_ms", "ms"),
    ("core.provision_ms", "ms"),
    ("scenario.simulator_build_ms", "ms"),
    ("scenario.montecarlo_ms", "ms"),
)


def _wrap(fn: Callable, name: str, size: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        span_id = next(_IDS)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        n = None
        try:
            result = fn(*args, **kwargs)
            if size is not None:
                n = size(args, result)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            _SPANS.append((span_id, parent, name, start, end, n))

    return traced


def install() -> None:
    """Wrap every function in :data:`PATCHES`, wherever it is bound.

    A function imported by name into another module (``from x import
    f``) is rebound there too, so callers in every loaded ``repro``
    module reach the wrapper.
    """
    for module_name, path, name, size in PATCHES:
        module = importlib.import_module(module_name)
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = vars(owner).get(parts[-1], getattr(owner, parts[-1]))
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(original.__func__, name, size))
        else:
            wrapped = _wrap(original, name, size)
        setattr(owner, parts[-1], wrapped)
        if owner is module:
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, parts[-1], None) is original):
                    setattr(other, parts[-1], wrapped)


def dump(path: str, **extra) -> None:
    """Write the recorded spans (and ``extra`` keys) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": _SPANS, **extra}, handle)


def install_shard(path: str) -> None:
    """Trace a spawned shard process; write its spans to ``path`` at exit.

    The shard's first :class:`RoutingSession` is the one serving its
    reads; its engine's sweep-cache counters go into the same file.
    The file is written by a ``multiprocessing`` finaliser, which runs
    when the shard leaves its serve loop on the pool's ``stop``.
    """
    from repro.session import RoutingSession

    install()
    sessions = []
    init = RoutingSession.__init__

    @functools.wraps(init)
    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sessions.append(self)

    RoutingSession.__init__ = remember

    def finish() -> None:
        dump(path, engine=sessions[0].stats()["sweeps"] if sessions else {})

    multiprocessing.util.Finalize(None, finish, exitpriority=0)


# -- summarising -------------------------------------------------------------


def _totals(spans: List[list]) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, list]]:
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    sizes: Dict[str, list] = defaultdict(list)
    for _sid, _parent, name, start, end, n in spans:
        total[name] += (end - start) / 1e9
        count[name] += 1
        if n is not None:
            sizes[name].append(n)
    return total, count, sizes


def _merge_stats(stats: List[dict]) -> dict:
    """Counters summed over the daemons of one run."""
    out = {"engine": {"sweeps": defaultdict(int)},
           "risk_field_cache": defaultdict(int)}
    shard_batches = 0
    for snap in stats:
        for key in ("requests", "coalesced_sweeps", "sweeps_computed"):
            out[key] = out.get(key, 0) + snap.get(key, 0)
        for key, value in snap.get("engine", {}).get("sweeps", {}).items():
            out["engine"]["sweeps"][key] += value
        for key in ("hits", "misses"):
            out["risk_field_cache"][key] += snap.get("risk_field_cache", {}).get(key, 0)
        for shard in (snap.get("shards") or {}).get("per_shard", []):
            shard_batches += shard["batches"] if shard else 0
    out["shard_batches"] = shard_batches
    return out


def layer_metrics(daemon_files: List[str], shard_files: List[str],
                  stats: List[dict], read_rtts: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one run's traced daemons (:data:`LAYER_METRICS`).

    ``daemon_files`` hold the daemons' spans, one file per start, and
    ``shard_files`` those of their shard processes.  Start-up layers are
    reported per daemon start, from the daemons' spans; everything else
    is totalled or averaged over every process of the run.  Batch size,
    queue wait and the sweep hit ratio are the daemon's, taken from the
    shard pool's batches when there is one; the hit ratio is the share
    of a batch's distinct sweep demands that needed no new sweep.
    """
    def load(paths: List[str]) -> List[dict]:
        out = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                out.append(json.load(handle))
        return out

    daemons, shards = load(daemon_files), load(shard_files)
    daemon_spans = [span for d in daemons for span in d["spans"]]
    starts = len(daemons)
    dtotal, dcount, dsizes = _totals(daemon_spans)
    total, count, _sizes = _totals(
        daemon_spans + [span for d in shards for span in d["spans"]])
    merged = _merge_stats(stats)

    def mean(name: str, scale: float) -> float:
        return total[name] / count[name] * scale if count[name] else 0.0

    batch_name = ("server.shards.execute_batch"
                  if dcount["server.shards.execute_batch"] else "server.execute_batch")
    batch_s = [(end - start) / 1e9 for _s, _p, name, start, end, _n
               in daemon_spans if name == batch_name]
    batch_sizes = [n[0] for n in dsizes[batch_name]]
    unique = sum(n[1] for n in dsizes[batch_name])
    computed = sum(n[2] for n in dsizes[batch_name])
    # The engines that serve reads are the shards' when there are any.
    engine = merged["engine"]["sweeps"]
    if shards:
        engine = defaultdict(int)
        for shard in shards:
            for key, value in shard["engine"].items():
                engine[key] += value
    cache = merged["risk_field_cache"]
    requests = merged.get("requests", 0)
    ingests = count["risk.ingest"]
    return {
        "topology.build_s": dtotal["topology.build"] / starts,
        "disasters.generate_s": dtotal["disasters.generate"] / starts,
        "disasters.events": sum(dsizes["disasters.generate"]) / starts,
        "population.assign_s": dtotal["population.assign"] / starts,
        "risk.model_build_s": dtotal["risk.model_build"] / starts,
        "engine.csr_build_ms": dtotal["engine.csr_build"] * 1e3 / starts,
        "stats.kde_eval_s": dtotal["stats.kde_eval"] / starts,
        "stats.fieldcache_hits": cache["hits"],
        "stats.fieldcache_misses": cache["misses"],
        "stats.fieldcache_write_ms": total["stats.fieldcache_put"] * 1e3,
        "engine.fingerprint_calls": count["engine.fingerprint"],
        "engine.fingerprint_calls_per_request": (
            count["engine.fingerprint"] / requests if requests else 0.0),
        "engine.fingerprint_ms": total["engine.fingerprint"] * 1e3,
        "session.pair_us": mean("session.pair", 1e6),
        "server.execute_batch_ms": mean("server.execute_batch", 1e3),
        "server.batch_size": statistics.fmean(batch_sizes) if batch_sizes else 0.0,
        "server.coalesced_sweeps": merged.get("coalesced_sweeps", 0),
        "server.queue_wait_ms": (
            (statistics.median(read_rtts) - statistics.median(batch_s)) * 1e3
            if read_rtts and batch_s else 0.0),
        "server.encode_us": mean("server.encode", 1e6),
        "server.parse_us": mean("server.parse", 1e6),
        "engine.sweeps_computed": merged.get("sweeps_computed", 0),
        "engine.sweep_hit_ratio": 1.0 - computed / unique if unique else 0.0,
        "engine.sweep_ms": total["engine.sweep"] * 1e3,
        "engine.prefetch_ms": total["engine.prefetch"] * 1e3,
        "server.shards.execute_batch_ms": mean("server.shards.execute_batch", 1e3),
        "server.shards.batches": merged["shard_batches"],
        "server.shards.broadcast_swap_ms": mean("server.shards.broadcast_swap", 1e3),
        "server.shards.broadcast_ingest_ms": mean("server.shards.broadcast_ingest", 1e3),
        "server.apply_update_ms": mean("server.apply_update", 1e3),
        "engine.update_model_ms": mean("engine.update_model", 1e3),
        "engine.invalidated": engine["invalidations"],
        "server.apply_ingest_ms": mean("server.apply_ingest", 1e3),
        "risk.ingest_ms": (
            (total["risk.ingest"] + total["risk.pop_risks"]) / ingests * 1e3
            if ingests else 0.0),
        "stats.streaming_append_ms": mean("stats.streaming_append", 1e3),
        "stats.fieldcache_delta_ms": mean("stats.fieldcache_delta", 1e3),
        "risk.streaming_build_s": dtotal["risk.streaming_build"] / starts,
        "engine.ratios_ms": mean("engine.ratios", 1e3),
        "engine.components_ms": total["engine.components"] * 1e3,
        "core.provision_ms": mean("core.provision", 1e3),
        "scenario.simulator_build_ms": total["scenario.simulator_build"] * 1e3,
        "scenario.montecarlo_ms": mean("scenario.montecarlo", 1e3),
    }

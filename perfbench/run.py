"""The RiskRoute daemon benchmark.

Usage::

    python3 perfbench/run.py --workload reads-level3 --seed 1 --seconds 6 --trace 0

Run from the root of a checkout.  Each run spawns ``riskroute serve
Level3`` as users run it, drives it over the wire from this one process
with two connections, checks every answer, and prints one line per
metric followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload against a daemon started through ``traced_serve.py`` and
reports the per-layer metrics.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Daemon starts per run.  Each start is one round that takes its share
#: of every phase, so each metric samples the whole run, not one stretch
#: of it; ``setup_s`` and the first-ingest line are medians over rounds.
ROUNDS = 3
#: The planning op of each round.
PLAN_OPS = ("ratios", "provision", "scenario")
#: Sampled read replies per run whose optimum is recomputed with scipy.
ORACLE_SAMPLE = 48
#: Provisioning depth of each planning step (Equation 4, greedy k links).
PROVISION_K = 2
#: Wall-clock limit on one blocking wait (daemon banner, one reply).
WAIT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    flags: Tuple[str, ...]  # riskroute serve flags beyond the defaults
    cold: bool              # start every daemon on an empty field cache
    pairs: str              # "zipf" (hot set, warm sweeps) or "uniform"
    serve_storm: bool       # B runs storm cycles in the serve phase;
                            # else B reads, then storm cycles as long
    repeat_scenario: bool   # re-run the planning scenario, must match


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("reads-level3", (), cold=False, pairs="zipf",
                 serve_storm=False, repeat_scenario=False),
        Workload("writes-sharded", ("--shards", "2", "--replicas", "2"),
                 cold=False, pairs="uniform", serve_storm=True,
                 repeat_scenario=False),
        Workload("planning-cold", (), cold=True, pairs="uniform",
                 serve_storm=True, repeat_scenario=True),
    )
}

#: Reads B sends after each write of a storm cycle
#: (advisory, reads, ingest, reads).
STORM_READS = 3
#: Events per ingest batch, and the advisory footprint.
BATCH_EVENTS = 6
RADIUS_MILES = 300.0
#: Monte Carlo draws of each planning step's scenario call.
SCENARIOS = 40

#: End-to-end metrics: (name, unit).
E2E_METRICS = (
    ("setup_s", "s"), ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"), ("reads_per_s", "1/s"), ("forecast_ms", "ms"),
    ("ingest_ms", "ms"), ("fresh_ms", "ms"), ("plan_s", "s"),
    ("peak_rss_mb", "MB"),
)

READ_OPS = ("pair", "route")
WRITE_OPS = ("update_forecast", "ingest")


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


# -- the daemon ----------------------------------------------------------------


def _descendants(pid: int) -> List[int]:
    out: List[int] = []
    todo = [pid]
    while todo:
        current = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    kids = [int(k) for k in handle.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Daemon:
    """One ``riskroute serve Level3`` process, spawned as users run it."""

    def __init__(self, cache_dir: Path, flags: Tuple[str, ...],
                 log_path: Path, spans_path: Optional[Path]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["RISKROUTE_CACHE_DIR"] = str(cache_dir)
        # Keep any temporary file the daemon makes inside the checkout.
        env["TMPDIR"] = str(cache_dir.parent / "tmp")
        for key in ("RISKROUTE_CACHE_DISABLE", "RISKROUTE_CACHE_MAX_BYTES"):
            env.pop(key, None)
        serve = ["serve", "Level3", "--port", "0", *flags]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(spans_path), *serve]
        self._log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(ROOT),
        )
        line = self._banner(start)
        self.setup_s = time.perf_counter() - start
        self.port = int(line.rsplit(":", 1)[1])

    def _banner(self, start: float) -> str:
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            left = WAIT_S - (time.perf_counter() - start)
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise HarnessError("daemon exited or hung before serving")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if not line.startswith("serving "):
            self.stop()
            raise HarnessError(f"unexpected daemon banner {line!r}")
        return line

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *_descendants(self.proc.pid)]
        return sum(_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT (drain and stop), then make sure every process is gone."""
        if self.proc.poll() is None:
            kids = _descendants(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            deadline = time.monotonic() + 10
            for pid in kids:
                while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                    time.sleep(0.05)
                if os.path.exists(f"/proc/{pid}"):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# -- the client side -----------------------------------------------------------


@dataclass
class Op:
    round: int
    conn: str
    phase: str
    op: str
    params: dict
    t0: float
    t1: float
    result: Optional[dict]
    fp: Optional[str]
    error: Optional[str]
    state: int = 0        # writes: index of the field state after commit

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Conn:
    """One connection; every call is timed and logged, none is retried."""

    def __init__(self, name: str, port: int, log: List[Op], rnd: int) -> None:
        from repro.server.client import RiskRouteClient

        self.name = name
        self.round = rnd
        self.client = RiskRouteClient("127.0.0.1", port, timeout=WAIT_S)
        self.log = log
        self.phase = "setup"

    def call(self, op: str, **params) -> Op:
        from repro.server.client import ServerError

        result = error = None
        t0 = time.perf_counter()
        try:
            result = self.client.call(op, **params)
        except ServerError as exc:
            error = f"{exc.code}: {exc.message}"
        except OSError as exc:
            error = f"transport: {exc}"
        t1 = time.perf_counter()
        rec = Op(self.round, self.name, self.phase, op, params, t0, t1,
                 result, None if error else self.client.last_fingerprint,
                 error)
        self.log.append(rec)
        return rec

    def close(self) -> None:
        self.client.close()


@dataclass
class Run:
    workload: Workload
    seed: int
    view: dict
    trace: bool
    ops: List[Op] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    fp0: Dict[int, str] = field(default_factory=dict)
    serve_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    stats: List[dict] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    state_of: Dict[Tuple[int, str], int] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    _mark: float = field(default_factory=time.perf_counter)

    def mark(self, phase: str) -> None:
        """Charge the wall time since the previous mark to ``phase``."""
        now = time.perf_counter()
        self.phases[phase] = self.phases.get(phase, 0.0) + now - self._mark
        self._mark = now


def _round(run: Run, rnd: int, rundir: Path, track, pairs,
           seconds: float) -> None:
    """One daemon start and its share of every phase (see README)."""
    wl = run.workload
    cache = rundir / f"cache{rnd}"
    if wl.cold:
        cache.mkdir()
    else:
        shutil.copytree(WORK / "prepared" / "warm-cache", cache)
    spans = rundir / f"spans{rnd}.json" if run.trace else None
    daemon = Daemon(cache, wl.flags, rundir / f"daemon{rnd}.log", spans)
    run.setups.append(daemon.setup_s)
    run.mark("setup")
    try:
        a = Conn("A", daemon.port, run.ops, rnd)
        b = Conn("B", daemon.port, run.ops, rnd)
        _session(run, rnd, a, b, track, pairs, seconds)
        stats = b.call("stats")
        run.stats.append(stats.result or {})
        run.peak_rss_mb = max(run.peak_rss_mb, daemon.peak_rss_mb())
        a.close()
        b.close()
    finally:
        daemon.stop()
    run.mark("stop")


def _session(run: Run, rnd: int, a: Conn, b: Conn, track, pairs,
             seconds: float) -> None:
    from inputs import read_request, stream

    wl = run.workload
    rng_a = stream(run.seed, f"reads-a:{rnd}")
    rng_b = stream(run.seed, f"reads-b:{rnd}")
    # Each round follows the storm further along its track.
    counters = {"advisory": 1000 * rnd, "batch": 1000 * rnd}

    def read(conn: Conn, rng) -> Op:
        op, params = read_request(pairs, rng)
        return conn.call(op, **params)

    def advisory(**extra) -> Op:
        counters["advisory"] += 1
        return b.call("update_forecast",
                      risk=track.advisory(counters["advisory"]), **extra)

    def ingest(batch: Optional[int] = None) -> Op:
        if batch is None:
            counters["batch"] += 1
            batch = counters["batch"]
        return b.call("ingest", events=track.events(batch, BATCH_EVENTS))

    def storm_cycle() -> None:
        advisory()
        for _ in range(STORM_READS):
            read(b, rng_b)
        ingest()
        for _ in range(STORM_READS):
            read(b, rng_b)

    def with_reader(body) -> float:
        """Run ``body`` on B while A reads in a closed loop."""
        done = threading.Event()

        def reader() -> None:
            while not done.is_set():
                read(a, rng_a)

        def operator() -> None:
            try:
                body()
            finally:
                done.set()

        threads = [threading.Thread(target=reader),
                   threading.Thread(target=operator)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    stats = b.call("stats")
    if stats.error is None:
        run.fp0[rnd] = stats.result["risk_fingerprint"]
    # The first ingest after start builds the streaming model lazily;
    # every round sends the same batch.
    b.phase = "first"
    ingest(batch=0)
    run.mark("first-ingest")

    # This round's planning op (Eq. 5/6, Eq. 4, or the cascade study) on
    # the next advisory.  On the single-process daemon it also warms the
    # geographic (alpha 0) sweeps of every source.
    b.phase = "plan"
    advisory()
    op = PLAN_OPS[rnd % len(PLAN_OPS)]
    params = {"ratios": {}, "provision": {"k": PROVISION_K},
              "scenario": {"scenarios": SCENARIOS, "seed": run.seed}}[op]
    first = b.call(op, **params)
    run.mark("plan")
    if op == "scenario" and wl.repeat_scenario:
        b.phase = "check"
        again = b.call(op, **params)
        if (first.error is None and again.error is None
                and first.result != again.result):
            run.errors.append("a repeated seeded scenario changed its report")
        run.mark("check")

    # Warm-up (untimed) of the hot pairs: their sweeps are what the
    # Zipf-skewed readers hit.
    if wl.pairs == "zipf":
        a.phase = "warmup"
        for source, target in pairs.pairs:
            a.call("pair", source=source, target=target)
        run.mark("warm-up")

    # Serve slice: B runs whole cycles until this round's time is up.
    def serve(storm: bool) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            if storm:
                storm_cycle()
            else:
                for _ in range(2 + 2 * STORM_READS):
                    read(b, rng_b)

    a.phase = b.phase = "serve"
    run.serve_seconds += with_reader(lambda: serve(wl.serve_storm))
    if not wl.serve_storm:
        # As long as the slice, so the share of reads that wait behind
        # a write does not move with the host's speed.
        a.phase = b.phase = "storm"
        with_reader(lambda: serve(True))
    run.mark("serve")

    if rnd == ROUNDS - 1:
        b.phase = "check"
        token = f"perfbench-{run.seed}"
        first = advisory(token=token)
        counters["advisory"] -= 1
        replay = advisory(token=token)
        if first.error is None and replay.error is None:
            if (first.result.get("duplicate")
                    or not replay.result.get("duplicate")):
                run.errors.append("a replayed write token was not answered "
                                  "duplicate: true")
            if first.fp != replay.fp:
                run.errors.append("a replayed write token moved the "
                                  "fingerprint")
        run.mark("check")


def _verify(run: Run) -> None:
    """Every check that needs no daemon: oracle, walks, write semantics.

    Failed operations are counted, not checked; ``run.errors`` collects
    wrong answers among the operations that succeeded.
    """
    from oracle import KdeField, Oracle

    oracle = Oracle(run.view)
    nodes = run.view["nodes"]
    errors = run.errors
    risks: Dict[Tuple[int, int], object] = {}
    rounds = sorted({r.round for r in run.ops})
    reads = [r for r in run.ops if r.op in READ_OPS and r.error is None]
    for rnd in rounds:
        # States of the served field in commit order (writes come from
        # B, one at a time).  State 0 is the corpus field at start.
        writes = [r for r in run.ops if r.round == rnd
                  and r.op in WRITE_OPS and r.error is None]
        field_oh = KdeField(run.view)
        of = [0.0] * len(nodes)
        risks[rnd, 0] = oracle.risk(run.view["oh"], of)
        run.state_of[rnd, run.fp0.get(rnd)] = 0
        state = 0
        for rec in writes:
            if not rec.result.get("duplicate"):
                if rec.op == "update_forecast":
                    of = [rec.params["risk"].get(node, 0.0) for node in nodes]
                else:
                    field_oh.ingest(rec.params["events"])
                    sent = len(rec.params["events"])
                    got = (rec.result["appended"], rec.result["duplicates"],
                           rec.result["stale"])
                    if got != (sent, 0, 0):
                        errors.append(f"ingest of {sent} new events answered "
                                      f"appended/duplicates/stale {got}")
                if rec.result.get("changed"):
                    state += 1
                    risks[rnd, state] = oracle.risk(field_oh.oh, of)
                    run.state_of[rnd, rec.fp] = state
            rec.state = state

        # No read sent after a write's ack carries an older field.
        acks = [w.t1 for w in writes]
        for rec in (r for r in reads if r.round == rnd):
            key = (rnd, rec.fp)
            if key not in run.state_of:
                errors.append(f"{rec.op} reply stamped with unknown "
                              f"fingerprint {rec.fp}")
                continue
            before = bisect_left(acks, rec.t0)
            if before and run.state_of[key] < writes[before - 1].state:
                errors.append(f"{rec.op} sent after a write's ack carries "
                              f"the pre-write fingerprint")
            errors.extend(oracle.check_shape(rec.op, rec.params, rec.result))

    sample = random.Random(f"{run.seed}:oracle").sample(
        reads, min(ORACLE_SAMPLE, len(reads)))
    for rec in sample:
        key = (rec.round, rec.fp)
        if key in run.state_of:
            errors.extend(oracle.check_optimum(
                rec.op, rec.params, rec.result, risks[rec.round,
                                                      run.state_of[key]]))

    for rec in run.ops:
        if rec.error is not None:
            continue
        if rec.op == "ratios":
            errors.extend(oracle.check_ratios(rec.result))
        elif rec.op == "provision":
            errors.extend(oracle.check_provision(rec.result, PROVISION_K))
        elif rec.op == "scenario":
            errors.extend(oracle.check_scenario(rec.result))


def _fresh_ms(run: Run) -> List[float]:
    """Per storm advisory: send -> first read reply showing its field."""
    storm = ("serve", "storm")
    reads = sorted((r for r in run.ops if r.op in READ_OPS
                    and r.phase in storm and (r.round, r.fp) in run.state_of),
                   key=lambda r: r.t1)
    out = []
    for w in run.ops:
        if (w.phase not in storm or w.op != "update_forecast"
                or w.error is not None):
            continue
        for r in reads:
            if (r.round == w.round and r.t1 >= w.t0
                    and run.state_of[r.round, r.fp] >= w.state):
                out.append((r.t1 - w.t0) * 1e3)
                break
    return out


def _trimmed_mean(values: List[float], cut: float = 0.1) -> float:
    """Mean of the middle ``1 - 2 cut`` of the samples.

    Write latencies are a mix of two modes (a write that finds the
    other connection's read batch in flight waits for it), and a median
    sits on the boundary between them, jumping with their proportions;
    the trimmed mean moves with them smoothly and drops pauses.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def _band_mean(values: List[float]) -> float:
    """Mean of the samples ranked between the 97th and 99th percentiles.

    The read tail is a mix of two modes too: reads that waited behind a
    write commit (one or two per ``ingest``, ~2-3 % of the reads on
    ``reads-level3``) and the rest.  A single percentile near that share
    jumps between the modes; the band mean moves with the share
    smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    start = int(0.97 * n)
    return statistics.fmean(ordered[start:max(int(0.99 * n), start + 1)])


def _timed_reads(run: Run) -> List[Op]:
    """Reads of the serve slices and of the storm cycles after them.

    On ``reads-level3`` the serve slices carry no writes, so their
    slowest 2 % are scheduling stalls of the host; with the storm cycles
    the tail is the wait of a read behind a write commit, as on the
    other workloads, whose serve slices are storm cycles.
    """
    return [r for r in run.ops if r.phase in ("serve", "storm")
            and r.op in READ_OPS and r.error is None]


def _e2e(run: Run) -> Dict[str, float]:
    timed = _timed_reads(run)
    reads = [r.seconds * 1e3 for r in timed]
    served = sum(r.phase == "serve" for r in timed)
    by_op = {op: [r.seconds for r in run.ops if r.op == op and r.error is None
                  and r.phase == "plan"]
             for op in PLAN_OPS}
    storm = [r for r in run.ops if r.phase in ("serve", "storm")
             and r.error is None]
    forecasts = [r.seconds * 1e3 for r in storm if r.op == "update_forecast"]
    ingests = [r.seconds * 1e3 for r in storm if r.op == "ingest"]
    fresh = _fresh_ms(run)
    missing = [name for name, values in (
        ("reads", reads), ("forecasts", forecasts), ("ingests", ingests),
        ("fresh", fresh), *by_op.items()) if not values]
    if missing:
        raise HarnessError(f"no samples for {missing}; run longer")
    return {
        "setup_s": statistics.median(run.setups),
        "read_p50_ms": statistics.median(reads),
        "read_tail_ms": _band_mean(reads),
        "reads_per_s": served / run.serve_seconds,
        "forecast_ms": _trimmed_mean(forecasts),
        "ingest_ms": _trimmed_mean(ingests),
        "fresh_ms": _trimmed_mean(fresh),
        "plan_s": sum(statistics.median(v) for v in by_op.values()),
        "peak_rss_mb": run.peak_rss_mb,
    }


def _first_ingests(run: Run) -> List[float]:
    """The first ``ingest`` after each start (builds the streaming model)."""
    return [r.seconds for r in run.ops if r.phase == "first"
            and r.error is None]


# -- preparation and entry point -----------------------------------------------


def _prepare() -> dict:
    """Build the warm cache template and the Level3 view once per checkout."""
    view_path = WORK / "prepared" / "level3.json"
    if not view_path.is_file():
        tmp = WORK / f"prepared.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, str(HERE / "prepare.py"), str(tmp)],
                       check=True, env=env, cwd=str(ROOT), timeout=600,
                       stdout=subprocess.DEVNULL)
        try:
            os.replace(tmp, WORK / "prepared")
        except OSError:  # another run prepared this checkout first
            shutil.rmtree(tmp, ignore_errors=True)
    return json.loads(view_path.read_text(encoding="utf-8"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no RiskRoute sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    view = _prepare()
    from inputs import StormTrack, UniformPairs, ZipfPairs, stream

    wl = WORKLOADS[args.workload]
    run = Run(wl, args.seed, view, bool(args.trace))
    track = StormTrack(view, args.seed, RADIUS_MILES)
    if wl.pairs == "zipf":
        pairs = ZipfPairs(view["nodes"], stream(args.seed, "hot-pairs"))
    else:
        pairs = UniformPairs(view["nodes"])
    rundir = WORK / "runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "tmp").mkdir(parents=True)
    try:
        for rnd in range(ROUNDS):
            _round(run, rnd, rundir, track, pairs, args.seconds / ROUNDS)
        _verify(run)
        run.mark("verify")
        e2e = _e2e(run)
        if args.trace:
            import layers

            rtts = [r.seconds for r in _timed_reads(run)]
            values = layers.layer_metrics(
                [str(rundir / f"spans{rnd}.json") for rnd in range(ROUNDS)],
                sorted(str(p) for p in rundir.glob("spans*.shard*.json")),
                run.stats, rtts)
            units = dict(layers.LAYER_METRICS)
            for name, unit in E2E_METRICS:
                values[f"traced.{name}"] = e2e[name]
                units[f"traced.{name}"] = unit
        else:
            values, units = e2e, dict(E2E_METRICS)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"serve phase {run.serve_seconds:.2f} s over {ROUNDS} rounds")
    print("  wall time: " + ", ".join(
        f"{phase} {secs:.1f} s" for phase, secs in run.phases.items()))
    for op in sorted({r.op for r in run.ops}):
        done = [r for r in run.ops if r.op == op]
        failed = sum(r.error is not None for r in done)
        print(f"  op {op:<16} attempted {len(done):6d}  failed {failed}")
    for rec in [r for r in run.ops if r.error is not None][:10]:
        print(f"  FAILED {rec.op}: {rec.error}")
    for message in run.errors[:20]:
        print(f"  CHECK FAILED: {message}")
    for rec in run.ops:
        if rec.phase == "plan" and rec.op in PLAN_OPS and rec.error is None:
            print(f"  planning op {rec.op:<27} {rec.seconds:14.4f} s")
    firsts = _first_ingests(run)
    if firsts:
        print(f"  first ingest after start (median) "
              f"{statistics.median(firsts):14.4f} s")
    for name, value in values.items():
        print(f"  {name:<40} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": len(run.ops),
        "failed": sum(r.error is not None for r in run.ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

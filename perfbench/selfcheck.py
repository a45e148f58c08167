"""Steadiness self-check for the benchmark in ``BENCHMARK.json``.

Usage (from the checkout root)::

    python3 perfbench/selfcheck.py

For each workload of ``BENCHMARK.json`` it makes two sets of ten runs,
each run with its own seed (set ``k`` uses seeds ``1000 k + 1 ...``),
and reports per end-to-end metric the median of each set, the larger
of the two sets' spreads (inter-quartile range over the median, as
``statistics.quantiles(values, n=4)`` gives it) against the metric's
bound, and whether the two medians differ by more than the bound in
either direction.  It then makes one traced run per workload and
reports its per-layer metrics plus the tracing overhead: the traced
end-to-end figures against the medians of the last untraced set.
Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Sets of runs, runs per set, and traced runs per workload.
SETS, RUNS, TRACED = 2, 10, 1


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"incorrect output: {' '.join(cmd)}")
    return result


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = spec["end_to_end"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1000 * (k + 1) + i + 1
                runs.append(_run(spec, workload, seed, 0))
                print(f"# {workload} set {k + 1} seed {seed} done",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"\n{workload}: {RUNS} runs x {SETS} sets; "
              f"failed share {sorted(shares)}")
        if len(shares) != 1:
            ok = False
            print("  FAIL: the failed share differs between runs")
        print(f"  {'metric':<16}{'median 1':>12}{'median 2':>12}{'spread':>9}"
              f"{'bound':>7}{'2nd/1st':>9}  verdict")
        medians = {}
        for metric in e2e:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in runs]
                      for runs in sets]
            meds = [statistics.median(v) for v in values]
            # The traced run comes right after the last set; the host's
            # speed drifts over minutes, so that set is the fair baseline.
            medians[name] = meds[-1]
            spreads = [_spread(v) for v in values]
            drift = abs(meds[-1] - meds[0]) / meds[0]
            verdict = "ok"
            if max(spreads) > metric["bound"]:
                verdict = "FAIL spread"
            elif drift > metric["bound"]:
                verdict = "FAIL drift"
            elif max(spreads) > metric["bound"] / 3:
                verdict = "ok (spread above a third of the bound)"
            ok = ok and verdict.startswith("ok")
            print(f"  {name:<16}{meds[0]:>12.4g}{meds[-1]:>12.4g}{max(spreads):>9.3f}"
                  f"{metric['bound']:>7.2f}{meds[-1] / meds[0]:>9.3f}  "
                  f"{verdict}")
            print("    " + " ".join(f"{v:.4g}" for v in sum(values, [])))
        traced = [_run(spec, workload, 9000 + i + 1, 1) for i in range(TRACED)]
        print(f"  per-layer metrics (median of {TRACED} traced runs):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = statistics.median(r["metrics"][name]["value"] for r in traced)
            print(f"    {name:<40}{value:>14.4f} {metric['unit']}")
        print("  tracing overhead (traced median / last set's median - 1):")
        for metric in e2e:
            name = metric["name"]
            value = statistics.median(
                r["metrics"][f"traced.{name}"]["value"] for r in traced)
            print(f"    {name:<16}{value / medians[name] - 1:>+9.3f}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

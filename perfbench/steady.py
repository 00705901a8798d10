"""Steadiness tool: run workloads in two sets of seeds and compare the sets.

    python3 perfbench/steady.py --workloads nasa-update --seeds 1-10

For every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints each set's median and quartiles, the spread (inter-quartile
distance over the median) and the gap between the sets' medians, both
against the metric's bound.  A set runs its seeds one after the other
(never two runs at once); the second set starts after the first ends,
so the sets are taken at different times.

The verdict follows the acceptance rules of ``BENCHMARK.json``: a
spread above its bound fails for every metric but ``setup_s`` (whose
set-up is repeated only three times a run; its gap is what gates it),
a gap above its bound in either direction fails for every metric, and
so does a share of failed operations that differs between runs.  A
spread above a third of its bound is marked as above target.  The tool
exits 1 when anything fails.

``--trace-overhead`` adds a traced run for the first three seeds and
prints, per metric, the median ratio of traced to untraced values of
the same seed.  Raw results are written to
``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Seeds that also get a traced run under ``--trace-overhead``.
TRACED_SEEDS = 3
#: The two sets compared.
SETS = 2


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    command = [*config["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for line in lines:
        if line.startswith("# end_to_end "):
            result["end_to_end"] = json.loads(line[len("# end_to_end "):])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in config["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    raw: dict = {"seeds": seeds, "sets": {}, "traced": {}}
    for number in range(SETS):
        for workload in workloads:
            results = []
            for seed in seeds:
                result = run_once(config, workload, seed, 0)
                results.append(result)
                print(f"set {number + 1} {workload} seed {seed}: {result['wall_s']:.1f}s wall, "
                      f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
            raw["sets"].setdefault(workload, []).append(results)
    if args.trace_overhead:
        for workload in workloads:
            raw["traced"][workload] = [
                run_once(config, workload, seed, 1) for seed in seeds[:TRACED_SEEDS]]

    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(raw, indent=1))

    failures: list[str] = []
    worst = 0.0
    for workload in workloads:
        sets = raw["sets"][workload]
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        if len(shares) != 1:
            failures.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
        print(f"\n## {workload}  (failed share per run: {sorted(shares)})")
        print(f"{'metric':<16}{'bound':>7}  " + "  ".join(
            f"{'set' + str(i + 1) + ' q1/median/q3':>34}{'spread':>8}" for i in range(SETS))
            + f"{'gap':>8}  verdict")
        for name, bound in bounds.items():
            cells, medians, verdict = [], [], []
            for number, results in enumerate(sets, 1):
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                cells.append(f"{q1:>11.4g}/{q2:>10.4g}/{q3:>11.4g}{spread:>8.3f}")
                if name == "setup_s":
                    continue
                worst = max(worst, spread / bound)
                if spread > bound:
                    verdict.append(f"FAIL spread{number}")
                    failures.append(f"{workload} {name}: set {number} spread "
                                    f"{spread:.3f} > bound {bound}")
                elif spread > bound / 3:
                    verdict.append(f"spread{number} above target")
            gap = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            if abs(gap) > bound:
                verdict.append("FAIL gap")
                failures.append(f"{workload} {name}: gap {gap:+.3f} beyond bound {bound}")
            print(f"{name:<16}{bound:>7.3f}  " + "  ".join(cells) + f"{gap:>+8.3f}  "
                  + (", ".join(verdict) or "ok"))
        if args.trace_overhead:
            traced = raw["traced"][workload]
            print(f"tracing overhead, seeds {seeds[:TRACED_SEEDS]} "
                  "(median of traced / untraced, same seed):")
            for name in bounds:
                ratios = [t["end_to_end"][name] / u["metrics"][name]["value"]
                          for t, u in zip(traced, sets[0])]
                print(f"  {name:<16}{statistics.median(ratios):>8.3f}")
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("verdict: " + ("FAIL" if failures else "every metric within its bounds"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

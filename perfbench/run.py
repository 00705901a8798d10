"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload xmark-read --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy.  With ``--trace 0`` the
last line holds every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` the run wraps the program's layer entry points, holds the
per-layer metrics instead, and writes its spans to
``.perfbench_out/trace-<workload>-<seed>.json``.  Stores and temporary
files live under ``.perfbench_work/``, which is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"


def _pin_environment() -> None:
    """Measure the program's defaults: drop every DKINDEX_* setting."""
    for key in [key for key in os.environ if key.startswith("DKINDEX_")]:
        del os.environ[key]


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"no program source at {source}; run from a checkout's root")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"imported repro from {repro.__file__}, not from {source}")


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if str(path).startswith(point) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def _header(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return [
        f"# workload={workload} seed={seed} seconds={seconds} trace={trace}",
        f"# python={platform.python_version()} numpy={numpy_version} "
        f"platform={platform.platform()} nproc={os.cpu_count()}",
        f"# store_dir={WORKDIR} filesystem={_filesystem(WORKDIR.resolve())}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    _import_program()
    from layers import install_tracer, per_layer
    from oracle import CheckFailed
    from workloads import WORKLOADS, Run, end_to_end

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    (WORKDIR / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(WORKDIR / "tmp")
    for line in _header(spec.name, args.seed, args.seconds, args.trace):
        print(line, flush=True)

    tracer = install_tracer(args.trace == 1)
    run = Run(spec, args.seed, args.seconds, WORKDIR, tracer)
    correct, error = True, None
    try:
        samples = run.execute()
    except CheckFailed as failure:
        correct, error = False, str(failure)
    finally:
        tracer.restore()
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.environ.pop("DKINDEX_POOL_BUDGET", None)

    if not correct:
        print(f"# CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, run.samples.attempted),
                          "failed": run.samples.failed, "metrics": {}}))
        return 1

    e2e = end_to_end(samples)
    print("# notes " + json.dumps(run.notes, sort_keys=True))
    print("# end_to_end " + json.dumps({name: value for name, (value, _unit) in e2e.items()}))
    if args.trace == 1:
        metrics, coverage = per_layer(tracer, samples)
        print("# build_coverage " + json.dumps(coverage))
        OUTDIR.mkdir(exist_ok=True)
        tracer.write(
            str(OUTDIR / f"trace-{spec.name}-{args.seed}.json"),
            {"workload": spec.name, "seed": args.seed, "end_to_end": {
                name: value for name, (value, _unit) in e2e.items()},
             "build_coverage": coverage},
        )
    else:
        metrics = e2e
    print(json.dumps({
        "correct": True,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

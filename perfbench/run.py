"""facepipe benchmark: one workload, one seed, one measured run.

Usage, from the repository root:

    python3 perfbench/run.py --workload c7 --seed 7 --seconds 30 --trace 0

The run generates the workload's inputs from the seed, times set-up, then
repeats the workload's command sequence (each repetition in a fresh
process, every command through `facepipe.cli.main`) while the time budget
allows, and checks every output. With `--trace 0` it reports the
end-to-end metrics as medians over the repetitions; with `--trace 1` it
alternates untraced and traced repetitions and reports per-layer span
metrics plus the tracing overhead. Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = WORK / "digests.json"

SETUP_REPEATS = 9
REPETITION_TIMEOUT_S = 160
# Outputs that must be byte-identical for one commit and seed; logs and
# resolved configs are left out.
DETERMINISTIC_NAMES = {"manifest.json", "cmc.csv", "roc.csv", "summary.json"}

# Reported by name on the workloads they apply to, outside the JSON result.
STAGE_METRICS = [
    ("preprocess_scans_per_s", "1/s"),
    ("augment_clouds_per_s", "1/s"),
    ("render_maps_per_s", "1/s"),
    ("failed_fraction", "fraction"),
]


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each `end_to_end` or `per_layer` metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program source, or a broken repetition)."""


def log(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _openblas_threads() -> str:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _openblas_threads()
    except OSError:
        threads = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workers": 1,
    }


# ---------------------------------------------------------------------------
# Files and digests
# ---------------------------------------------------------------------------


def tree_digest(directory: Path, keep=lambda p: True) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and keep(p)):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def is_deterministic_output(path: Path) -> bool:
    return path.suffix == ".pgm" or path.name in DETERMINISTIC_NAMES


def count(directory: Path, pattern: str) -> int:
    return sum(1 for _ in directory.glob(pattern)) if directory.is_dir() else 0


def recorded_digest(key: str, value: str) -> str | None:
    """Digest stored under `key` by an earlier run in this checkout; stores
    `value` when there is none. Returns the earlier digest if it differs."""
    store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    earlier = store.setdefault(key, value)
    DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True))
    return earlier if earlier != value else None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def time_setup(config_path: Path) -> float:
    """What every command pays before per-item work: config, models, index."""
    from facepipe.cli import load_config
    from facepipe.pointcloud import NeighborIndex

    start = time.perf_counter()
    config = load_config(config_path)
    config.load_morphable()
    reference = config.load_reference()
    NeighborIndex(reference.points)
    return time.perf_counter() - start


def run_repetition(workload, seed: int, inp: Path, out: Path, trace: bool) -> dict:
    """One repetition in a fresh worker process; returns its measurements."""
    from perfbench.workloads import resolve

    out.mkdir(parents=True)
    config, commands = resolve(workload, seed, inp, out)
    (out / "config.json").write_text(json.dumps(config, indent=1))
    job = {"root": str(ROOT), "src": str(SRC), "run": out.name, "trace": trace, "commands": commands}
    job_path, result_path = out / "job.json", out / "result.json"
    job_path.write_text(json.dumps(job))
    with open(out / "stderr.log", "wb") as err:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT, stdout=err, stderr=err, timeout=REPETITION_TIMEOUT_S,
        )
    if proc.returncode != 0 or not result_path.exists():
        tail = (out / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())

    argv = dict(commands)
    attempted = failed = 0
    for cmd in result["commands"]:
        args = argv[cmd["label"]]
        items = count(Path(args[2]), "*.pgm") if args[0] == "evaluate" else count(Path(args[1]), "*.ply")
        attempted += items
        # a command that fails as a whole fails every item it was given
        failed += cmd["failed_items"] if cmd["failed_items"] or cmd["exit"] == 0 else items
    seconds = {c["label"]: c["seconds"] for c in result["commands"]}

    def stage_seconds(kind):
        return sum(c["seconds"] for c in result["commands"] if argv[c["label"]][0] == kind)

    reports = {label: Path(args[3]) for label, args in commands if args[0] == "evaluate"}
    summaries = {
        label: json.loads((d / "summary.json").read_text()) for label, d in reports.items()
        if (d / "summary.json").exists()
    }
    cmcs = {
        label: [float(r.split(",")[1]) for r in (d / "cmc.csv").read_text().split()[1:]]
        for label, d in reports.items() if (d / "cmc.csv").exists()
    }
    def files(kind, position, pattern):
        return sum(count(Path(a[position]), pattern) for _, a in commands if a[0] == kind)

    scored = summaries.get(workload.scored, {})
    rep = {
        "commands": result["commands"],
        "wall_s": sum(seconds.values()),
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "scans": files("preprocess", 1, "*.ply"),
        "preprocess_s": stage_seconds("preprocess"),
        "clouds": files("augment", 2, "*.ply"),
        "augment_s": stage_seconds("augment"),
        "maps": files("render", 2, "*.pgm"),
        "render_s": stage_seconds("render"),
        "probes": scored.get("probe_count", 0),
        "evaluate_s": seconds.get(workload.scored, 0.0),
        "rank1": scored.get("rank1_accuracy", 0.0),
        "summaries": summaries,
        "cmcs": cmcs,
        "output_digest": tree_digest(out, is_deterministic_output),
    }
    if trace:
        from perfbench.spans import summarize

        rep["layers"] = summarize(result["names"], result["spans"], result["results"])
        rep["spans"] = len(result["spans"])
    shutil.rmtree(out)
    return rep


def check(workload, reps: list[dict]) -> list[str]:
    """Correctness of every repetition; returns the problems found.

    The scored evaluate's rank-1 must reach the workload's floor; on `c7`
    the self evaluate must also reach rank-1 1.0, as in criterion 7.
    """
    problems = []
    for i, rep in enumerate(reps):
        for cmd in rep["commands"]:
            if cmd["exit"] != 0:
                problems.append(f"rep {i}: {cmd['label']} exited {cmd['exit']}")
        if rep["failed"]:
            problems.append(f"rep {i}: {rep['failed']} of {rep['attempted']} items failed")
        for label, curve in rep["cmcs"].items():
            if not curve or curve[-1] != 1.0 or any(b < a for a, b in zip(curve, curve[1:])):
                problems.append(f"rep {i}: {label} CMC is not monotone up to 1.0")
        if rep["probes"] != workload.probes:
            problems.append(f"rep {i}: {rep['probes']} probes scored, expected {workload.probes}")
        if rep["rank1"] < workload.rank1_floor:
            problems.append(f"rep {i}: rank-1 {rep['rank1']} is below the floor {workload.rank1_floor}")
        if workload.criterion_7:
            self_r1 = rep["summaries"].get("evaluate-self", {}).get("rank1_accuracy")
            if self_r1 != 1.0:
                problems.append(f"rep {i}: criterion 7 self rank-1 {self_r1} != 1.0")
    if len({r["output_digest"] for r in reps}) > 1:
        problems.append("output digests differ between repetitions")
    return problems


def counters(layers: dict) -> dict:
    """The exact counts of a traced repetition: calls, iterations, convergence."""
    return {
        f"{name}.{key}": value
        for name, stats in layers.items()
        for key, value in stats.items()
        if key in ("calls", "iterations", "converged_ratio")
    }


def spread(values) -> str:
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "evaluate_probes_per_s": [r["probes"] / r["evaluate_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "rank1_accuracy": [r["rank1"] for r in reps],
    }
    stage = {
        "preprocess_scans_per_s": [r["scans"] / r["preprocess_s"] for r in reps if r["scans"]],
        "augment_clouds_per_s": [r["clouds"] / r["augment_s"] for r in reps if r["clouds"]],
        "render_maps_per_s": [r["maps"] / r["render_s"] for r in reps if r["maps"]],
        "failed_fraction": [r["failed"] / r["attempted"] for r in reps],
    }
    lines = []
    metrics = {}
    for name, unit in declared_metrics("end_to_end"):
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"metric {name} = {value:.6g} {unit} (median, {spread(samples[name])})")
    for label in [c["label"] for c in reps[0]["commands"]]:
        secs = [c["seconds"] for r in reps for c in r["commands"] if c["label"] == label]
        lines.append(f"command {label}: {statistics.median(secs):.4f} s (median, {spread(secs)})")
    for name, unit in STAGE_METRICS:
        if stage[name]:
            lines.append(f"metric {name} = {statistics.median(stage[name]):.6g} {unit} (median, {spread(stage[name])})")
        else:
            lines.append(f"metric {name} = n/a (this workload does not run that stage)")
    return metrics, lines


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    layers = [r["layers"] for r in traced]
    wall = statistics.median([r["wall_s"] for r in traced])
    metrics = {}
    for name, unit in declared_metrics("per_layer"):
        layer, _, stat = name.rpartition(".")
        if stat == "self_share":
            module_self = [sum(s["self_s"] for n, s in lay.items() if n.startswith(layer + ".")) for lay in layers]
            value = statistics.median(module_self) / wall
        elif name == "trace.wall_s":
            value = wall
        elif name == "trace.overhead_s":
            value = wall - statistics.median([r["wall_s"] for r in plain])
        else:
            value = statistics.median([lay[layer][stat] for lay in layers])
        metrics[name] = {"value": value, "unit": unit}

    lines = [f"traced repetitions: {len(traced)}, untraced: {len(plain)}, spans per repetition: {traced[0]['spans']}"]
    lines.append(f"tracing overhead: {metrics['trace.overhead_s']['value']:+.4f} s on a traced wall of {wall:.4f} s")
    lines.append("self time by layer, ranked by share of traced wall_s:")
    selfs = {n: statistics.median([lay[n]["self_s"] for lay in layers]) for n in layers[0]}
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
    covered = sum(selfs.values())
    for n, s in ranked:
        if layers[0][n]["calls"]:
            lines.append(f"  {s / wall:7.2%}  {s:9.4f} s  {layers[0][n]['calls']:7d} calls  {n}")
    lines.append(f"  {(wall - covered) / wall:7.2%}  {wall - covered:9.4f} s  outside any span")

    # ROADMAP item 2's re-anchor figures, per call, for comparison
    first = layers[0]
    anchors = [
        ("pointcloud.save_ply", "8.4 ms per 1.2k-point cloud"),
        ("pointcloud.load_ply", "4.3 ms"),
        ("depthmap.median_filter", "55-60 ms per 200 px map"),
        ("depthmap.resize", "3 ms (40 to 224 px)"),
        ("embedding.pca_fit", "2.2 s on 300 maps at 224 px"),
    ]
    for n, anchor in anchors:
        calls = first[n]["calls"]
        if calls:
            per_call = statistics.median([lay[n]["busy_s"] for lay in layers]) / calls
            lines.append(f"re-anchor {n}: {per_call * 1e3:.2f} ms per call over {calls} calls (ROADMAP: {anchor})")
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def import_program() -> None:
    """Make `facepipe` importable from this checkout's source tree, and only from there."""
    if not (SRC / "facepipe" / "cli.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'facepipe'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import facepipe

    if Path(facepipe.__file__).resolve().parent != (SRC / "facepipe").resolve():
        raise BenchmarkError(f"facepipe imported from {facepipe.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        return measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> int:
    """Generate, time set-up and repetitions, check, and print the result."""
    from perfbench.workloads import resolve

    log(f"workload {workload.name}: {workload.why}")
    log("environment " + json.dumps(environment(), sort_keys=True))
    inp = run_dir / "in"
    inp.mkdir(parents=True)
    start = time.perf_counter()
    workload.generate(inp, seed)
    input_digest = tree_digest(inp)
    log(f"inputs generated in {time.perf_counter() - start:.2f} s, sha256 {input_digest}")

    setups = []
    if not trace:
        setup_dir = run_dir / "setup"
        setup_dir.mkdir()
        config, _ = resolve(workload, seed, inp, setup_dir)
        (setup_dir / "config.json").write_text(json.dumps(config))
        setups = [time_setup(setup_dir / "config.json") for _ in range(SETUP_REPEATS)]

    # Repeat while the next repetition is expected to end inside the budget;
    # a traced run alternates untraced and traced repetitions.
    plain, traced = [], []
    budget_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_repetition(workload, seed, inp, run_dir / f"rep{len(plain)}", False))
        if trace:
            traced.append(run_repetition(workload, seed, inp, run_dir / f"trace{len(traced)}", True))
        now = time.perf_counter()
        if now - budget_start + (now - t0) > seconds:
            break

    reps = plain + traced
    problems = check(workload, reps)
    if tree_digest(inp) != input_digest:
        problems.append("the program changed its input files")
    output_digest = reps[0]["output_digest"]
    src_digest = tree_digest(SRC, lambda p: p.suffix == ".py")
    bench_digest = tree_digest(ROOT / "perfbench", lambda p: p.suffix == ".py")
    earlier = recorded_digest(f"inputs/{bench_digest}/{workload.name}/{seed}", input_digest)
    if earlier:
        problems.append(f"input digest {input_digest} differs from an earlier run's {earlier}")
    earlier = recorded_digest(f"outputs/{bench_digest}/{src_digest}/{workload.name}/{seed}", output_digest)
    if earlier:
        problems.append(f"output digest {output_digest} differs from an earlier run's {earlier} of this source")
    if len(traced) > 1 and any(counters(r["layers"]) != counters(traced[0]["layers"]) for r in traced):
        problems.append("traced counters differ between repetitions")

    log(f"outputs sha256 {output_digest} (source sha256 {src_digest})")
    for label, summary in sorted(reps[0]["summaries"].items()):
        log(f"{label}: " + json.dumps(summary, sort_keys=True))
    if traced:
        metrics, lines = per_layer(traced, plain)
    else:
        metrics, lines = end_to_end(plain, setups)
    for line in lines:
        log(line)
    log(f"rank-1 {reps[0]['rank1']} against the floor {workload.rank1_floor}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    log(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

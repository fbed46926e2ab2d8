"""Benchmark of the xkraus command line, run in-process through cli.main.

Run from the repository root:

    python3 bench/run.py --workload esd-search --seed 7 --seconds 55 --trace 0

One process, one thread, one caller in a closed loop.  The seed fixes the
command list (see workloads.py).  Each command runs through
``xkraus.cli.main`` with ``--out`` pointing into a scratch directory under
``.bench_build/``; only the call itself is timed.  After the first pass
every output is hashed and checked (checker.py); a non-zero exit or a wrong
answer counts as a failed command.

``--trace 0`` repeats the list until ``--seconds`` are used up (at least
MIN_PASSES times), keeps each command's fastest pass and reports the
end-to-end metrics.  ``--trace 1`` runs it once
untraced and once traced (tracer.py) and reports the per-layer metrics plus
the tracing overhead.  Every pass must produce identical bytes.  The second-to-last stdout line is a JSON report with
sample counts, failures, the environment and the determinism record; the
last line is the result: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

from workloads import WORKLOADS, Command, commands

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BUILD_DIR = os.path.join(".bench_build", "bench")
STARTUP_SAMPLES = 9
MIN_PASSES = 3

_STARTUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import xkraus\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, xkraus.__file__)\n"
)

# Small commands run once, untimed, before the loop so that lazy imports
# and first-call set-up inside numpy are not charged to the first command.
_WARMUP = (
    ["evolve", "--channel", "amplitude", "--fidelity", "0.8", "--steps", "3"],
    ["sweep", "--channel", "phase", "--fidelity-steps", "2", "--steps", "2", "--format", "json"],
    ["esd", "--channel", "equalizing", "--family", "custom-x", "--x-params",
     "0.5,0,0,0.5,0,0,0.5,0", "--rate-b", "0.5", "--horizon", "1"],
    ["demo-local-ops", "--fidelity", "0.9", "--format", "json"],
)

# Per-layer metrics: metric prefix -> span labels it sums.
LAYER_FUNCTIONS = {
    "channels.propagate_x.closed": ("channels.propagate_x.closed",),
    "channels.propagate_x.dense": ("channels.propagate_x.dense",),
    "channels.kraus_set": ("channels.kraus_set",),
    "channels.apply": ("channels.apply",),
    "channels.check_cptp": ("channels.check_cptp",),
    "entanglement.concurrence_x": ("entanglement.concurrence_x",),
    "entanglement.esd_time_numeric": ("entanglement.esd_time_numeric",),
    "entanglement.critical_fidelity_numeric": ("entanglement.critical_fidelity_numeric",),
    "states.werner": ("states.werner_psi", "states.werner_phi"),
    "states.to_dense": ("states.to_dense",),
    "states.from_dense": ("states.from_dense",),
    "states.apply_local_unitary": ("states.apply_local_unitary",),
    "linalg": tuple(f"linalg.{name}" for name in ("kron", "matmul", "dagger", "inf_norm_diff", "eig_spectrum")),
    "cli.main": ("cli.main",),
}


@dataclass
class Outcome:
    rc: int
    seconds: float
    stderr: str
    digest: str = ""
    size: int = 0
    problem: str | None = None


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="xkraus CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _startup_sample(root: str, src: str) -> tuple[float, float, float]:
    """(wall, numpy import, xkraus import) of one fresh interpreter."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CODE],
        cwd=root, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"a fresh interpreter failed to import xkraus:\n{proc.stderr}")
    numpy_s, own_s, origin = proc.stdout.split()
    if not os.path.abspath(origin).startswith(src + os.sep):
        raise RuntimeError(f"fresh interpreter imported xkraus from {origin}, not {src}")
    return wall, float(numpy_s), float(own_s)


def _execute(cli, cmds: list[Command], out_dir: str) -> list[Outcome]:
    """The timed closed loop.  ``cli.main`` is looked up on every call so
    that an installed tracer sees it."""
    outcomes = []
    gc.collect()
    for i, cmd in enumerate(cmds):
        argv = cmd.argv + ["--out", os.path.join(out_dir, f"{i:05d}.out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = cli.main(argv)
            elapsed = perf_counter() - t0
        outcomes.append(Outcome(rc, elapsed, err.getvalue()))
    return outcomes


def _collect(cmds: list[Command], outcomes: list[Outcome], out_dir: str, check) -> None:
    """Hash (and, given ``check``, judge) every output, then delete it."""
    for i, (cmd, out) in enumerate(zip(cmds, outcomes)):
        path = os.path.join(out_dir, f"{i:05d}.out")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
        except FileNotFoundError:
            data = b""
        out.digest = hashlib.sha256(f"{out.rc}\n".encode() + data).hexdigest()
        out.size = len(data)
        if check is not None:
            out.problem = check(cmd, out.rc, data.decode("utf-8", errors="replace"))


def _digest_of(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _code_digest(root: str) -> str:
    h = hashlib.sha256()
    for folder in (os.path.join("src", "xkraus"), "bench"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if name.endswith(".py"):
                h.update(f"{folder}/{name}\n".encode())
                with open(os.path.join(root, folder, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _determinism(root: str, args: argparse.Namespace, record: dict[str, str]) -> str:
    """Compare this run's digests with an earlier run of the same code,
    workload, seed and seconds, and merge them into the stored record."""
    folder = os.path.join(root, BUILD_DIR, "determinism")
    os.makedirs(folder, exist_ok=True)
    key = f"{args.workload}-seed{args.seed}-s{args.seconds}-{_code_digest(root)[:16]}.json"
    path = os.path.join(folder, key)
    stored: dict[str, str] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    mismatched = [k for k in record if k in stored and stored[k] != record[k]]
    compared = [k for k in record if k in stored]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**record, **stored}, fh, indent=1, sort_keys=True)
    if mismatched:
        return "mismatch: " + ",".join(mismatched)
    return "match: " + ",".join(compared) if compared else "recorded"


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(root: str, args: argparse.Namespace) -> dict[str, object]:
    import numpy
    import xkraus

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "xkraus": xkraus.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(root),
        "workload_seed": args.seed,
        "blas_threads": BLAS_THREADS,
    }


def _latency_stats(outcomes: list[Outcome]) -> dict[str, float]:
    """Median and tail latency.  The tail is the highest percentile with at
    least ten commands beyond it; with 20 commands or fewer that percentile
    would not lie above the median, and the tail is the maximum."""
    ordered = sorted(o.seconds for o in outcomes)
    n = len(ordered)
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[n - 11 if n > 20 else n - 1] * 1e3,
        "tail_percentile": 100.0 * (n - 10) / n if n > 20 else 100.0,
        "samples": n,
        "busy_s": sum(ordered),
    }


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def _end_to_end(cmds, outcomes, startup, peak_rss_mb) -> tuple[dict, dict]:
    lat = _latency_stats(outcomes)
    setup = statistics.median(s[0] for s in startup)
    metrics = {
        "setup_s": _metric(setup, "s"),
        "queries_per_s": _metric(lat["samples"] / lat["busy_s"], "ops/s"),
        "query_p50_ms": _metric(lat["p50_ms"], "ms"),
        "query_tail_ms": _metric(lat["tail_ms"], "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {name: dict(m, samples=lat["samples"]) for name, m in metrics.items()}
    detail["setup_s"]["samples"] = len(startup)
    detail["peak_rss_mb"]["samples"] = 1
    detail["query_tail_ms"]["percentile"] = round(lat["tail_percentile"], 2)
    rows = sum(c.rows for c in cmds)
    if rows:
        detail["rows_per_s"] = dict(_metric(rows / lat["busy_s"], "rows/s"), samples=lat["samples"], rows=rows)
    failed = sum(o.problem is not None for o in outcomes)
    detail["failed_ratio"] = dict(_metric(failed / len(outcomes), "fraction"), samples=len(outcomes))
    return metrics, detail


def _per_layer(cmds, outcomes, summary, startup, overhead) -> dict:
    def calls(label: str) -> int:
        return summary.get(label, {}).get("calls", 0)

    def calls_under(label: str, parent: str) -> int:
        return summary.get(label, {}).get("parents", {}).get(parent, 0)

    metrics = {}
    for prefix, labels in LAYER_FUNCTIONS.items():
        parts = [summary.get(label, {}) for label in labels]
        metrics[f"{prefix}.calls"] = _metric(sum(p.get("calls", 0) for p in parts), "count")
        metrics[f"{prefix}.self_s"] = _metric(sum(p.get("self_s", 0.0) for p in parts), "s")
        metrics[f"{prefix}.total_s"] = _metric(sum(p.get("total_s", 0.0) for p in parts), "s")
    metrics["channels.damping.calls"] = _metric(calls("channels.damping"), "count")
    closed, dense = calls("channels.propagate_x.closed"), calls("channels.propagate_x.dense")
    metrics["channels.propagate_x.dense_share"] = _metric(dense / (closed + dense) if dense else 0.0, "fraction")
    esd = "entanglement.esd_time_numeric"
    evals = calls_under("channels.propagate_x.closed", esd) + calls_under("channels.propagate_x.dense", esd)
    metrics[f"{esd}.evals_per_call"] = _metric(evals / calls(esd) if calls(esd) else 0.0, "count")
    crit = "entanglement.critical_fidelity_numeric"
    metrics[f"{crit}.esd_calls_per_call"] = _metric(
        calls_under(esd, crit) / calls(crit) if calls(crit) else 0.0, "count"
    )
    rows = sum(c.rows for c in cmds)
    grid_bytes = sum(o.size for c, o in zip(cmds, outcomes) if c.rows)
    metrics["cli.bytes_out_per_row"] = _metric(grid_bytes / rows if rows else 0.0, "bytes")
    metrics["startup.numpy_import_s"] = _metric(statistics.median(s[1] for s in startup), "s")
    metrics["startup.xkraus_own_s"] = _metric(statistics.median(s[2] for s in startup), "s")
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics


def run(args: argparse.Namespace, root: str, src: str) -> dict:
    import xkraus
    from checker import check
    from tracer import Tracer

    if not os.path.abspath(xkraus.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported xkraus from {xkraus.__file__}, not {src}")
    cli = importlib.import_module("xkraus.cli")
    cmds = commands(args.workload, args.seed)
    os.makedirs(os.path.join(root, BUILD_DIR), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="outputs-", dir=os.path.join(root, BUILD_DIR))
    try:
        # The first fresh interpreter only warms the file cache and bytecode.
        _startup_sample(root, src)
        startup: list[tuple[float, float, float]] = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in _WARMUP:
                cli.main(argv + ["--out", os.path.join(out_dir, "warmup.out")])
        t0 = perf_counter()
        outcomes = _execute(cli, cmds, out_dir)
        last_pass = perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _collect(cmds, outcomes, out_dir, check)
        record = {"outputs_sha256": _digest_of([o.digest for o in outcomes])}
        report: dict[str, object] = {}
        if not args.trace:
            # Other tenants of the machine only ever add time, in bursts of
            # up to several seconds; the fastest of passes spread over the
            # run drops most of it.  A pass starts only if it is expected to
            # end within --seconds.  Each one is preceded by a start-up
            # sample, so that those too spread over the run.
            passes, spent = 1, last_pass
            while passes < MIN_PASSES or spent + last_pass <= args.seconds:
                t0 = perf_counter()
                startup.append(_startup_sample(root, src))
                again = _execute(cli, cmds, out_dir)
                _collect(cmds, again, out_dir, None)
                last_pass = perf_counter() - t0
                spent += last_pass
                passes += 1
                if [o.digest for o in again] != [o.digest for o in outcomes]:
                    record["repeat_pass"] = "outputs differ between passes"
                for first, other in zip(outcomes, again):
                    first.seconds = min(first.seconds, other.seconds)
            report["passes"] = passes
            report["measured_s"] = spent
            startup += [_startup_sample(root, src) for _ in range(STARTUP_SAMPLES - len(startup))]
            metrics, report["end_to_end"] = _end_to_end(cmds, outcomes, startup, peak_rss_mb)
        else:
            startup = [_startup_sample(root, src) for _ in range(STARTUP_SAMPLES)]
            tracer = Tracer()
            tracer.install()
            try:
                traced = _execute(cli, cmds, out_dir)
            finally:
                tracer.uninstall()
            _collect(cmds, traced, out_dir, None)
            if [o.digest for o in traced] != [o.digest for o in outcomes]:
                record["traced_pass"] = "outputs differ from the untraced pass"
            summary = tracer.summary()
            record["calls_sha256"] = _digest_of(
                [f"{label} {s['calls']}" for label, s in sorted(summary.items())]
            )
            overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in outcomes)
            metrics = _per_layer(cmds, traced, summary, startup, overhead)
            report["calls"] = {label: s["calls"] for label, s in sorted(summary.items())}
            tracer.save(os.path.join(root, BUILD_DIR, f"spans-{args.workload}.npz"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [(c, o) for c, o in zip(cmds, outcomes) if o.problem is not None]
    determinism = _determinism(root, args, record)
    deterministic = not ({"traced_pass", "repeat_pass"} & record.keys()) and not determinism.startswith("mismatch")
    by_reason: dict[str, int] = {}
    for c, o in failures:
        reason = f"{c.command}: " + re.sub(r"\d[\d.e+-]*", "#", o.problem)
        by_reason[reason] = by_reason.get(reason, 0) + 1
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commands={name: sum(c.command == name for c in cmds) for name in sorted({c.command for c in cmds})},
        failures={
            "count": len(failures),
            "by_reason": by_reason,
            "examples": [
                {"argv": " ".join(c.argv), "problem": o.problem, "stderr": o.stderr.strip()[:200]}
                for c, o in failures[:12]
            ],
        },
        determinism={**record, "status": determinism},
        environment=_environment(root, args),
    )
    print(json.dumps({"report": report}, sort_keys=True))
    return {
        "correct": not failures and deterministic,
        "attempted": len(cmds),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xkraus", "__init__.py")):
        print(f"error: no xkraus sources at {src}; run from the repository root", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    result = run(args, root, src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

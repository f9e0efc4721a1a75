"""nonrecip benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-io --seed 1 --seconds 10 --trace 0

One client process (bench/client.py) runs the workload's ops in a closed
loop; each op is a call into ``nonrecip.cli.main`` or a public
``nonrecip.tuner`` function on configs that bench/gen.py wrote from the seed.
Every op's output is checked (bench/check.py) while the client waits.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op on
an untraced and then on a traced client and prints the per-layer metrics.  The last stdout
line is the JSON result; the line before it is the run record.  See
bench/NOTES.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLIENT = os.path.join(BENCH_DIR, "client.py")
WORKLOADS = ("sweep-io", "phase-map", "tune-loop")
WARMUP_OPS = 1
MIN_TAIL_OPS = 11  # op_tail_s needs ten ops beyond the reported percentile
SWEEP_IO_PASSES = 8  # timed visits to each sweep-io device per run
PHASE_MAP_PASSES = 4  # timed visits to each phase-map device per run
LOOP_CAP_S = 110.0  # keeps a run well inside its 180 s limit
SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("NONRECIP_THREADS", None)  # the opt-in thread pool is not measured
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Client:
    """The workload process, driven one op at a time over its stdin/stdout."""

    def __init__(self, root: str, env: dict, trace: bool, spans: str | None, log: str):
        cmd = [sys.executable, CLIENT, "--trace", str(int(trace))]
        if spans:
            cmd += ["--spans", spans]
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True, env=env, cwd=root)
        if self._readline() != "ready":
            raise RuntimeError("benchmark client did not start")

    def _readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark client exited unexpectedly")
        return line.strip()

    def request(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def finish(self) -> dict:
        reply = self.request({"finish": True})
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def measure_setup(w, root: str, env: dict, runs: int, importtime: bool) -> tuple[list[float], list[str], list[str]]:
    """Launch fresh interpreters that import, load the configs and run one
    minimal op of each kind; return their wall times, failures and stderr."""
    spec = os.path.join(w.workdir, "setup.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(w.setup_spec, fh)
    times, failures, logs = [], [], []
    for n in range(runs):
        log_path = os.path.join(w.workdir, f"setup-{n}.err")
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [CLIENT, "--setup", spec]
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                    env=env, cwd=root)
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        with open(log_path, "r", encoding="utf-8") as fh:
            logs.append(fh.read())
        if line.strip() != "ready" or proc.returncode != 0:
            failures.append(f"setup run {n}: {line.strip()[:300]}")
        times.append(elapsed)
    return times, failures, logs


def import_times(log: str) -> dict:
    """Self time per top-level package from ``python -X importtime`` output."""
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "yaml": 0.0, "nonrecip": 0.0}
    for line in log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".")[0].lstrip("_")
        totals["total"] += float(self_us) * 1e-6
        if top in totals:
            totals[top] += float(self_us) * 1e-6
    return totals


def remove_outputs(calls: list[dict]) -> None:
    """Delete the files an op is about to write, so that every op writes a new
    file and a stale file cannot pass its check.  (Truncating a file whose
    previous 10-17 MB were still being written back to the shared disk made
    phase-map op times depend on that disk.)"""
    for call in calls:
        argv = call.get("cli", [])
        if "--out" in argv:
            with contextlib.suppress(FileNotFoundError):
                os.remove(argv[argv.index("--out") + 1])


def drive(w, clients: list[Client], seconds: float, min_ops: int, digests: dict) -> dict:
    """Closed loop: send op k to each client in turn, wait, check, then op k+1.

    Stops once the first client's timed ops add up to ``seconds`` and number
    at least ``min_ops``.  With two clients (untraced, traced) the pairs run
    back to back, so drift of the machine's speed affects both alike.
    """
    import check

    times: list[list[float]] = [[] for _ in clients]
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    k = 0
    while True:
        calls = w.op(k)
        for client, client_times in zip(clients, times):
            remove_outputs(calls)
            reply = client.request({"calls": calls})
            reason = check.check_op(w, k, calls, reply, digests)
            attempted += 1
            if reason:
                failures.append(f"op {k}: {reason}")
            if k >= WARMUP_OPS:
                client_times.append(reply["dt"])
        k += 1
        done = sum(times[0]) >= seconds and len(times[0]) >= min_ops
        if done or time.perf_counter() - start > LOOP_CAP_S:
            return {"times": times, "attempted": attempted, "failures": failures}


def min_timed_ops(w) -> int:
    """Timed ops a run holds at least: enough for op_tail_s, and whole passes
    over the workload's devices, so that every seed times the same op mix."""
    if w.name == "sweep-io":
        return max(MIN_TAIL_OPS, SWEEP_IO_PASSES * len(w.devices))
    if w.name == "phase-map":
        return max(MIN_TAIL_OPS, PHASE_MAP_PASSES * len(w.devices))
    return max(MIN_TAIL_OPS, len(w.devices) - 1)  # tune-loop: each seeded circulator once


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def self_check(w, seed: int, digests: dict) -> list[str]:
    """Corrupt one byte of a bundled and of a seeded table; both must fail."""
    import numpy as np

    import check

    if w.name == "tune-loop":
        return []
    rng = np.random.default_rng([seed, 99])
    problems = []
    for dev in (w.devices[0], next(d for d in w.devices if not d.bundled)):
        suffix = "-first.csv" if w.name == "sweep-io" else "-map.csv"
        src = os.path.join(w.workdir, dev.name + suffix)
        bad = os.path.join(w.workdir, "corrupted" + suffix)
        what = check.flip_leading_digit(src, bad, rng)
        checker = check.check_sweep_table if w.name == "sweep-io" else check.check_phase_map
        if checker(bad, dev, digests) is None:
            problems.append(f"self-check: {dev.name} table with {what} passed the checks")
    return problems


def run_record(root: str, src: str, args) -> dict:
    import numpy as np
    import scipy
    import yaml

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, AttributeError):
        blas = {}
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "nonrecip")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "pyyaml": yaml.__version__, "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nonrecip_threads": "unset in every child (thread pool not measured)",
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_times, times, rss_mb, attempted, failed) -> tuple[dict, dict]:
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_value, "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_share": metric(1.0 - failed / attempted, "ratio"),
    }
    detail = {"timed_ops": len(times), "op_tail_percentile": tail_pct, "op_times_s": times,
              "setup_runs_s": setup_times, "error_rate": failed / attempted}
    return metrics, detail


def per_layer(imports: list[dict], s: dict, untraced: list[float], traced: list[float]) -> dict:
    ops = s["ops"]
    layer = s["layers"]

    def calls(name):
        return metric(layer.get(name, {}).get("calls", 0) / ops, "calls/op")

    def self_s(name):
        return metric(layer.get(name, {}).get("self_s", 0.0) / ops, "s/op")

    def errors(name):
        return metric(layer.get(name, {}).get("errors", 0) / ops, "errors/op")

    def fn_calls(name):
        return metric(s["function_calls"].get(name, 0) / ops, "calls/op")

    out = {f"import.{k}_s": metric(statistics.median(d[k] for d in imports), "s")
           for k in ("total", "scipy", "numpy", "yaml", "nonrecip")}
    out.update({
        "cli.calls": calls("cli"), "cli.self_s": self_s("cli"),
        "cli.write_bytes": metric(s["write_bytes"] / ops, "B/op"),
        "cli.write_mb_per_s": metric(_ratio(s["write_bytes"] / 1e6, s["write_s"]), "MB/s"),
        "cli.read_bytes": metric(s["read_bytes"] / ops, "B/op"),
        "cli.read_mb_per_s": metric(_ratio(s["read_bytes"] / 1e6, s["read_s"]), "MB/s"),
        "metrics.calls": calls("metrics"), "metrics.self_s": self_s("metrics"),
        "metrics.symplectic_defect.calls": fn_calls("metrics.symplectic_defect"),
        "cmt.calls": calls("cmt"), "cmt.self_s": self_s("cmt"),
        "cmt.points": metric(s["points"] / ops, "points/op"),
        "cmt.points_per_call": metric(_ratio(s["points"], s["solve_calls"]), "points/call"),
        "cmt.points_per_s": metric(_ratio(s["points"], s["solve_s"]), "points/s"),
        "cmt.errors": errors("cmt"),
        "model.calls": calls("model"), "model.self_s": self_s("model"),
        "model.validate_device.calls": fn_calls("model.validate_device"),
        "model.errors": errors("model"),
        "tuner.calls": calls("tuner"), "tuner.self_s": self_s("tuner"),
        "tuner.evals_per_op": metric(s["tune_evaluations"] / ops, "evals/op"),
        "tuner.converged_share": metric(_ratio(s["tune_converged"], s["tunes"]), "ratio"),
        "tuner.improving_share": metric(_ratio(s["tune_improving"], s["tune_evaluations"]), "ratio"),
        "scipy.self_s": self_s("scipy"),
        # op k ran untraced and then traced, back to back
        "trace.overhead": metric(statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
                                 "ratio"),
    })
    return out


def run(args, root: str, src: str, workdir: str, out_dir: str) -> tuple[dict, dict]:
    import check
    import gen

    w = gen.build(args.workload, args.seed, workdir)
    env = child_env(src)
    digests = check.load_digests()
    record = run_record(root, src, args)
    log = os.path.join(workdir, "client.err")
    tag = f"{args.workload}-seed{args.seed}"

    setup_times, failures, logs = measure_setup(
        w, root, env, IMPORTTIME_RUNS if args.trace else SETUP_RUNS, importtime=bool(args.trace))
    spans = os.path.join(out_dir, f"{tag}-spans.npz")
    with contextlib.ExitStack() as stack:
        clients = [Client(root, env, trace=False, spans=None, log=log)]
        stack.callback(clients[0].close)
        if args.trace:
            clients.append(Client(root, env, trace=True, spans=spans, log=log))
            stack.callback(clients[1].close)
        loop = drive(w, clients, args.seconds, 1 if args.trace else min_timed_ops(w), digests)
        replies = [client.finish() for client in clients]
    attempted = loop["attempted"] + len(setup_times)
    failures += loop["failures"]
    problems = self_check(w, args.seed, digests)
    record["self_check"] = problems or ("corrupted tables rejected" if w.name != "tune-loop"
                                        else "not applicable (no tables)")
    if args.trace:
        summary = replies[1]["layers"]
        metrics = per_layer([import_times(text) for text in logs], summary, *loop["times"])
        record["trace"] = {"spans": summary["spans"], "ops": summary["ops"], "spans_file": spans}
    else:
        metrics, detail = end_to_end(setup_times, loop["times"][0], replies[0]["peak_rss_mb"],
                                     attempted, len(failures))
        record.update(detail)
    record["failures"] = failures[:20]
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(out_dir, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nonrecip", "__init__.py")):
        print(f"error: no nonrecip package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.pop("NONRECIP_THREADS", None)
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(root, ".bench_work"))
    try:
        record, result = run(args, root, src, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in record["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

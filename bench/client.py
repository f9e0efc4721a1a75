"""Benchmark client: the one process that runs a workload's ops.

Started by run.py with the package's ``src`` directory on PYTHONPATH.  It
reads one op per line from stdin (a JSON list of calls), runs it, and answers
with one JSON line holding the op's wall time and each call's outcome.  The
loop is closed: the next op is sent only after the answer arrives.

A call is ``{"cli": argv}`` -> ``nonrecip.cli.main(argv)``, or
``{"calibrate": config}`` -> ``nonrecip.tuner.calibrate_phase_offset`` on the
loaded config.  The program's stdout and stderr are captured per op so that
stdout stays the answer channel.

``--trace 1`` wraps every public function of every nonrecip module (and the
scipy functions those modules imported) before the first op; spans are kept
in memory and written to ``--spans`` when stdin sends ``{"finish": true}``.

``--setup SPEC`` instead loads every config named in SPEC, runs its minimal
calls once and prints ``ready``: run.py times that from process launch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _run_call(call: dict, cli, tuner) -> dict:
    if "cli" in call:
        rc = cli.main(call["cli"])
        return {"rc": rc}
    dev = cli.load_config(call["calibrate"]).device
    cal = tuner.calibrate_phase_offset(dev, coarse_points=call.get("coarse_points", 720))
    return {"rc": 0, "candidates": list(cal.candidates), "primary": cal.primary,
            "objective_values": list(cal.objective_values)}


def run_op(calls: list[dict], cli, tuner) -> tuple[float, list[dict], str]:
    """Run one op; return (wall seconds, per-call results, captured stderr)."""
    results = []
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for call in calls:
            try:
                results.append(_run_call(call, cli, tuner))
            except Exception:  # an op that raises is a failed op, not a crash
                results.append({"rc": None, "error": traceback.format_exc(limit=3)})
    return time.perf_counter() - t0, results, err.getvalue()[-2000:]


def setup_main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    from nonrecip import cli, tuner

    for path in spec["configs"]:
        cli.load_config(path)
    _, results, err = run_op(spec["calls"], cli, tuner)
    bad = [r for r in results if r.get("rc") != 0]
    sys.stdout.write(("ready" if not bad else "failed " + json.dumps(bad) + err) + "\n")
    sys.stdout.flush()
    return 0 if not bad else 1


def serve(trace: bool, spans_path: str | None) -> int:
    from nonrecip import cli, tuner

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("finish"):
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if tracer is not None:
                tracer.uninstall()
                reply["layers"] = tracer.summary()
                if spans_path:
                    tracer.dump(spans_path)
            channel.write(json.dumps(reply) + "\n")
            channel.flush()
            return 0
        if tracer is not None:
            tracer.begin_op()
        dt, results, err = run_op(msg["calls"], cli, tuner)
        if tracer is not None:
            tracer.end_op()
        channel.write(json.dumps({"dt": dt, "results": results, "stderr": err}) + "\n")
        channel.flush()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.setup:
        return setup_main(args.setup)
    return serve(bool(args.trace), args.spans)


if __name__ == "__main__":
    sys.exit(main())

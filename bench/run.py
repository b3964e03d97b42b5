"""Benchmark launcher: ``python3 bench/run.py --workload sweep|eval --seed N
--seconds S --trace 0|1``, from any directory.

It pins the BLAS thread pools to one thread and starts ``worker.py`` with
the repository's ``src`` as an absolute ``PYTHONPATH`` entry. Set-up time is
measured from outside: the launcher starts SETUP_SAMPLES worker processes,
each reporting the moment its set-up ended, and the last of them goes on to
the measured work. The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment, unit timings and result hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns its set-up seconds and its result document."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc.pop("ready") - started, doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("sweep", "eval"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "oodlab" / "__init__.py").is_file() or not (ROOT / "configs" / "reference.json").is_file():
        print(f"bench: no oodlab sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        setup_s = [start_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        last_setup, doc = start_worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"bench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    setup_s.append(last_setup)
    info = doc.pop("info")
    info["setup_seconds"] = setup_s
    if not args.trace:
        doc["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**doc, "info": info}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for vfclass: one command, four workloads.

    python3 perfbench/run.py --workload planted-small --seed 1 --seconds 12 --trace 0

Generates the workload's inputs from the seed (``gen.py``), starts the
embedding stub when the workload needs it, and runs ``measure.py`` in a
fresh process with one BLAS thread, which sets up, measures for
``--seconds`` and checks the outputs. ``--trace 1`` instead runs the traced
passes and reports the per-layer metrics. The last line printed is the result:
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
notes, is also written to ``.perfbench_out/``. Exits 1 when a check fails
and 2 when the tree holds no vfclass sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

RUN_LIMIT_S = 175  # a run must end within 180 s
# One BLAS thread for every process the benchmark starts, and a fixed hash
# seed so that set iteration order does not change between runs.
ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def start_stub(env: dict) -> tuple[subprocess.Popen, str]:
    """Start ``vfclass serve-stub`` on a free port; retry if it is taken."""
    for _ in range(3):
        port = free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "vfclass", "serve-stub", "--port", str(port),
             "--dim", str(gen.STUB_DIM)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                return proc, f"http://127.0.0.1:{port}/"
            except OSError:
                time.sleep(0.05)
        stop(proc)
    raise RuntimeError("embedding stub did not start")


def measure(args, work: Path, env: dict, url: str | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if url:
        cmd += ["--url", url]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=deadline - time.monotonic())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"measure.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "vfclass" / "__init__.py").is_file():
        print(f"no vfclass sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = dict(os.environ, **ENV)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    stub = None
    try:
        inputs = gen.GENERATORS[args.workload](work, args.seed)
        url = None
        if args.workload == "remote-provider":
            stub, url = start_stub(env)
        result = measure(args, work, env, url, deadline)
    finally:
        if stub is not None:
            stop(stub)
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"]
    summary = {"correct": not failures, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": result["metrics"]}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(
        {**summary, "notes": result["notes"], "inputs": inputs,
         "failures": failures}, indent=1) + "\n")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    for key, value in result["notes"].items():
        print(f"note {key}: {value}")
    for key, metric in result["metrics"].items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run one workload of the federation benchmark.

    python3 perfbench/run.py --workload flat-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and builds
perfbench/ (the repository's libraries plus the driver) into .bench_build/;
later calls only rebuild what changed. The driver's output is passed through;
its last line is the JSON result. With --trace 1 the Chrome trace of the first
traced federation is written to .bench_build/ and validated here before the
result is accepted. --selftest builds and runs the benchmark's own tests.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no HACCS sources under {ROOT} (expected src/CMakeLists.txt)")
        return False
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the library and benchmark sources (identifies a checkout
    that is not a git repository)."""
    h = hashlib.sha256()
    for base in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".inc",
                                                  ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_chrome_trace(path):
    """Returns "" when `path` is Chrome trace-event JSON Perfetto can load
    (complete "X" events and thread-name metadata), else the problem."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        return f"unreadable trace: {e}"
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return "no traceEvents"
    spans = 0
    for ev in events:
        if not isinstance(ev, dict) or not isinstance(ev.get("name"), str):
            return f"bad event {ev!r}"
        if not all(isinstance(ev.get(k), int) for k in ("pid", "tid")):
            return f"event without integer pid/tid: {ev!r}"
        if ev.get("ph") == "X":
            if not all(isinstance(ev.get(k), (int, float)) and ev[k] >= 0
                       for k in ("ts", "dur")):
                return f"complete event without ts/dur: {ev!r}"
            spans += 1
        elif ev.get("ph") == "M":
            if ev["name"] != "thread_name" or not isinstance(
                    ev.get("args", {}).get("name"), str):
                return f"bad metadata event: {ev!r}"
        else:
            return f"unexpected phase {ev.get('ph')!r}"
    return "" if spans else "no complete events"


def run_workload(args):
    if not build("perfbench"):
        log("build failed")
        return 2
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    trace_path = BUILD_DIR / f"trace-{args.workload}-{args.seed}.json"
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    print(f"source_sha256 {source_digest()}", flush=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver exited with {proc.returncode}")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if args.trace:
        problem = check_chrome_trace(trace_path)
        if problem:
            lines.insert(-1, f"MISMATCH trace {trace_path.name}: {problem}")
            result["correct"] = False
        else:
            lines.insert(-1, f"trace {trace_path.relative_to(ROOT)} "
                             "(Chrome trace-event JSON; open in Perfetto)")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


def selftest():
    if not build("perfbench_test") or not build("perfbench"):
        log("build failed")
        return 2
    if subprocess.run([str(BUILD_DIR / "perfbench_test")],
                      timeout=600).returncode:
        return 1
    trace_path = BUILD_DIR / "selftest-trace.json"
    for workload in ("flat-train", "serve-tree"):
        proc = subprocess.run(
            [str(BUILD_DIR / "perfbench"), "--workload", workload, "--seed",
             "1", "--seconds", "1", "--trace", "1", "--trace-out",
             str(trace_path)], capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.splitlines()[-1])
        problem = check_chrome_trace(trace_path)
        if proc.returncode or not result["correct"] or problem:
            log(f"traced {workload} run failed: {problem or proc.stdout}")
            return 1
    log("selftest passed: unit tests and Chrome trace validity")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

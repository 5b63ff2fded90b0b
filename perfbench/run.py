#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

Builds the benchmark program and `pa_serve` from this checkout's sources,
pins the shared workload settings (PA_THREADS=2, PA_SIMD and the tracing
switches at their defaults) and runs one workload:

  python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

`--workload all` runs serve_warm, serve_churn and augment_offline in turn.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the report above it prints every metric by name and
unit. Each run's full result, with its configuration stamp, is also saved
under <build>/results/, and

  python3 perfbench/run.py --compare A.json B.json

compares two saved results, refusing when their stamps (host, kernel
table, PA_THREADS, shards, build type, compiler) differ.

Build outputs go to $CARGO_TARGET_DIR (default .bench_build) in the
checkout. Exits non-zero, without a result line, when the build fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["serve_warm", "serve_churn", "augment_offline"]
# Environment switches that change what is measured; the benchmark runs
# with each at its default.
UNSET = ["PA_SIMD", "PA_TRACE_REQUESTS", "PA_OBS_TRACE", "PA_OBS_TIMESERIES",
         "PA_OBS_SAMPLE_PERIOD_MS", "PA_FUSION", "PA_FUSION_DEBUG"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_root():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not root.is_absolute():
        root = ROOT / root
    return root


def build(out):
    """Configures and builds the benchmark, pa_serve and the tests."""
    if not (BENCH / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log("no repository sources next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH), "-B", str(out),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(out), "-j", jobs, "--target",
              "perfbench", "pa_serve_cli", "perfbench_test"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def pinned_env():
    env = dict(os.environ)
    for key in UNSET:
        env.pop(key, None)
    env["PA_THREADS"] = "2"
    return env


def run_checked(cmd, env, timeout):
    """Runs `cmd` in its own process group and kills whatever is left of
    the group afterwards (a run that dies leaves no pa_serve behind)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{cmd[0]} timed out after {timeout} s")
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def run_workload(out, workload, seed, seconds, trace, commit):
    cmd = [str(out / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--pa-serve", str(out / "src" / "serve" / "pa_serve"),
           "--work-dir", str(out / "work"), "--trace-dir", str(out / "traces"),
           "--commit", commit]
    code, text = run_checked(cmd, pinned_env(), RUN_TIMEOUT_S)
    lines = text.splitlines()
    result = None
    for line in lines:
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
            results = out / "results"
            results.mkdir(parents=True, exist_ok=True)
            (results / f"{workload}-s{seed}-t{trace}.json").write_text(
                json.dumps(result, indent=1) + "\n")
        elif line.startswith("{"):
            continue
        else:
            print(line)
    return code, result


def compare(a_path, b_path):
    a = json.loads(pathlib.Path(a_path).read_text())
    b = json.loads(pathlib.Path(b_path).read_text())
    # The commit is what a comparison varies; everything else must match.
    keys = sorted(set(a["stamp"]) | set(b["stamp"]))
    differ = [k for k in keys if k != "commit" and a["stamp"].get(k) != b["stamp"].get(k)]
    if differ or a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        for k in differ:
            print(f"stamp differs: {k}: {a['stamp'].get(k)!r} vs {b['stamp'].get(k)!r}")
        print("refusing to compare results from different configurations")
        return 2
    print(f"{a['workload']}: {a['stamp']['commit']} -> {b['stamp']['commit']}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:24s} {ma['value']:16.6f} {mb['value']:16.6f} {ma['unit']:6s} "
              f"x{ratio:.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")

    out = build_root() / "perfbench"
    if not build(out):
        return 1
    test = subprocess.run([str(out / "perfbench_test")], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        log("benchmark self-tests failed")
        return 1

    commit = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in workloads:
        code, result = run_workload(out, workload, args.seed, args.seconds,
                                    args.trace, commit)
        if result is None:
            log(f"{workload} exited with {code} and no result")
            return code or 1
        if code != 0:
            log(f"{workload} exited with {code}")
            exit_code = code
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, m in result["metrics"].items():
            if m["gated"]:
                summary["metrics"][prefix + name] = {"value": m["value"],
                                                     "unit": m["unit"]}
    print(json.dumps(summary))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perf/README.md).

One run of one workload; the last line printed is the result JSON:
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

Every workload, each in its own process, one at a time (exits
nonzero when any output check fails):
    python3 perf/run.py [--seeds 42,7] [--seconds S] [--trace 0|1]
                        [--out-dir DIR]

The perf_smoke test: every workload for two ops, untraced and traced:
    python3 perf/run.py --smoke [--binary PATH]

The benchmark is built from source under $CARGO_TARGET_DIR (default
.bench_build) at the repository root, with perf/CMakeLists.txt.
"""

import argparse
import json
import os
import subprocess
import sys

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
RUN_TIMEOUT_S = 170  # one workload process


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then build the maicc_perf target; return it."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the simulator sources (CMakeLists.txt, src/) must sit "
             "next to perf/")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "maicc_perf")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "maicc_perf", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("building the benchmark failed: " + " ".join(cmd))
    return os.path.join(build_dir, "maicc_perf")


def run_binary(binary, workload, seed, out_dir, trace, seconds=None,
               ops=None):
    """Run one workload process; return its result document."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(
        out_dir, f"{workload}-s{seed}-{'traced' if trace else 'e2e'}")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--out={stem}.json"]
    cmd.append(f"--seconds={seconds}" if ops is None else f"--ops={ops}")
    if trace:
        cmd += ["--traced", f"--spans={stem}.spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    doc = load_json(stem + ".json")
    doc["spans_file"] = stem + ".spans.json" if trace else None
    return doc


def result_line(doc, bench, trace):
    """The result object printed for one run of the binary.

    Per-layer metrics of layers the workload does not reach are 0.
    At the default seed the digest must match perf/expected/seed42.json.
    """
    measured = doc["metrics"]
    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                fail(f"{doc['workload']} did not report {name}")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name} is in {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    attempted, failed = doc["attempted"], doc["failed"]
    if doc["seed"] == 42:
        expected = load_json(os.path.join(PERF, "expected", "seed42.json"))
        if expected.get(doc["workload"]) != doc["digest"]:
            print(f"run.py: {doc['workload']} digest {doc['digest']} "
                  f"differs from perf/expected/seed42.json",
                  file=sys.stderr)
            failed = attempted
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def host_metadata(binary):
    """What the numbers of a set of runs depend on, besides the code."""
    def command(*cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT).stdout.strip()
        except OSError:
            return ""

    def first_line(path, prefix=""):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip()
        except OSError:
            pass
        return ""

    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "compiler": command("c++", "--version").split("\n")[0],
        "build_type": first_line(cache, "CMAKE_BUILD_TYPE:").split("=")[-1],
        "git_rev": command("git", "describe", "--always", "--dirty")
                   or "unknown",
        "loadavg_at_start": first_line("/proc/loadavg"),
    }


def print_metrics(workload, line):
    for name, m in line["metrics"].items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}  failed {line['failed']} of "
          f"{line['attempted']} ops")


def smoke(binary, bench, out_dir):
    """Two ops of every workload, untraced and traced."""
    names = [w["name"] for w in bench["workloads"]]
    seen = set()
    ok = True
    for workload in names:
        for trace in (False, True):
            doc = run_binary(binary, workload, 42, out_dir, trace, ops=2)
            line = result_line(doc, bench, trace)
            print_metrics(workload, line)
            ok = ok and line["correct"]
            seen.update(doc["metrics"])
            if trace:
                load_json(doc["spans_file"])  # must parse
    missing = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]
               if m["name"] not in seen]
    if missing:
        print("run.py: no workload measured " + ", ".join(missing),
              file=sys.stderr)
    return ok and not missing


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seeds", default="42")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=os.path.join(PERF, "out"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary")
    a = p.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    binary = a.binary or build()

    if a.smoke:
        sys.exit(0 if smoke(binary, bench, a.out_dir) else 1)

    if a.workload:
        if a.workload not in [w["name"] for w in bench["workloads"]]:
            fail(f"unknown workload '{a.workload}'")
        doc = run_binary(binary, a.workload, a.seed, a.out_dir,
                         a.trace == 1, seconds=seconds)
        line = result_line(doc, bench, a.trace == 1)
        print_metrics(a.workload, line)
        print(json.dumps(line))
        return

    # The first run into a directory records the host it ran on.
    host = os.path.join(a.out_dir, "host.json")
    if not os.path.exists(host):
        os.makedirs(a.out_dir, exist_ok=True)
        with open(host, "w") as f:
            json.dump(host_metadata(binary), f, indent=2)
            f.write("\n")
    all_ok = True
    for seed in [int(s) for s in a.seeds.split(",")]:
        for w in bench["workloads"]:
            doc = run_binary(binary, w["name"], seed, a.out_dir,
                             a.trace == 1, seconds=seconds)
            line = result_line(doc, bench, a.trace == 1)
            print_metrics(w["name"], line)
            all_ok = all_ok and line["correct"]
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload paper --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout.  The script builds
perfbench/perfbench.exe with dune, then runs it as child processes.  A
measuring child sets the workload up once and repeats its measured part
until --seconds are nearly up, timing every rep and, between the reps,
a reference that reads the host's speed.  Set-up-only children sample
the set-up time.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 a profiled child runs first, and the metrics are the
per-layer ones.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "perfbench.exe")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("paper", "scale", "replay", "reanalyze")

# Every workload runs on one domain: with both vCPUs of a two-vCPU VM
# busy, the host steals time from one of them and wall times swing by
# half.  Every other DFS_* variable is cleared.
PINNED_ENV = {"DFS_JOBS": "1", "DFS_SIM_SHARDS": "1", "DFS_LOG": "quiet"}

DEFAULT_SEED = 42

# A child still running this long after the build is killed and the
# run fails, so a run ends inside three minutes.
RUN_LIMIT_S = 170.0

# After the measuring child, set-up-only children sample the set-up
# again, up to SETUP_SAMPLES of them, while they fit in the time left;
# with the measuring child's own set-up, setup_s is the median.  The
# measuring child leaves them the time, if that is a tenth of the run
# at most.
SETUP_SAMPLES = 11

# Host seconds one reference timing takes at the host speed wall_s is
# quoted at.  The host's speed drifts by a fifth and more over tens of
# seconds, and host seconds drift with it.  The reference, a fixed piece
# of work timed between the reps in a process of its own, drifts the
# same way.  One timing jitters by a tenth, so the child's host speed is
# REFERENCE_S over the mean of all its timings, and wall_s is the median
# of the timed reps' host seconds times that speed.
REFERENCE_S = 0.25

# Share of a traced child's measured part its top-level spans must cover.
MIN_COVERAGE = 0.95

# Outputs that depend on the seed; the others are the same for every
# seed (the eight presets carry their own fixed seeds).  scale gives one
# digest per rep, "scale_digest.<rep>", as each rep simulates a cluster
# of its own.
SEEDED_OUTPUTS = ("scale_digest.", "replay_applied", "replay_skipped", "replay_crc32c")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="reps are started while they end within this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is a seconds-long smoke size")
    p.add_argument("--expected", default=os.path.join(BENCH_DIR, "expected.json"),
                   help="recorded outputs to compare against")
    p.add_argument("--bad-rows", type=int, default=0,
                   help="append malformed rows to the replay CSV (a failure test)")
    return p.parse_args()


def check_checkout():
    for path in ("BENCHMARK.json", "dune-project", "lib",
                 os.path.join(BENCH_DIR, "dune"), os.path.join(BENCH_DIR, "perfbench.ml")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a source checkout")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")


def build():
    # Without dune's shared cache, the build writes inside the checkout only.
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
         "./" + os.path.relpath(EXE, os.path.join("_build", "default"))],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=840)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed", 3)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DFS_") and k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    env.update(PINNED_ENV)
    return env


class Child:
    """Runs perfbench.exe once in a fresh work directory."""

    def __init__(self, args, work_root):
        self.args = args
        self.work_root = work_root
        self.env = child_env()
        self.count = 0
        self.limit = time.time() + RUN_LIMIT_S

    def run(self, phase="measure", until=0.0, reserve_setups=0, traced=False,
            profile_out=None):
        self.count += 1
        work = os.path.join(self.work_root, f"child{self.count}")
        os.makedirs(work)
        cmd = [EXE, "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--phase", phase, "--work-dir", work,
               "--bad-rows", str(self.args.bad_rows), "--until", repr(until),
               "--reserve-setups", str(reserve_setups)]
        if traced:
            cmd += ["--traced", "--profile-out", profile_out]
        # The child and its reference helper run in a process group of
        # their own, so that both are stopped on every way out.
        cmd += ["--t-spawn", repr(time.time())]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.limit - time.time()))
        except subprocess.TimeoutExpired:
            return {"error": f"child still running {RUN_LIMIT_S:.0f} s into the run"}
        finally:
            stop_group(proc)
            shutil.rmtree(work, ignore_errors=True)
        lines = stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"error": f"exit {proc.returncode}, no result: "
                               f"{stderr.strip()[-500:]}"}
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"exit {proc.returncode}: {stderr.strip()[-500:]}"
        return result


def stop_group(proc):
    """Kills what is left of a child's process group and waits for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    deadline = time.time() + 5.0
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def load_expected(path, size):
    try:
        with open(path) as f:
            data = json.load(f)
        return data.get(size, {})
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def verify(args, children, problems):
    """Outputs agree across the run's children and with the recorded ones."""
    merged = {}
    for child in children:
        for key, value in child.get("outputs", {}).items():
            if merged.setdefault(key, value) != value:
                problems.append(f"children differ on {key}: {merged[key]!r} vs {value!r}")
    expected = load_expected(args.expected, args.size)
    for key, value in merged.items():
        if key.startswith(SEEDED_OUTPUTS) and args.seed != DEFAULT_SEED:
            continue
        if key not in expected:
            problems.append(f"no recorded value for {key} in {args.expected}")
        elif expected[key] != value:
            problems.append(f"{key} = {value!r}, recorded {expected[key]!r}")


def median(values):
    return statistics.median(values) if values else 0.0


def host_speed(child):
    """How fast the host ran in this child, against REFERENCE_S."""
    return REFERENCE_S / statistics.mean(child["reference_s"])


def print_traced(values, units, profile_out):
    print(f"per-layer metrics (traced child; Chrome trace in {profile_out}):")
    for name, unit in units.items():
        value = values[name]
        print(f"  {name:<36} {'-' if value is None else f'{value:.6g}':>16} {unit}")
    selfs = {k[len("self_s."):]: v for k, v in values.items()
             if k.startswith("self_s.") and v is not None}
    total = sum(selfs.values()) or 1.0
    print("self time per layer (span minus its child spans, all domains):")
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {s:>9.3f} s  {100.0 * s / total:5.1f}%")


def main():
    # A terminated run still kills its child's process group and removes
    # its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    check_checkout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_root = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_root)
    try:
        run(args, spec, Child(args, work_root))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def run(args, spec, child):
    started = time.time()
    measured, setups, problems = [], [], []

    def take(result, kind):
        if "error" in result:
            problems.append(f"{kind} child: {result['error']}")
            return False
        if result.get("checks_failed"):
            problems.append(f"{kind} child: failed checks {result['checks_failed']}")
        setups.append(result["setup_s"])
        if "reps" in result:
            measured.append(result)
            print(f"{kind} child: setup {result['setup_s']:.3f} s, reps "
                  + " ".join(f"{r['wall_s']:.3f}" for r in result["reps"])
                  + f" host s, host speed {host_speed(result):.3f}, "
                  f"peak RSS {result['peak_rss_mb']:.1f} MiB, "
                  f"ops {result['ops']}, ops_failed {result['ops_failed']}")
        return True

    deadline = started + args.seconds
    traced = untraced = None
    if args.trace:
        profile_out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        traced = child.run(traced=True, profile_out=profile_out)
        if take(traced, "traced"):
            untraced = child.run(until=deadline)
    else:
        untraced = child.run(until=deadline, reserve_setups=SETUP_SAMPLES - 1)
    if untraced is not None and not take(untraced, "measuring"):
        untraced = None
    # A set-up-only child is expected to take as long as the last set-up.
    last = setups[-1] if untraced and not args.trace else None
    while (last is not None and not problems and len(setups) < SETUP_SAMPLES
           and time.time() + last < deadline):
        t0 = time.time()
        ok = take(child.run(phase="setup"), "set-up")
        last = time.time() - t0 if ok else None
    verify(args, measured, problems)

    attempted = max(1, sum(c.get("ops", 0) for c in measured))
    correct = not problems
    failed = sum(c["ops_failed"] for c in measured) if correct else attempted
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = traced.get("layers", {}) if traced and "layers" in traced else {}
        values = {name: layers.get(name) for name in units}
        if layers and untraced:
            # Both first reps of fresh processes, so both equally cold.
            first = untraced["reps"][0]["wall_s"]
            values["tracing.overhead"] = (traced["reps"][0]["wall_s"] * host_speed(traced)
                                          / (first * host_speed(untraced)) - 1.0)
            values["host.wall_s"] = first
            values["host.speed"] = host_speed(untraced)
        if layers and layers["tracing.coverage"] < MIN_COVERAGE:
            problems.append(f"top-level spans cover {layers['tracing.coverage']:.3f} "
                            f"of the measured part, below {MIN_COVERAGE}")
            correct, failed = False, attempted
        if layers:
            print_traced(values, units, profile_out)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": (median([r["wall_s"] for r in untraced["reps"]]) * host_speed(untraced)
                       if untraced else None),
            "setup_s": median(setups) if setups else None,
            "peak_rss_mb": untraced["peak_rss_mb"] if untraced else None,
        }
    missing = [name for name in units if values.get(name) is None]
    if correct and missing:
        problems.append(f"metrics not produced: {missing}")
        correct, failed = False, attempted
    for p in problems:
        print(f"FAILED: {p}")
    reps = len(untraced["reps"]) if untraced else 0
    print(f"{args.workload} seed {args.seed}: {reps} reps in the measuring child, "
          f"{len(setups)} set-ups, ops {attempted}, ops_failed {failed}, "
          f"{'correct' if correct else 'INCORRECT'}")
    metrics = {name: {"value": values.get(name) or 0.0, "unit": unit}
               for name, unit in units.items()}
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

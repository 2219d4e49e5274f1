#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The script configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR (default .bench_build), writes the workload's inputs
from the seed, and runs the benchmark binary. The binary's last stdout
line is the result object; see perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table2", "mesh16", "frames_idle", "sweep")

# Table II rows in paper order: application, DDR generation, clock (MHz).
TABLE2_ROWS = [
    ("bluray", 1, 133), ("bluray", 2, 266), ("bluray", 3, 533),
    ("sdtv", 1, 166), ("sdtv", 2, 333), ("sdtv", 3, 667),
    ("ddtv", 1, 200), ("ddtv", 2, 400), ("ddtv", 3, 800),
]
# Table II columns: the checked-in scenario each one starts from, plus
# the DPQ arbiter run beside the reordering controllers.
TABLE2_COLUMNS = [
    ("table2_conv_pfs.json", None),
    ("table2_ref4_pfs.json", None),
    ("table2_gss.json", None),
    ("table2_gss_sagm.json", None),
    ("table2_gss.json", "dpq"),
]


def config_seed(seed, job):
    """Simulator seed of job `job`: distinct per job, exact in a JSON double."""
    return (seed % 1_000_000_007) * 64 + job


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def gen_table2(root, out, seed):
    files = []
    for r, (app, ddr, mhz) in enumerate(TABLE2_ROWS):
        for c, (template, engine) in enumerate(TABLE2_COLUMNS):
            job = r * len(TABLE2_COLUMNS) + c
            s = read_json(os.path.join(root, "scenarios", template))
            s.update(name=f"table2/{app}-ddr{ddr}-{mhz}/{template[7:-5]}"
                     + (f"+{engine}" if engine else ""),
                     app=app, ddr=ddr, clock_mhz=mhz, priority=True,
                     seed=config_seed(seed, job))
            if engine:
                s["engine"] = engine
            files.append(f"job{job:02d}.json")
            write_json(os.path.join(out, files[-1]), s)
    return files


def gen_mesh16(root, out, seed):
    # Blu-ray rather than Dual-DTV: on a saturated 16x16 fabric the mean
    # priority latency of one Dual-DTV job spreads ~80% across seeds,
    # Blu-ray's 12-20%. Three jobs on distinct seeds average that spread
    # down; short windows keep the backlog, and so the spread, small.
    files = []
    for job in range(3):
        s = {
            "name": f"mesh16/bluray-gss+sagm/{job}",
            "design": "gss+sagm", "app": "bluray", "ddr": 2,
            "clock_mhz": 266, "priority": True, "mesh_preset": "16x16",
            "num_controllers": 8, "interleave_shift": 8,
            "measure_cycles": 10000, "warmup_cycles": 4000,
            "seed": config_seed(seed, job),
        }
        files.append(f"job{job:02d}.json")
        write_json(os.path.join(out, files[-1]), s)
    return files


def gen_frames_idle(root, out, seed):
    ring8 = os.path.join(root, "scenarios", "topologies", "ring8.json")
    # Low duty on every core: frame-patterned capture/display, short DMA
    # and codec bursts, and a priority MPU issuing demand lines.
    cores = [
        {"name": "mpu", "node": "n1", "is_mpu": True,
         "demand_fraction": 0.7, "demand_bytes": 32,
         "bytes_per_cycle": 0.02, "read_fraction": 0.8,
         "sequential_fraction": 0.5, "max_outstanding": 2,
         "sizes": [{"bytes": 64, "weight": 1.0}]},
        {"name": "capture", "node": "n2", "bytes_per_cycle": 0.6,
         "read_fraction": 0.1, "sequential_fraction": 0.97,
         "open_loop": True, "pattern": "frame", "frame_period": 40000,
         "frame_active_fraction": 0.15,
         "sizes": [{"bytes": 256, "weight": 1.0}]},
        {"name": "codec", "node": "n3", "bytes_per_cycle": 0.5,
         "read_fraction": 0.5, "sequential_fraction": 0.8,
         "pattern": "bursty", "burst_on_cycles": 1500,
         "burst_off_cycles": 18500,
         "sizes": [{"bytes": 128, "weight": 1.0}]},
        {"name": "display", "node": "n5", "bytes_per_cycle": 0.6,
         "read_fraction": 1.0, "sequential_fraction": 0.98,
         "open_loop": True, "pattern": "frame", "frame_period": 40000,
         "frame_active_fraction": 0.12,
         "sizes": [{"bytes": 256, "weight": 1.0}]},
        {"name": "dma", "node": "n6", "bytes_per_cycle": 0.4,
         "read_fraction": 0.5, "sequential_fraction": 0.6,
         "pattern": "bursty", "burst_on_cycles": 300,
         "burst_off_cycles": 29700,
         "sizes": [{"bytes": 64, "weight": 1.0}]},
    ]
    s = {
        "name": "frames_idle/ring8",
        "design": "gss+sagm", "ddr": 2, "clock_mhz": 333, "priority": True,
        "measure_cycles": 4000000, "warmup_cycles": 10000,
        "num_controllers": 2, "interleave_shift": 8,
        "topology": os.path.relpath(ring8, out),
        "memory": {"nodes": ["n0", "n4"]},
        "cores": cores, "seed": config_seed(seed, 0),
    }
    write_json(os.path.join(out, "job00.json"), s)
    return ["job00.json"]


def gen_sweep(root, out, seed):
    spec_dir = os.path.join(root, "scenarios", "sweeps")
    spec = read_json(os.path.join(spec_dir, "scaling.json"))
    spec["scenario"] = os.path.relpath(
        os.path.normpath(os.path.join(spec_dir, spec["scenario"])), out)
    axes = []
    for axis in spec["axes"]:
        if axis["key"] == "seed":
            n = axis["range"]["steps"]
            axis = {"key": "seed",
                    "values": [config_seed(seed, k) for k in range(n)]}
        axes.append(axis)
    spec["axes"] = axes
    write_json(os.path.join(out, "sweep.json"), spec)
    return ["sweep.json"]


GENERATORS = {
    "table2": gen_table2,
    "mesh16": gen_mesh16,
    "frames_idle": gen_frames_idle,
    "sweep": gen_sweep,
}


def source_digest(root):
    """SHA-256 over the simulator and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(root, build_dir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j",
                   str(os.cpu_count() or 1)])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                log.close()
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.getcwd()
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 1

    work = os.path.join(build_dir, "work",
                        "selftest" if args.selftest else args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.selftest:
        cmd = [binary, "--selftest", "--work", work]
    else:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        files = GENERATORS[args.workload](root, inputs, args.seed)
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", work,
               "--source-digest", source_digest(root),
               "--spans", os.path.join(build_dir,
                                       f"spans-{args.workload}.json")]
        cmd += [os.path.join(inputs, f) for f in files]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)
    stopped = []

    def stop(signum, _frame):
        # Only signal here: the main thread is inside child.wait() and
        # reaps the child once it has ended.
        stopped.append(signum)
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    rc = child.wait()
    return 128 + stopped[0] if stopped else rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the MIDAS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--regen]

from the root of a checkout. It builds perfbench/ (and with it the
repository's libraries from ../src) in Release mode under .bench_build/,
generates the workload's inputs from the seed in a separate process under
.bench_data/ (reused while their fingerprints match; --regen rebuilds them),
then runs the timed process. The last line of standard output is the
result JSON; the exit code is 0 only when the run completed and every check
held. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = {
    "batch_closedie": "closedie",
    "batch_openie": "openie",
}
INPUT_FILES = ["corpus.midascol", "kb.tsv", "silver.tsv", "deltas.tsv"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_data")
KEEP_INPUT_DIRS = 6
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def fingerprint(path):
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def inputs(corpus, seed, regen):
    """Returns (directory, {file: fingerprint}) of the seed's inputs."""
    out = os.path.join(DATA_DIR, "%s-%d" % (corpus, seed))
    manifest_path = os.path.join(out, "inputs.json")
    generator = os.path.join(BUILD_DIR, "perfbench_gen")
    want = {"corpus": corpus, "seed": seed,
            "generator": fingerprint(generator)}
    if not regen and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        files = manifest.get("files", {})
        if (all(manifest.get(k) == v for k, v in want.items())
                and sorted(files) == sorted(INPUT_FILES)
                and all(os.path.exists(os.path.join(out, n))
                        and fingerprint(os.path.join(out, n)) == h
                        for n, h in files.items())):
            os.utime(out)
            log("inputs: reusing %s (fingerprints match)" % out)
            return out, files
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    subprocess.run([generator, "--corpus", corpus, "--seed", str(seed),
                    "--out", out], check=True, stdout=sys.stderr)
    want["files"] = {n: fingerprint(os.path.join(out, n)) for n in INPUT_FILES}
    with open(manifest_path, "w") as f:
        json.dump(want, f, indent=1)
    # Bound the disk the input cache takes: drop the least recently used.
    dirs = sorted((os.path.join(DATA_DIR, d) for d in os.listdir(DATA_DIR)
                   if os.path.isdir(os.path.join(DATA_DIR, d))),
                  key=os.path.getmtime)
    for stale in dirs[:-KEEP_INPUT_DIRS]:
        shutil.rmtree(stale, ignore_errors=True)
    return out, want["files"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen", action="store_true",
                        help="rebuild the inputs even if they match")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        build()
        data, files = inputs(WORKLOADS[args.workload], args.seed, args.regen)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: set-up failed: %s" % e)
        return 1
    for name, digest in sorted(files.items()):
        log("inputs: %s %s" % (name, digest))

    trace_out = os.path.join(DATA_DIR, "trace-%s-%d.json"
                             % (args.workload, args.seed))
    command = [os.path.join(BUILD_DIR, "perfbench_run"),
               "--workload", args.workload, "--data", data,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--fingerprints", ",".join("%s=%s" % kv
                                          for kv in sorted(files.items()))]
    if args.trace:
        command += ["--trace_out", trace_out]
    sys.stdout.flush()
    start = time.monotonic()
    # Its own process group, so a timeout also stops forked dist workers.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    log("perfbench: run took %.1f s, exit %d" % (time.monotonic() - start,
                                                  code))
    return code


if __name__ == "__main__":
    sys.exit(main())

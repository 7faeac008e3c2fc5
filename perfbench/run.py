#!/usr/bin/env python3
"""DMCS query benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the engine sources
(src/main/scala) together with the benchmark (perfbench/src) with sbt into
.bench_build/; later runs reuse that build while no source is newer. Each run
starts one JVM for one workload and prints, as the last line of stdout, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload spark-divergence --seconds 24

lists which of 24 |Q|=2 queries on the Spark workload graph make SparkDMCS
and Peeler.fpa disagree (see perfbench/README.md).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
TMP = os.path.join(BUILD, "tmp")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src"),
           os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]

WORKLOADS = ("fpa-lfr100k", "nca-lfr2k", "spark-lfr10k", "spark-divergence")
HEAP = "2g"  # -Xms = -Xmx: a fixed heap
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def newest_source_mtime():
    newest = 0.0
    for path in SOURCES:
        if os.path.isfile(path):
            newest = max(newest, os.path.getmtime(path))
        for base, _, files in os.walk(path):
            for f in files:
                newest = max(newest, os.path.getmtime(os.path.join(base, f)))
    return newest


def run_child(cmd, timeout, **kw):
    """Runs cmd to its end (killing it on timeout) and returns (code, stdout)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            fail(f"{cmd[0]} did not finish within {timeout} s")
        return p.returncode, out


def build():
    """Compiles with sbt unless the classpath file is newer than every source."""
    if os.path.isfile(CLASSPATH) and os.path.getmtime(CLASSPATH) > newest_source_mtime():
        return
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE=os.environ.get("COURSIER_MODE", "offline"))
    code, out = run_child(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
         f"-Djava.io.tmpdir={TMP}", "-J-XX:-UsePerfData",
         "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL)
    with open(os.path.join(BUILD, "build.log"), "w") as f:
        f.write(out)
    lines = [l for l in out.splitlines() if l.startswith(os.sep) and ".jar" in l]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"build failed (sbt exit code {code})")
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no engine sources under {ROOT}/src/main/scala; run from the root of a full checkout")
    build()
    with open(CLASSPATH) as f:
        classpath = f.read().strip()

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(TMP, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={TMP}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    if args.workload == "spark-divergence":
        sys.exit(subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL).returncode)
    code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("the benchmark JVM printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    # the JVM must report exactly the metrics BENCHMARK.json declares
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(result["metrics"]):
        fail("the reported metrics differ from those BENCHMARK.json declares")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()

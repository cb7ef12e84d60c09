"""Benchmark command: builds the program from source, runs one workload in a
fresh JVM with a fixed heap, and prints its JSON result as the last line.

    python3 tinbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 tinbench/run.py --selftest     # each output check rejects a corrupted output

Run it from the root of the repository.
"""

import argparse
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# Heap per workload: fixed (-Xms = -Xmx) so that GC work does not depend
# on how far the heap happened to grow. The serial collector's CPU time is
# its work: parallel collectors spin while waiting, more so under steal.
HEAP = {
    "ordered-bitcoin": "3g",
    "relay-flights": "2g",
    "spark-pipeline": "2g",
    "spark-streaming": "2g",
}
SELFTEST_HEAP = "1g"
TIMEOUT_S = 170

OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def java_cmd(classes, heap, work, main, args):
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return (["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseSerialGC", "-XX:-UsePerfData",
             f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
             "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
            + ["-cp", build.classpath(classes), main] + args)


def run(cmd):
    """Run the JVM, passing its output through; return its exit code."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if proc.returncode != 0:
        print(f"the JVM exited with code {proc.returncode}", file=sys.stderr)
    return 1 if proc.returncode != 0 else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload not in HEAP:
        ap.error(f"--workload must be one of {', '.join(HEAP)}")
    classes = build.build()
    work = build.OUT / "work"
    if a.selftest:
        return run(java_cmd(classes, SELFTEST_HEAP, work, "tinbench.SelfTest", [str(work)]))
    launched_ms = int(time.time() * 1000)
    return run(java_cmd(classes, HEAP[a.workload], work, "tinbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--launched-ms", str(launched_ms), "--work", str(work)]))


if __name__ == "__main__":
    sys.exit(main())

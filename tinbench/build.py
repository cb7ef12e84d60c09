"""Build definition of the benchmark: compiles the program's sources
(src/main/scala) together with the benchmark's own (tinbench/src) with the
Scala compiler that ships in the Spark distribution, into a directory keyed
by a hash of every source file, so an unchanged tree is compiled once.

    python3 tinbench/build.py        # build, print the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = BENCH / "src"
OUT = BENCH / "out"


def spark_jars() -> Path:
    """The Spark distribution's jars, $SPARK_HOME/jars."""
    if "SPARK_HOME" not in os.environ:
        raise SystemExit("SPARK_HOME is not set")
    return Path(os.environ["SPARK_HOME"]) / "jars"


def duckdb_jar():
    """The DuckDB JDBC driver from the local coursier cache (the program's
    only dependency outside the Spark distribution), or None."""
    cache = Path(os.environ.get("COURSIER_CACHE", Path.home() / ".cache" / "coursier"))
    found = sorted(cache.glob("v1/*/*/*/*/org/duckdb/duckdb_jdbc/*/duckdb_jdbc-*.jar"))
    return found[-1] if found else None


def sources():
    return sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))


def classpath(classes: Path) -> str:
    parts = [str(classes), str(spark_jars() / "*")]
    jar = duckdb_jar()
    if jar:
        parts.append(str(jar))
    return os.pathsep.join(parts)


def build() -> Path:
    """Compile if needed; return the classes directory."""
    if not PROGRAM_SRC.is_dir():
        raise SystemExit(f"no program sources at {PROGRAM_SRC.relative_to(ROOT)}")
    srcs = sources()
    digest = hashlib.sha256()
    for f in srcs:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    classes = OUT / "classes" / digest.hexdigest()[:16]
    if classes.is_dir():
        return classes
    classes.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="build-", dir=classes.parent))
    cmd = ["java", "-Xmx1g", "-Xss8m", "-XX:-UsePerfData", "-cp", str(spark_jars() / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in srcs]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SystemExit(f"compilation failed ({done.returncode})")
    try:
        tmp.rename(classes)
    except OSError:  # built meanwhile by another run
        shutil.rmtree(tmp, ignore_errors=True)
    return classes


if __name__ == "__main__":
    print(build())

"""Build for the SURGE benchmark.

Compiles the repository's `src/main/scala` together with the benchmark's
own sources (`surgebench/src`) into `.bench_build/surgebench/classes`,
with the Scala compiler shipped in the Spark distribution's `jars/`
directory -- the same jars the sbt build compiles against. The build is
skipped when a stamp over the sources and the JVM version is unchanged.
After compiling it runs the benchmark's self-test, which fails the build
if the output checks do not catch a detector that reports wrong scores.

Run from the repository root:  python3 surgebench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys

MAIN = "repro.surgebench.Bench"
# Pinned for every benchmark JVM. Transparent huge pages made GAPS throughput
# steadier between JVMs in probing; -XX:-UsePerfData keeps the JVM from
# writing a file outside the checkout.
JVM_FLAGS = ["-Xms1g", "-Xmx1g", "-XX:+UseSerialGC", "-XX:+AlwaysPreTouch",
             "-XX:+UseTransparentHugePages", "-XX:-UsePerfData"]


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isfile(os.path.join(jars, "scala-compiler-2.13.17.jar")):
        sys.exit("surgebench: no Spark distribution with scala-compiler-2.13.17 found (set SPARK_HOME)")
    return jars


def sources(root):
    found = []
    for top in ("src/main/scala", "surgebench/src"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            sys.exit(f"surgebench: missing {top}; run from a checkout of the repository")
        for d, _, files in os.walk(base):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def java_version():
    out = subprocess.run(["java", "-version"], capture_output=True, text=True, check=True)
    return out.stderr.strip()


def ensure(root):
    """Builds if needed; returns (classpath, source stamp)."""
    jars = spark_jars()
    srcs = sources(root)
    h = hashlib.sha256(java_version().encode())
    for f in srcs:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()[:16]

    out = os.path.join(root, ".bench_build", "surgebench")
    classes = os.path.join(out, "classes")
    cp = classes + os.pathsep + os.path.join(jars, "*")
    stamp_file = os.path.join(out, "stamp")
    if os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return cp, stamp

    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    print(f"surgebench: compiling {len(srcs)} sources", file=sys.stderr)
    scalac = subprocess.run(
        ["java", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
         "-usejavacp", "-nowarn", "-d", classes] + srcs, timeout=600)
    if scalac.returncode != 0:
        sys.exit("surgebench: compilation failed")
    test = subprocess.run(["java"] + JVM_FLAGS + ["-cp", cp, MAIN, "--self-test"],
                          stdout=subprocess.PIPE, text=True, timeout=300)
    print(test.stdout, end="", file=sys.stderr)
    if test.returncode != 0:
        sys.exit("surgebench: self-test failed")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp, stamp


if __name__ == "__main__":
    ensure(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

"""SURGE benchmark: replays seeded spatial streams through the detectors.

    python3 surgebench/run.py --workload ccs-us --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds on first use (see build.py), then runs
one workload in a pinned JVM. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer ones and writes the spans
to .bench_build/surgebench/spans/. See surgebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["gaps-taxi", "ccs-taxi-poll", "ccs-us"]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="stream seed (default 1; held-out seed: 2)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true", help="only build and run the check self-test")
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cp, stamp = build.ensure(root)
    if a.self_test:
        sys.exit(subprocess.run(["java"] + build.JVM_FLAGS + ["-cp", cp, build.MAIN, "--self-test"],
                                timeout=300).returncode)
    if a.workload is None:
        ap.error("--workload is required")

    spans = os.path.join(root, ".bench_build", "surgebench", "spans", f"{a.workload}.spans")
    cmd = ["java"] + build.JVM_FLAGS + [
        "-cp", cp, build.MAIN,
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--spans-out", spans,
        "--source", f"git={git_sha(root)} src={stamp}",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        sys.exit(f"surgebench: benchmark JVM exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("surgebench: malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

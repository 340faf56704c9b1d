#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Run from the root of a checkout.  The first call builds perfbench.exe and
schedsimd.exe with dune (later calls find them up to date); then the
benchmark runs and its output is passed through.  The last line of
standard output is the JSON result, printed only when its metric names
are exactly the ones BENCHMARK.json declares for that pass (end_to_end
for --trace 0, per_layer for --trace 1).  Without the statsched sources
beside it the build fails and the script exits non-zero, printing no
result.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SCHEDSIMD = os.path.join("_build", "default", "bin", "schedsimd.exe")
OUT_DIR = ".perfbench_out"
BUILD_TIMEOUT_S = 850
# The benchmark measures for --seconds; set-up, the reference run and
# the drain come on top.
SLACK_S = 120


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    # No shared dune cache: the benchmark reads and writes only inside
    # its checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/perfbench.exe", "./bin/schedsimd.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e, 2)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode, 2)


def run(args, timeout):
    """Run perfbench.exe in its own process group; return its stdout."""
    cmd = [EXE] + args + ["--schedsimd", SCHEDSIMD, "--out", OUT_DIR]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("benchmark exceeded %d s" % timeout, 3)
    finally:
        # schedsimd children are reaped by perfbench itself; anything left
        # in the group after it exits is killed here.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def arg_value(args, flag, default=None):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    build()
    if "--self-test" in args:
        seed = arg_value(args, "--seed", "1")
        code, out = run(["selftest", "--seed", seed, "--seconds", "20"], 600)
        sys.stdout.write(out)
        sys.exit(code)
    seconds = float(arg_value(args, "--seconds", "10"))
    trace = arg_value(args, "--trace", "0")
    code, out = run(args, int(seconds) + SLACK_S)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % code, code or 4)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        fail("unparseable result line (%s): %s" % (e, lines[-1]), 4)
    want = expected_metrics(trace)
    if got != want:
        fail("metrics %s differ from BENCHMARK.json's %s" % (got, want), 4)
    print(lines[-1])


if __name__ == "__main__":
    main()

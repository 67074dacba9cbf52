"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a smoke size of every workload, traced and untraced, and checks that
each run passes its correctness gate and prints every metric named in
BENCHMARK.json with its unit.  Then breaks the program on purpose and checks
that the gate catches it, and that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits nonzero if any check fails.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def run_bench(args, cwd=ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--seed", "0",
         "--seconds", str(seconds)] + args,
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            code, result, proc = run_bench(
                ["--workload", workload, "--trace", str(trace), "--smoke"])
            check(code == 0 and result is not None and result["correct"],
                  what + ": exits 0 with a correct result")
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], what + ": every metric, each with its unit")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1
                  and isinstance(result["failed"], int),
                  what + ": whole attempted and failed counts")

    # attempted and failed count the jobs of a pass, so a longer run, which
    # fits more passes, reports the same numbers.
    counts = []
    for seconds in (1, 4):
        _, result, _ = run_bench(["--workload", "presets-small", "--trace", "0", "--smoke"],
                                 seconds=seconds)
        counts.append(result and (result["attempted"], result["failed"]))
    check(counts[0] is not None and counts[0] == counts[1],
          "presets-small: attempted and failed do not depend on --seconds (%s)" % counts)

    for kind, workload, trace in (("ledger", "dense-exact", 0),
                                  ("ledger", "presets-small", 1),
                                  ("determinism", "nonconvex-nc", 0),
                                  ("determinism", "sparse-subsampled", 1)):
        code, result, _ = run_bench(["--workload", workload, "--trace", str(trace),
                                     "--smoke", "--break", kind])
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "%s --trace %d --break %s: the gate fails" % (workload, trace, kind))

    bare = os.path.join(ROOT, ".bench_work", "selftest-%d" % os.getpid())
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = run_bench(["--workload", "dense-exact", "--trace", "0"], cwd=bare)
        check(code != 0 and result is None,
              "without src/: exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

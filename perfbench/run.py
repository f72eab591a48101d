#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the `perfbench` binary from the
checkout's sources (into $CARGO_TARGET_DIR, default `.bench_build`),
prints one provenance line, then runs the binary, whose last stdout line
is the result object. The exit code is the binary's: non-zero when an
output check fails.

`--self-test` is the short mode: every workload for one second, untraced
and traced, checking that each metric BENCHMARK.json names is emitted
with its unit and documented in perfbench/layers.json, and that two runs
of one seed serve the same diff stream.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary; returns its path."""
    missing = [p for p in ("Cargo.toml", "crates") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a checkout of the repository (missing {', '.join(missing)})", 2)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark measures (the checkout
    need not be a git repository)."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        return None


def provenance(args):
    git_rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git_rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "git_rev": git_rev,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "args": args,
    }


def run_binary(binary, args):
    """Runs the benchmark binary in its own process group; returns
    (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)
    problems = []
    for kind in ("end_to_end", "per_layer"):
        named = {m["name"] for m in bench[kind]}
        documented = set(layers[kind])
        if named != documented:
            problems.append(f"layers.json {kind} differs from BENCHMARK.json: "
                            f"{sorted(named ^ documented)}")
    digests = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            code, lines = run_binary(binary, args)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(lines[-1])
                params = json.loads(lines[-2])["params"]
            except (IndexError, ValueError, KeyError):
                problems.append(f"{label}: no result line (exit {code})")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{label}: exit {code}, correct={result.get('correct')}")
            metrics = result.get("metrics", {})
            for m in bench[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {m['name']} = {got}, expected unit {m['unit']}")
            extra = set(metrics) - {m["name"] for m in bench[kind]}
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            if "prefix_fnv" in params:
                digests.setdefault(workload, set()).add(params["prefix_fnv"])
            print(f"self-test: {label}: {len(metrics)} metrics, exit {code}", file=sys.stderr)
    for workload, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"{workload}: one seed served different diff streams {sorted(seen)}")
    for problem in problems:
        print(f"self-test: FAIL {problem}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        sys.exit(self_test(binary))
    print(json.dumps({"provenance": provenance(args)}), flush=True)
    code, lines = run_binary(binary, args)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe and
bin/serve.exe with dune, then runs main.exe with the same arguments; its
standard output ends with one JSON line of results.  Build products go to
_build/, scratch files (the serve socket, daemon traces) to _perfbench/.
Exits 2 when the checkout cannot be built.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
WORK = ROOT / "_perfbench"
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 175


def source_digest():
    """Commit of the checkout: git's when there is one, else a digest of
    the sources (a checkout the benchmark runs in need not be a repository)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and (p.suffix in (".ml", ".mli", ".py") or p.name == "dune"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def run_group(cmd, timeout, **kw):
    """Run cmd in a process group of its own and return its exit code.
    On SIGTERM or SIGINT, or after timeout seconds, the whole group (the
    serve daemon and the reference-kernel children included) is killed
    and waited for, and this script exits 3."""
    with subprocess.Popen(cmd, start_new_session=True, **kw) as proc:
        def stop(*_):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            sys.exit(3)
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print("perfbench: %s exceeded %d s" % (cmd[0], timeout), file=sys.stderr)
            stop()


def main():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        print("perfbench: run from the root of a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=str(WORK))
    build = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe", "./bin/serve.exe"],
        BUILD_TIMEOUT, cwd=ROOT, env=env, stdout=sys.stderr)
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(ROOT / "_build/default/perfbench/main.exe"), *sys.argv[1:],
           "--serve-exe", "_build/default/bin/serve.exe",
           "--work-dir", "_perfbench", "--commit", source_digest()]
    return run_group(cmd, RUN_TIMEOUT, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())

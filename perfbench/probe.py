"""Child processes of the benchmark, which run ``keypose`` and nothing else.

Usage::

    python3 perfbench/probe.py setup ROOT ARGV...
    python3 perfbench/probe.py rss ROOT ARGV_JSON...

Both import ``keypose`` from ``ROOT/src``.

``setup`` hooks the Monte Carlo entry point and runs one command; the hook
prints ``time.monotonic()`` (a clock shared by all processes) and ends the
process at once.  The parent takes the time from just before it started
this process to that stamp as set-up time: interpreter start, imports,
argument parsing, config building and, with ``--coco``, annotation loading.

``rss`` runs each command (one JSON-encoded argv per argument) to the end
and prints the process's resident high-water mark in KiB, so the figure
holds only the program's memory, not the benchmark's.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _first_trial(*args, **kwargs):
    sys.stdout.write(f"{time.monotonic()!r}\n")
    sys.stdout.flush()
    os._exit(0)


def main() -> int:
    mode, root, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(root, "src"))
    from keypose import cli

    if mode == "setup":
        # ``cli`` calls the engine through the name it imports.
        cli.monte_carlo = _first_trial
        cli.main(args)
        print("command finished without running a trial", file=sys.stderr)
        return 1
    for arg in args:
        argv = json.loads(arg)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            print(f"keypose {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one ampbound CLI command in a fresh interpreter, as a user runs it.

Usage: ``python3 child.py READY_FD SPANS_PATH CLI_ARG...``

The command does what the ``ampbound`` console script does (import
``ampbound.cli``, call ``main``) plus one write: the CLOCK_MONOTONIC time in
nanoseconds at which the import finished goes to file descriptor READY_FD,
so the parent can time set-up from spawn.  With a non-empty SPANS_PATH the
package's module-boundary calls are wrapped and the spans are written to
that path when the command ends.
"""

import os
import sys
import time


def main() -> int:
    ready_fd = int(sys.argv[1])
    spans_path = sys.argv[2]
    argv = sys.argv[3:]
    import ampbound.cli

    os.write(ready_fd, str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)).encode())
    os.close(ready_fd)
    if not spans_path:
        return ampbound.cli.main(argv)

    import layer_hooks

    recorder = layer_hooks.Recorder()
    layer_hooks.instrument(recorder)
    try:
        return ampbound.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

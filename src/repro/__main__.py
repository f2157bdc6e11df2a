"""``python -m repro`` entry point."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # raise a closed pipe here, not at shutdown
    except BrokenPipeError:
        # The reader left (``repro report run.jsonl | head``): send what is
        # still buffered to devnull so the exit-time flush cannot fail too,
        # and exit 1 without a traceback, as the Python docs' SIGPIPE
        # recipe does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)

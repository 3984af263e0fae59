"""Set-up probe: time to import `haldane` and make a workload's first call.

Run as `python3 perfbench/probe.py <workload>` from a fresh interpreter;
prints one JSON object {"setup_s": seconds, "exit": code}.
"""

import time

_t0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import lookup  # noqa: E402


def main() -> None:
    workload = lookup(sys.argv[1])
    from haldane.cli import run_command

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(list(workload.first_call))
    print(json.dumps({"setup_s": time.perf_counter() - _t0, "exit": code}))


if __name__ == "__main__":
    main()

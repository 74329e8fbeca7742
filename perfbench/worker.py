"""Run one repetition of a workload's command sequence in a fresh process.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds the source directory to import facepipe from, the run's
name, the argv of each command and whether to trace. Each command runs through
`facepipe.cli.main(argv)`; the result records its exit code, wall time and
failed-item count, the process's peak RSS, and the spans when traced.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from pathlib import Path


class FailureCounter(logging.Handler):
    """Counts the per-item "FAILED ..." records the commands log."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.count = 0

    def emit(self, record):
        if str(record.msg).startswith("FAILED"):
            self.count += 1


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["root"])
    sys.path.insert(0, job["src"])
    import facepipe.cli

    tracer = None
    if job["trace"]:
        from perfbench.spans import Tracer

        tracer = Tracer()
        tracer.install()
    counter = FailureCounter()
    logging.getLogger("facepipe").addHandler(counter)

    commands = []
    for label, argv in job["commands"]:
        if tracer is not None:
            tracer.command = label
        before = counter.count
        start = time.perf_counter()
        try:
            code = facepipe.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
        commands.append(
            {"label": label, "seconds": seconds, "exit": code, "failed_items": counter.count - before}
        )

    result = {
        "run": job["run"],
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(names=tracer.names, spans=tracer.spans, results=tracer.results)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

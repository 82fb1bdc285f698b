"""One benchmark round: a fresh process that runs a workload's CLI
commands one after another through ``metaseq.cli.main``.

Usage: python3 worker.py SPEC.json

The spec gives the source directory, the commands, whether to trace, the
parent's spawn timestamp (``time.monotonic``, the same clock system-wide)
and where to write the result. The first command's set-up is counted from
the spawn, so it includes interpreter start and imports.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import resource

    import hooks
    from metaseq import cli

    rec = hooks.Recorder(spec["trace"])
    hooks.install(rec)
    commands = []
    start = spec["spawned"]
    for argv in spec["commands"]:
        rec.command = hooks.Command(argv[0], start)
        rec.command.exit_code = cli.main(list(argv))
        rec.command.end = time.monotonic()
        commands.append(rec.command.summary())
        start = time.monotonic()
    result = {
        "commands": commands,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": rec.trace.summary() if rec.trace is not None else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

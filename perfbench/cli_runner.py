"""Run one `narytd` CLI command in this process, with the benchmark probes.

    python perfbench/cli_runner.py --spawn T --trace 0|1 --info FILE -- <cli args>

Equivalent to `python -m narytd.cli <cli args>` with `PYTHONPATH=src`,
plus: the step clock (one clock read per `adam_step` return), with
`--trace 1` the span recorder, and a JSON file written at exit holding
the startup time (from the parent's clock reading T, taken just before
the spawn, to the entry of `main`), the step return times and the spans.
The process exits with `main`'s return code.
"""

import json
import sys
import time
from pathlib import Path


def _parse(argv):
    if "--" not in argv:
        raise SystemExit("usage: cli_runner.py --spawn T --trace 0|1 --info FILE -- <cli args>")
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    return float(opts["--spawn"]), opts["--trace"] == "1", opts["--info"], argv[split + 1 :]


def main() -> int:
    spawn, trace, info_path, cli_args = _parse(sys.argv[1:])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import narytd.cli
    from spans import Probe, Recorder

    recorder = Recorder() if trace else None
    probe = Probe()
    entry = time.perf_counter()  # CLOCK_MONOTONIC, the clock the parent read
    if recorder is not None:
        recorder.close(recorder.open("cli.startup", start=spawn), end=entry)
        with recorder, probe, recorder.span("cli.main"):
            code = narytd.cli.main(cli_args)
    else:
        with probe:
            code = narytd.cli.main(cli_args)
    info = {
        "startup_s": entry - spawn,
        "step_returns": probe.step_returns,
        "spans": recorder.to_doc() if recorder is not None else None,
    }
    Path(info_path).write_text(json.dumps(info) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

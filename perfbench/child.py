"""Child processes of the benchmark; run with PYTHONPATH pointing at ``src``.

    python3 perfbench/child.py setup <workload> <seed>
        Time from before the package import until the workload's curves are
        built; print the seconds as JSON.  For cli-cold: the import of
        ``squarepeg.cli`` plus loading the curve JSON files.

    python3 perfbench/child.py cli <spans.json> <squarepeg cli arguments...>
        Run ``squarepeg.cli.main`` with spans around the cli, reporting,
        solver, continuation and curve layers; write the spans to <spans.json>
        and exit with main's code.
"""

import json
import sys
import time


def setup(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    if workload == "cli-cold":
        import squarepeg.cli  # noqa: F401
        import suite

        suite.load_cli_curves()
    else:
        import suite

        if workload == "find-suite":
            suite.find_suite_curves(seed)
        else:
            suite.track_paths(seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def traced_cli(spans_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    import squarepeg.cli as cli

    t1 = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1, {}])
    spans.install_cli(tracer)
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")

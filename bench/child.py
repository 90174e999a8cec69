"""Fresh-interpreter measurements for bench/run.py; prints one JSON object.

    python3 bench/child.py SRC_DIR setup CONFIG_JSON SUBCOMMAND
    python3 bench/child.py SRC_DIR run SPECKIN_ARGS...

`setup` times what a `speckin` run pays before its subcommand starts
working: importing the package (with numpy and scipy), parsing the scenario
file, and the `config` builders and sampler that SUBCOMMAND calls.

`run` imports speckin untimed, then times one `speckin` command line in this
process and reports its wall and CPU seconds, exit code and the process's
peak resident memory.  A fresh process per run is what a user of the command
line gets, and keeps one run's heap from shaping the next one's peak.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter, process_time


def setup(config_path, subcommand):
    t0 = perf_counter()
    import speckin.cli  # noqa: F401  (what the command line imports)
    from speckin import config

    t1 = perf_counter()
    cfg = config.parse_config(config_path)
    t2 = perf_counter()
    if subcommand != "simulate-linear":
        lower, upper = config.build_envelopes(cfg)
        grid = config.build_grid(cfg, upper)
        config.initial_density(cfg, grid)
    else:
        config.build_domain(cfg)
        config.build_model(cfg)
        config.build_step_params(cfg)
    t3 = perf_counter()
    if subcommand != "solve-vfp":
        config.sample_initial(cfg, cfg.run.N, cfg.run.seed)
    t4 = perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": t3 - t2,
            "sample_s": t4 - t3, "total_s": t4 - t0}


def run(argv):
    from speckin import cli

    code, error = None, None
    t0, c0 = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed run, reported to the parent
        error = f"{type(exc).__name__}: {exc}"
    seconds, cpu_seconds = perf_counter() - t0, process_time() - c0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"seconds": seconds, "cpu_seconds": cpu_seconds, "peak_mb": peak_mb,
            "code": code, "error": error}


def main(argv):
    src, mode, *rest = argv
    sys.path.insert(0, src)
    result = setup(*rest) if mode == "setup" else run(rest)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

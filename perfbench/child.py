"""One fresh benchmark process; prints one JSON object as its last line.

    python3 child.py setup CONFIG
    python3 child.py pipeline CONFIG OUT_DIR [SPANS_JSONL RUN_ID]

Run with the config's directory as the working directory and the
package's src directory on PYTHONPATH. `setup` times a cold
`import fiscalforge` plus everything the pipeline does before its first
training step. `pipeline` runs `fiscalforge pipeline` in-process; with
a spans path it traces the run and appends its spans there.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(config: str) -> dict:
    import numpy as np

    from fiscalforge.cli import load_run_config
    from fiscalforge.data_ingest import chrono_split, fit_scaler, load_series
    from fiscalforge.environment import BudgetEnv

    cfg = load_run_config(config)
    train_part, _ = chrono_split(load_series(cfg.data_path), cfg.train_fraction)
    BudgetEnv(train_part, fit_scaler(train_part), cfg.reward, cfg.belief)
    setup_s = time.perf_counter() - _START

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": setup_s,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _time_stages(cli, stages: dict) -> None:
    """Wrap the pipeline's stage commands with wall-clock timers."""
    for name in ("train", "refine", "evaluate"):
        command = getattr(cli, f"cmd_{name}")

        def timed(cfg, _command=command, _name=name):
            start = time.perf_counter()
            try:
                return _command(cfg)
            finally:
                stages[f"{_name}_s"] = time.perf_counter() - start

        setattr(cli, f"cmd_{name}", timed)


def ga_genomes(ga) -> int:
    """Genomes evolve() scores: the first population, then each later
    generation's offspring (the all-time best re-enters with its score)."""
    if ga.generations == 0:
        return 0
    return ga.population_size + (ga.generations - 1) * (ga.population_size - 1)


def pipeline(config: str, out: str, spans_path: str | None, run_id: str | None) -> dict:
    from fiscalforge import cli

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stages: dict = {}
    _time_stages(cli, stages)
    cfg = cli.load_run_config(config)

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(["pipeline", "--config", config, "--out", out])
        pipeline_s = time.perf_counter() - start

    result = {
        "rc": rc,
        "pipeline_s": pipeline_s,
        **stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_steps": cfg.td3.total_timesteps,
        "refine_genomes": ga_genomes(cfg.ga),
    }
    if tracer is not None:
        counts, times = tracer.summary(pipeline_s)
        files = [p for p in Path(out).iterdir() if p.is_file()]
        counts["cli.files_written"] = len(files)
        counts["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        result.update(counts=counts, times=times)
        tracer.write(Path(spans_path), run_id)
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1])
    elif argv[:1] == ["pipeline"] and len(argv) in (3, 5):
        spans_path, run_id = (argv[3], argv[4]) if len(argv) == 5 else (None, None)
        result = pipeline(argv[1], argv[2], spans_path, run_id)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time curvesurvey's set-up in a fresh interpreter and print it as JSON.

Set-up is what every CLI command pays before its own work: importing the
CLI, then `load_config`, `build_population` and `build_design` on a config.

    python3 perfbench/setup_probe.py CONFIG SEED

Run with `src` on PYTHONPATH.  The last line of output is one JSON object.
"""

import json
import sys
import time


def main(config: str, seed: int) -> None:
    t0 = time.perf_counter()
    from curvesurvey import cli, config as cfgmod

    t1 = time.perf_counter()
    cfg = cfgmod.load_config(config)
    t2 = time.perf_counter()
    pop, labels = cfgmod.build_population(cfg, seed)
    t3 = time.perf_counter()
    cfgmod.build_design(cfg, pop.N, labels)
    t4 = time.perf_counter()

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "build_population_s": t3 - t2,
        "build_design_s": t4 - t3,
        "setup_s": t4 - t0,
        "cli_version": cli.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

"""Set-up time of one workload, measured in a fresh interpreter:

    python3 bench/setup_probe.py '{"corpora": [[kind, path], ...], "backends": [...],
                                   "config": "full", "t_max_panel": 3}'

Times importing tablepanel, loading every corpus, ``build_backend`` on every
backend file and ``resolve_config`` -- everything a run does before its first
backend call -- and prints ``{"setup_s": ..., "module": ...}``.
"""

import json
import sys
import time

start = time.perf_counter()
import tablepanel  # noqa: E402
from tablepanel import cli  # noqa: E402
from tablepanel.datasets import DatasetKind, load  # noqa: E402

args = json.loads(sys.argv[1])
tasks = [list(load(DatasetKind(kind), path)) for kind, path in args["corpora"]]
backends = [cli.build_backend(path) for path in args["backends"]]
config = cli.resolve_config(args["config"], t_max_panel=args["t_max_panel"])
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "module": tablepanel.__file__,
                  "tasks": sum(len(t) for t in tasks)}))

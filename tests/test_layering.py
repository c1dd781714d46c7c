"""The core, workload and bench layers run without Spark or pandas."""
import os
import subprocess
import sys

import repro


def test_local_layers_import_neither_pyspark_nor_pandas():
    code = (
        "import sys\n"
        "import repro.core.hope, repro.workloads.datasets, repro.workloads.ycsb, repro.bench.harness\n"
        "print(sorted(m for m in ('pyspark', 'pandas') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

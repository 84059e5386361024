"""Write reference.json: the expected output counts of every input the
`bijection` and `oracle-sweep` workloads can generate, whatever the seed.

    python3 benchmarks/record_reference.py

The file in the repository was recorded at the commit that introduced the
benchmark.  Regenerate it only when the expected mathematics changes, never to
make a failing run pass.  The bijection counts come from the workload's own
ops, since every seed gives the same pool.  The oracle-sweep counts come from
library calls (`enumerate_diagrams`, `is_distinguished_ai`), not from the CLI
those ops drive.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gradedorbits.diagrams import MINUS, enumerate_diagrams  # noqa: E402
from gradedorbits.orbits import is_distinguished_ai  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    bijection = {}
    for op in workloads.pool("bijection", 0):
        report = op.run(None)
        if not report.ok:
            raise SystemExit(f"bijection fails for {op}")
        key = workloads.reference_key(op.case, op.modulus, op.dims, op.a)
        bijection[key] = [report.complexes, report.labels]
    oracle = {}
    for shape in workloads.ORACLE_SHAPES:
        for dims in workloads.dihedral_variants(shape):
            diagrams = enumerate_diagrams(len(dims), MINUS, dims)
            distinguished = sum(is_distinguished_ai(lam, 1) for lam in diagrams)
            oracle[workloads.reference_key("AI", len(dims), dims)] = [
                len(diagrams), distinguished,
            ]
    sections = []
    for name, table in (("bijection", bijection), ("oracle-sweep", oracle)):
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.items())
        )
        sections.append(f"{json.dumps(name)}: {{\n{entries}\n}}")
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {len(bijection)} bijection and {len(oracle)} oracle-sweep entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())

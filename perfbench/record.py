"""Record the payload digests the benchmark checks every op against.

    python3 perfbench/record.py

Runs every variant of every cell once, checks it with the oracle, and
writes ``perfbench/golden.json`` (input key -> payload digest).  Run it
only when a change is meant to alter the payloads, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import VARIANTS, WORKLOADS, CliRunner, LibraryRunner, check, digest, make_case

    golden = {}
    workdir = ROOT / ".perfbench-work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            runner = CliRunner(ROOT, workdir) if workload.cli else LibraryRunner()
            start = time.perf_counter()
            for cell in workload.cells:
                for variant in range(VARIANTS):
                    case = make_case(name, cell, variant)
                    code, text = runner.run(case, runner.prepare(case))
                    problems = check(case, code, text, {case.key: digest(text)})
                    if problems:
                        failures += 1
                        print(f"{case.cell}#{variant}: {'; '.join(problems)}", file=sys.stderr)
                    golden[case.key] = digest(text)
            print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print(f"{failures} cases failed their oracle; nothing written", file=sys.stderr)
        return 1
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

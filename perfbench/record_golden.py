"""Record the golden hashes: report.json and table.csv of every job in the
default-seed cycle of each workload that writes reports.

    python3 perfbench/record_golden.py

Run it only on a commit whose seeded output is known good.  Later changes
must keep these bytes; a change that moves them says why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    pkg = run.import_package()
    golden = {}
    for cls in workloads.WORKLOADS.values():
        workdir = run.RUNS / "work" / f"golden-{cls.name}"
        try:
            wl = cls(pkg, workloads.DEFAULT_SEED, workdir)
            entries = []
            for position in range(len(wl.jobs)):
                _, result, error = run.run_job(wl, position)
                if error is not None:
                    raise RuntimeError(f"{cls.name} job {position}: {error}")
                entries.append(result["files"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if any(entries):
            golden[cls.name] = entries
    path = workloads.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate bench/references.json from the program as it is now.

    python3 bench/make_references.py

Run this only when a change to the program's outputs is named and justified;
the benchmark counts every op whose output disagrees with these references
as failed.  theta-random needs no entry: its references are computed from
the seeded corpus by exhaustive search.
"""

import json
import shutil
import sys
import tempfile

import run  # pins BLAS threads before numpy loads

if not run.use_checkout_sources():
    sys.exit(f"error: no thetalab sources at {run.SRC}")
import workloads  # noqa: E402

FIELDS = {
    "theta-structured": lambda r: {"lower": r.lower, "upper": r.upper, "iterations": r.iterations},
    "construct-search": lambda out: {"free": out[2], "sha256": workloads.construct_digest(out), "n": out[0].n},
    "cli-mix": lambda out: {"exit": out[0], "stdout_sha256": workloads.stdout_digest(out[1])},
}


def main() -> int:
    refs = {}
    (run.BENCH / ".work").mkdir(exist_ok=True)
    work = run.Path(tempfile.mkdtemp(dir=run.BENCH / ".work"))
    try:
        for name, fields in FIELDS.items():
            wl = workloads.BUILDERS[name](0, None, False, work)
            refs[name] = {op.id: fields(op.run()) for op in wl.ops}
            print(f"{name}: {len(refs[name])} references", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the probe values of reference.json from the current code.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to alter the solver's results; the det
drift bounds already in the file are kept.
"""

import json
from pathlib import Path

import checks
import workloads
from run import NAMES

PATH = Path(__file__).resolve().parent / "reference.json"


def main():
    reference = json.loads(PATH.read_text()) if PATH.exists() else {}
    for name in NAMES:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        cfg = workloads.probe_config(wl, str(Path(".bench_out", "reference", name)))
        report = workloads.invoke(wl, cfg)
        entry = reference.setdefault(name, {})
        entry["probe"] = checks.final_values(wl.kind, report)
        print(name, entry["probe"])
    PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Record the anchor results that later runs are compared with (reference.json).

Run from the root of a checkout, only when the benchmark's anchors change:

    PYTHONPATH=src python3 perfbench/record_reference.py

It runs each workload's anchor config at both scales through qsense.cli.run
and stores the key results that oracles.REFERENCE_KEYS names.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import qsense.cli as cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for scale in workloads.SIZES:
            for name in workloads.WORKLOADS:
                anchor = workloads.generate(name, 0, scale, os.path.join(tmp, scale, name))["anchor"]
                report = os.path.join(tmp, f"{scale}-{name}.json")
                if cli.run(anchor["config"], out=report, quiet=True) != 0:
                    print(f"anchor {scale}/{name} failed", file=sys.stderr)
                    return 1
                with open(report) as fh:
                    results = json.load(fh)["results"]
                reference.setdefault(scale, {})[name] = oracles.reference_values(
                    anchor["scenario"], results)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

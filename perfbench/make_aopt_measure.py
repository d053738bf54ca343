#!/usr/bin/env python3
"""Regenerate the frozen aopt measure that the ``stream`` workload loads.

    python3 perfbench/make_aopt_measure.py

Designs the dense aopt measure for the spec below with ``design_hs`` and
writes ``design_to_dict`` of the result to ``aopt_gamma2_sim.json``, together
with a ``provenance`` entry naming the spec and the commit that made it.  The
``stream`` workload loads this file so that the designer does no work there.
Regenerating it changes the benchmark's inputs: do it only in a change that
is allowed to edit the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from psdalloc.designer import DesignSpec, design_hs, design_to_dict  # noqa: E402
from psdalloc.objectives import make_objective  # noqa: E402

SPEC = {"objective": "aopt", "gamma": 2.0, "u_max": 10.0, "q": 100, "d": 200,
        "variant": "sim", "rho2": 0.0}
OUT = HERE / "aopt_gamma2_sim.json"


def main():
    spec = DesignSpec(make_objective(SPEC["objective"]), SPEC["gamma"], SPEC["u_max"],
                      SPEC["q"], SPEC["d"], SPEC["variant"], SPEC["rho2"])
    result = design_hs(spec)
    if result.flagged:
        raise SystemExit("design flagged (residual %g); not writing %s" % (result.residual, OUT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    payload = design_to_dict(result)
    payload["provenance"] = {"spec": SPEC, "made_at_commit": commit,
                             "tool": "perfbench/make_aopt_measure.py"}
    with open(OUT, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print("beta = %.9g, %d non-zero atoms -> %s"
          % (result.beta, sum(w > 0.0 for w in result.measure.weights), OUT))


if __name__ == "__main__":
    main()

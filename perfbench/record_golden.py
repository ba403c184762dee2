"""Record the artifact goldens the ``artifacts`` workload checks against.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes ``perfbench/golden/artifacts/<key>.txt`` (exact output of every
artifact but ``fig4``) and ``perfbench/golden/fig4.json`` (per-strategy
error and accepted counts of ``fig4`` at ``FIG4_TRIALS`` trials). Re-record
only when an artifact's output is meant to change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import FIG4_TRIALS, GOLDEN, parse_fig4  # noqa: E402


def main() -> int:
    from repro.reporting import EXPERIMENTS, run_experiment

    (GOLDEN / "artifacts").mkdir(parents=True, exist_ok=True)
    for key in sorted(EXPERIMENTS):
        if key == "fig4":
            text = run_experiment(key, trials=FIG4_TRIALS)
            counts = parse_fig4(text, FIG4_TRIALS)
            document = {
                "trials": FIG4_TRIALS,
                "strategies": {
                    strategy: {"bad": bad, "accepted": accepted}
                    for strategy, (bad, accepted) in sorted(counts.items())
                },
            }
            (GOLDEN / "fig4.json").write_text(
                json.dumps(document, indent=2) + "\n", encoding="utf-8"
            )
        else:
            (GOLDEN / "artifacts" / f"{key}.txt").write_text(
                run_experiment(key), encoding="utf-8"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

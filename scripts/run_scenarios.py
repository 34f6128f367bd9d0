#!/usr/bin/env python3
"""Generate every named scenario, run the full analysis pipeline on each,
and print a per-scenario category summary.

Usage: python scripts/run_scenarios.py [--out DIR] [--mode structural|cryptographic]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xsign.analysis import analyze_corpus
from xsign.corpus import SCENARIOS, ScenarioSpec, generate
from xsign.constants import CATEGORIES


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None,
                        help="also write each bundle under DIR/<scenario>/")
    parser.add_argument("--mode", default="structural",
                        choices=["structural", "cryptographic"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    short = {c: c.replace("_", " ")[:18] for c in CATEGORIES}
    header = f"{'scenario':<14} {'certs':>5} {'groups':>6} {'lint':>5}  findings"
    print(header)
    print("-" * len(header))
    for scenario_id in sorted(SCENARIOS):
        params = {"n": 80, "revocation_rate": 0.2} \
            if scenario_id == "random" else {}
        bundle = generate(ScenarioSpec(scenario_id, seed=args.seed,
                                       mode=args.mode, params=params))
        if args.out:
            bundle.write(Path(args.out) / scenario_id)
        result = analyze_corpus(bundle.records, bundle.stores,
                                bundle.revocations, bundle.views,
                                bundle.operator_map,
                                extensions=bundle.extensions)
        counts = {}
        for f in result.findings:
            counts[f.category] = counts.get(f.category, 0) + 1
        cats = ", ".join(f"{short[c]}x{n}" for c, n in sorted(counts.items()))
        print(f"{scenario_id:<14} {len(bundle.records):>5} "
              f"{len(result.xs_groups):>6} {len(result.verdicts):>5}  {cats}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

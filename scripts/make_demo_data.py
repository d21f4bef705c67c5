#!/usr/bin/env python3
"""Regenerate the demo dataset shipped under data/demo.

The set carries a known +0.08 false-match handicap for African-African
negative pairs so the demo analysis has something to find. Deterministic for
a fixed seed; rerunning with the defaults reproduces the committed files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# the generator is test-support code, beside the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from synth import make_verification_dataset, write_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("data/demo"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--identities", type=int, default=150)
    parser.add_argument("--images-per-identity", type=int, default=4)
    parser.add_argument("--positives", type=int, default=1200)
    parser.add_argument("--negatives", type=int, default=1200)
    parser.add_argument("--bias", type=float, default=0.08,
                        help="Extra false-match probability for African-African pairs.")
    args = parser.parse_args()

    dataset = make_verification_dataset(
        n_identities=args.identities,
        images_per_identity=args.images_per_identity,
        n_positive=args.positives,
        n_negative=args.negatives,
        seed=args.seed,
        fmr_bias={"African": args.bias} if args.bias else None,
    )
    write_dataset(dataset, args.out)
    print(f"wrote schema.json, images.csv, pairs.csv to {args.out}")


if __name__ == "__main__":
    main()

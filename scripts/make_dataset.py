#!/usr/bin/env python3
"""Generate a synthetic categorical classification dataset in LIBSVM format.

Defaults mirror the shape of the public mushrooms dataset (8124 rows, 112
one-hot features, labels {1, 2}) so harness configs written against that
format run without a network fetch.
"""
import argparse
from pathlib import Path

from auxopt import RandomToken, make_synthetic_classification, write_libsvm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/synthetic_mushrooms.libsvm")
    parser.add_argument("--rows", type=int, default=8124)
    parser.add_argument("--features", type=int, default=112)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        features, labels = make_synthetic_classification(
            args.rows, args.features, RandomToken(args.seed)
        )
    except ValueError as exc:
        parser.error(str(exc))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(write_libsvm(features, labels))
    print(f"wrote {features.shape[0]} x {features.shape[1]} dataset to {out}")


if __name__ == "__main__":
    main()

"""Compute the stored reference answers of the workloads.

    python3 perfbench/make_references.py --seeds 0-59 1000 2000

Each run seed needs the references of all its instance seeds; values
already in references.json are kept.  One process, one instance at a time.
"""

import argparse
import os
import sys

import bootstrap

bootstrap.prepare()

import workloads  # noqa: E402  (after the BLAS threads are pinned)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="run seeds and ranges such as 0-59")
    args = parser.parse_args()
    seeds = []
    for tok in args.seeds:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    path = os.path.join(bootstrap.HERE, "references.json")
    references = workloads.References([path], path)
    for wl in workloads.make_workloads().values():
        references.lookup(wl, sorted({s for seed in seeds
                                      for s in wl.instance_seeds(seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

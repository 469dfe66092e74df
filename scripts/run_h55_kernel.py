#!/usr/bin/env python3
"""Attempt the weight-zero kernel of h_{5,5} on C^5, reporting capacity.

The kernel of h_{5,5}: S^5(S^5 C^5) -> S^5(S^5 C^5) was computed by
Ikenmeyer and Mkrtchyan: eight irreducible modules, each of kernel
multiplicity one,

    (14,7,2,2)    (13,7,2,2,1)  (12,7,3,2,1)  (12,6,3,2,2)
    (12,5,4,3,1)  (11,5,4,4,1)  (10,8,4,2,1)  (9,7,6,3)

The sl-weight-zero block alone is 190131 x 190131, far beyond the
capacity rule ``gct.flatten.check_capacity``, so this script reports
the predicted block sizes and the capacity refusal honestly instead of
silently skipping.  --weight runs a single dominant-weight block (many
are individually feasible).

Usage:  python3 scripts/run_h55_kernel.py [--weight W]
"""

import argparse
import sys
import time

from gct import hhh
from gct.flatten import MAX_COLUMNS, CapacityError, check_capacity

EXPECTED_KERNEL = [
    (14, 7, 2, 2),
    (13, 7, 2, 2, 1),
    (12, 7, 3, 2, 1),
    (12, 6, 3, 2, 2),
    (12, 5, 4, 3, 1),
    (11, 5, 4, 4, 1),
    (10, 8, 4, 2, 1),
    (9, 7, 6, 3),
]

D = N = V = 5


def admitted(dom: int, cod: int) -> bool:
    try:
        check_capacity("plan", dom, cod)
    except CapacityError:
        return False
    return True


def print_plan() -> None:
    sizes = []
    for w in hhh.dominant_weights(D * N, V):
        dom, cod = hhh.predicted_block_size(D, N, V, w)
        if dom or cod:
            sizes.append((max(dom, cod), w, dom, cod))
    sizes.sort(reverse=True)
    print(f"{len(sizes)} nonzero dominant-weight blocks; largest five:")
    for _, w, dom, cod in sizes[:5]:
        print(f"  weight {w}: domain {dom}, codomain {cod}")
    feasible = sum(1 for _, _, dom, cod in sizes if admitted(dom, cod))
    print(f"{feasible} blocks fit the elimination cap ({MAX_COLUMNS})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--weight", metavar="W",
                    help="attempt a single dominant weight, comma separated "
                         "(e.g. 21,1,1,1,1)")
    args = ap.parse_args(argv)

    print_plan()

    if args.weight:
        w = tuple(int(x) for x in args.weight.split(","))
        t0 = time.monotonic()
        try:
            block = hhh.build_hhh(D, N, V, w)
            rank = block.rank()
            dom = block.shape[1]
            print(f"weight {w}: domain {dom}, rank {rank}, "
                  f"kernel {dom - rank}  ({time.monotonic() - t0:.1f}s)")
            return 0
        except CapacityError as exc:
            print(f"capacity: {exc}")
            return 3

    t0 = time.monotonic()
    try:
        char = hhh.kernel_character(D, N, V)
    except CapacityError as exc:
        print(f"capacity: {exc}")
        print("expected kernel (Ikenmeyer--Mkrtchyan), multiplicity one each:")
        for pi in EXPECTED_KERNEL:
            print(f"  {pi}")
        return 3
    elapsed = time.monotonic() - t0
    print(f"kernel character computed in {elapsed:.1f}s:")
    for pi, mult in sorted(char.items()):
        print(f"  {pi}: {mult}")
    ok = char == {pi: 1 for pi in EXPECTED_KERNEL}
    print("matches Ikenmeyer--Mkrtchyan" if ok else "MISMATCH with expected kernel")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

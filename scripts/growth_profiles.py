#!/usr/bin/env python3
"""Traversal growth of the domino transducers.

For a machine with bounded tape the profile stays below the tape bound
plus two; for a tape-expanding machine it grows without bound, which is
the evidence refuting resynchronizability.  The growth comes in plateaus:
the profile tracks the size of the configuration being consumed, and a
configuration of size s takes about s tiles to consume.
"""

import argparse
import time

from origami.reduction import build_tiles, build_Tdown, build_Tup, halt2, grow
from origami.transducers import RunCaps
from origami.containment import traversal_profile


def profile_for(machine, max_len):
    tiles = build_tiles(machine)
    tdown, tup = build_Tdown(tiles), build_Tup(tiles)
    caps = RunCaps(2 + 4 * max_len, 20 + 12 * max_len)
    t0 = time.monotonic()
    profile = traversal_profile(tdown, tup, max_len, caps)
    took = time.monotonic() - t0
    return profile, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-len", type=int, default=12)
    args = ap.parse_args()
    for machine in (halt2(), grow()):
        profile, took = profile_for(machine, args.max_len)
        vals = [profile.values[n] for n in range(1, args.max_len + 1)]
        print(f"{machine.name}: profile(1..{args.max_len}) = {vals}  "
              f"[{took:.3f}s, growth evidence: {profile.unbounded_growth_evidence()}]")


if __name__ == "__main__":
    main()

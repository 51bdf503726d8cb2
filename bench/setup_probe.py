"""Set-up time of a fresh process.

Usage: ``python3 -I setup_probe.py SRC_DIR DOCUMENT...``

Imports ``tensordag`` from ``SRC_DIR``, then reads, parses and validates
every document, and prints the seconds that took.  Exits 1 if a document
is invalid.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    from tensordag import netio, networks

    for name in argv[1:]:
        with open(name, encoding="utf-8") as handle:
            spec = netio.parse_network(handle.read())
        if networks.validate(spec):
            print(f"invalid network document {name}", file=sys.stderr)
            return 1
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

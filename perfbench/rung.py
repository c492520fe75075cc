"""Child process for one ceiling rung: `represent`, then `verify` of its output.

Usage: rung.py SRC_DIR LATTICE PREF REP_OUT VERIFY_OUT

The parent sets the address-space cap before this starts.  Exit codes: those
of the CLI (0 verdict produced, 1 check failed, 2 input refused), MEMORY if
the cap was hit, CRASH for any other exception.
"""

import sys
import traceback

MEMORY, CRASH = 3, 4


def main(argv) -> int:
    src, lattice, pref, rep, verify = argv
    sys.path.insert(0, src)
    try:
        from lattimin.cli import main as cli

        common = ["--lattice", lattice, "--pref", pref]
        code = cli(["represent", *common, "--out", rep])
        if code != 0:
            return code
        return cli(["verify", *common, "--rep", rep, "--out", verify])
    except MemoryError:
        return MEMORY
    except Exception:
        traceback.print_exc()
        return CRASH


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

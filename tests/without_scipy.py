"""The xorq command line with SciPy refused.

    python tests/without_scipy.py ARGS...

behaves as `xorq ARGS...`, except that every import of scipy or of one of
its submodules raises ModuleNotFoundError. The package needs NumPy alone, so
each command gives the same output, bytes and exit code, as it does with
SciPy installed.
"""

import sys


class RefuseScipy:
    """A sys.meta_path finder that refuses scipy and its submodules."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is refused here: import of {name!r}", name=name)
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, RefuseScipy())
    from xorq import cli

    sys.exit(cli.main(sys.argv[1:]))

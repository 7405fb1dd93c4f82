"""Rewrite tests/outputs.json from the current source:

    PYTHONPATH=src python tests/rewrite_outputs.py

Prints the keys whose digests changed.  A change that moves bytes lists
each of those jobs, with its oracle result, where it is described.
"""

import json
import tempfile

from test_outputs import DIGESTS, digests


def main():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {"inputs": {}, "jobs": {}}
    with tempfile.TemporaryDirectory() as workdir:
        new = digests(workdir)
    for part in ("inputs", "jobs"):
        for key in sorted(old[part].keys() | new[part].keys()):
            if old[part].get(key) != new[part].get(key):
                print(f"{part}: {key}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Print a sha256 digest of every CSV that ``tikmor run`` writes for each
config given, and ``tikmor curve`` too for a config with a [curve] section.

Run it from the checkout root, where the configs' fixture paths resolve,
with that checkout's sources importable::

    PYTHONPATH=src python scripts/output_digests.py configs/table1.cfg configs/dcurve.cfg

Each config's [experiment] output moves into a temporary directory, and each
line reads ``sha256  <config stem>/<path>``. manifest.txt is left out: it
holds a timestamp. Two checkouts write the same outputs when the listings
they print are the same, so a diff of two listings is a byte-identity check.
A config whose run or curve returns nonzero (a solve failed, and runs.csv
holds its error row) stops the script with exit status 1, naming the config.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from tikmor.cli import load_config, run_curve, run_experiment


def digests(config_paths):
    """The listing's lines: by config in the order given, then by path."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in config_paths:
            config = load_config(path)
            config.output = str(Path(tmp) / Path(path).stem)
            status = run_experiment(config)
            if not status and config.curve_grid is not None:
                status = run_curve(config)
            if status:
                sys.exit(f"{path}: a solve failed (status {status}), so no digest is printed")
            for csv in sorted(Path(config.output).rglob("*.csv")):
                digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                lines.append(f"{digest}  {csv.relative_to(tmp).as_posix()}")
    return lines


if __name__ == "__main__":
    print("\n".join(digests(sys.argv[1:])))

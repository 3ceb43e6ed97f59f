"""Hash every output of the benchmark's four workload designs, run in-process.

Builds the commands of each workload in ``perfbench/workloads.py`` (which is
only imported) for every seed given, runs each once through
``hetflow.cli.main`` with ``--output`` in a temporary directory, and prints
one line per output, ``workload/seed/index exit sha256`` (``-`` when the
command wrote no file), then the number of outputs.  Two checkouts produce
byte-identical outputs exactly when they print the same lines:

    python3 scripts/output_digests.py --seeds 1 2 3 20261017 > digests.txt

With ``--dump DIR`` each output is also kept, as
``DIR/<workload>/<seed>/<index>.out``, so that ``diff -r`` of two
checkouts' dumps shows which cells moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds to build")
    parser.add_argument("--dump", type=Path, help="directory to keep every output in, one file per command")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from hetflow import cli

    count = 0
    with tempfile.TemporaryDirectory(prefix="hetflow-digests-") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for seed in args.seeds:
                for index, command in enumerate(workload.build(seed)):
                    out = Path(tmp) / f"{count}.out"
                    code = cli.main([*command.argv, "--output", str(out)])
                    digest = "-"
                    if out.exists():
                        data = out.read_bytes()
                        digest = hashlib.sha256(data).hexdigest()
                        if args.dump:
                            kept = args.dump / name / str(seed) / f"{index}.out"
                            kept.parent.mkdir(parents=True, exist_ok=True)
                            kept.write_bytes(data)
                    print(f"{name}/{seed}/{index} {code} {digest}")
                    count += 1
    print(f"{count} outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record the reference output digests that benchmark runs are checked
against, one per op (scenario or LRU replay), for a range of seeds.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_references.py --first 0 --last 29

sd_decode needs no record: its reference is greedy_decode, computed during
set-up.
"""

import argparse
import json
import sys
import tempfile
import warnings
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=29)
    args = parser.parse_args()
    run._load_package()
    import workloads
    from elasticmoe.hwmodel import CommOverlapWarning
    from spans import Tracer

    warnings.simplefilter("ignore", CommOverlapWarning)
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.ROOT / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for cls in (workloads.ExampleSweep, workloads.TraceReplay):
            for seed in range(args.first, args.last + 1):
                wl = cls(seed, workloads.Context(run.ROOT, {}, Path(tmp)))
                out = wl.run_pass(Tracer())
                if seed == 0 and cls is workloads.ExampleSweep:
                    wl.expected = wl.op_digests(out)
                    if wl.check(out):
                        raise SystemExit("example sweep differs from the golden CSV")
                refs.setdefault(cls.name, {})[str(seed)] = wl.op_digests(out)
                print(cls.name, seed, file=sys.stderr)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

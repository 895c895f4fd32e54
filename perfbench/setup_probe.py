"""One set-up as a command-line user pays it: a fresh interpreter imports
the package (numpy and scipy included) and writes the workload config.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED CONFIG_DIR

run.py times this whole process from the outside.  The process samples
its own speed with speed.LoopKernel (which needs no numpy) while it works,
and prints one JSON line: the reference seconds per wall second
("factor") and the seconds the samples took ("busy_s").
"""

import json
import sys

from speed import LoopKernel, sampled


def main(argv):
    src, workload, seed, config_dir = argv
    sys.path.insert(0, src)
    with sampled(LoopKernel()) as speed:
        import expfamproj.cli  # noqa: F401  (the import is the cost measured)
        from workloads import write_configs

        write_configs(workload, int(seed), config_dir)
    print(json.dumps({"factor": speed.factor, "busy_s": speed.busy_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
